// Pins Fig. 7 (bench_fig7_comparisons.cc): the pairwise attribute
// comparisons each aligner makes while aligning the GBCO trials' new
// sources, without and with the value-overlap filter. The counts are
// deterministic, so each total is pinned exactly, and each mean at the
// precision the bench prints it. A change that moves one on purpose
// updates it here and says why in CHANGES.md. Takes a few seconds in a
// release build, so it runs under the `stress` label rather than beside
// paper_fidelity_test.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "bench_common.h"

namespace q::bench {
namespace {

std::string OneDecimal(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", value);
  return buf;
}

TEST(Fig7ComparisonsTest, ComparisonsPerAlignerWithAndWithoutFilter) {
  struct Pinned {
    const char* strategy;
    std::size_t comparisons[2];
    const char* mean[2];
  };
  // Exhaustive and ViewBased as the paper benches have printed them since
  // they were written; Preferential as it prints since depth-first Lawler
  // branching picked other tied trees on GBCO trials 3 and 6 (it printed
  // 212.5 and 62.1 before).
  const Pinned pinned[] = {
      {"Exhaustive", {70818, 19580}, {"1770.4", "489.5"}},
      {"ViewBasedAligner", {8218, 2118}, {"205.5", "52.9"}},
      {"PreferentialAligner", {8532, 2410}, {"213.3", "60.2"}},
  };
  const std::vector<ComparisonRow> rows = RunFig7Comparisons();
  ASSERT_EQ(rows.size(), 3u);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    EXPECT_EQ(std::string(rows[r].strategy), pinned[r].strategy);
    for (int f = 0; f < 2; ++f) {
      const std::string label = std::string(pinned[r].strategy) +
                                (f == 0 ? " unfiltered" : " filtered");
      EXPECT_EQ(rows[r].introductions[f], 40u) << label;
      EXPECT_EQ(rows[r].comparisons[f], pinned[r].comparisons[f]) << label;
      EXPECT_EQ(OneDecimal(rows[r].per_source[f].mean()), pinned[r].mean[f])
          << label;
    }
  }
}

}  // namespace
}  // namespace q::bench
