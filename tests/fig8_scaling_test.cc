// Pins Fig. 8 (bench_fig8_scaling.cc): the pairwise attribute comparisons
// per introduced source each aligner makes as the search graph grows
// from 18 to 10k sources, at the `--smoke` tiers (the 10k tier on four
// GBCO trials). The counts are deterministic, so each mean is pinned at
// the precision the bench prints it. A change that moves one on purpose
// updates it here and says why in CHANGES.md. Takes a few seconds in a
// release build, so it runs under the `stress` label.
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

TEST(Fig8ScalingTest, ComparisonsPerAlignerAtEverySmokeTier) {
  struct Pinned {
    std::size_t sources;
    // Exhaustive, ViewBasedAligner, PreferentialAligner.
    const char* mean[3];
  };
  const Pinned pinned[] = {
      {18, {"1825.9", "890.9", "241.0"}},
      {100, {"3572.4", "931.7", "241.0"}},
      {500, {"12092.4", "1031.2", "241.0"}},
      {10000, {"199145.3", "1108.8", "227.4"}},
  };
  const std::vector<ScalingRow> rows = RunFig8Scaling(/*smoke=*/true);
  ASSERT_EQ(rows.size(), 4u);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    EXPECT_EQ(rows[r].sources, pinned[r].sources);
    for (int s = 0; s < 3; ++s) {
      EXPECT_EQ(OneDecimal(rows[r].per_source[s].mean()), pinned[r].mean[s])
          << pinned[r].sources << " sources, strategy " << s;
    }
  }
}

}  // namespace
}  // namespace q::bench
