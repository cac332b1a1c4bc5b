// Figure 7: pairwise attribute comparisons performed while aligning new
// sources to existing sources, with and without the value-overlap
// content filter, averaged over the 40 introductions of the 16 GBCO
// trials. Paper shape: ViewBased/Preferential do far fewer comparisons
// than Exhaustive in both cases; the overlap filter reduces all three.
// tests/fig7_comparisons_test.cc pins the printed means.
#include "bench_common.h"

int main() {
  q::bench::PrintHeader(
      "Fig. 7 — pairwise attribute comparisons while aligning new sources",
      "SIGMOD'10 Fig. 7, GBCO dataset, 40 sources / 16 trials");

  const auto rows = q::bench::RunFig7Comparisons();
  std::printf("%-22s %22s %22s\n", "strategy", "no additional filter",
              "value overlap filter");
  for (const auto& row : rows) {
    std::printf("%-22s %22.1f %22.1f\n", row.strategy,
                row.per_source[0].mean(), row.per_source[1].mean());
  }
  return 0;
}
