// Figure 8: number of pairwise column comparisons as the search graph
// grows from 18 to 100 to 500 sources (synthetic 2-attribute sources
// wired to random nodes at the calibrated average edge cost), averaged
// over the introduction of 40 sources — extended with a 10k-source tier
// built by the streaming catalog generator (data/synthetic.h), the
// representation the compact-layout work targets. Paper shape:
// Exhaustive grows steeply and roughly linearly; ViewBased and
// Preferential are "hardly affected by graph size" — the 10k tier shows
// the same contrast holding two orders of magnitude past the paper.
// tests/fig8_scaling_test.cc pins the means `--smoke` prints.
//
// Usage: bench_fig8_scaling [--smoke]
//   --smoke caps the 10k tier at 4 GBCO trials (a few seconds).
#include <cstring>

#include "bench_common.h"

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
      return 64;
    }
  }

  q::bench::PrintHeader(
      "Fig. 8 — pairwise column comparisons vs search graph size",
      "SIGMOD'10 Fig. 8, GBCO + synthetic sources, sizes 18/100/500/10k");

  std::printf("%-10s %14s %18s %20s\n", "sources", "Exhaustive",
              "ViewBasedAligner", "PreferentialAligner");
  for (const auto& row : q::bench::RunFig8Scaling(smoke)) {
    std::printf("%-10zu %14.1f %18.1f %20.1f\n", row.sources,
                row.per_source[0].mean(), row.per_source[1].mean(),
                row.per_source[2].mean());
  }
  return 0;
}
