// Figure 7: speedup in the number of subgraph isomorphism tests on AIDS
// (four workloads x four method variants, C=500, W=100).
#include "bench/speedup_figures.h"

int main(int argc, char** argv) {
  const igq::bench::Flags flags(argc, argv);
  igq::bench::RunWorkloadsByMethodsFigure(
      "Figure 7 — Speedup in #Isomorphism Tests (AIDS)",
      "BENCH_fig07.json", "aids",
      igq::bench::Metric::kIsoTests, flags, /*default_queries=*/2000);
  return 0;
}
