// Figure 8: speedup in the number of subgraph isomorphism tests on PDBS.
#include "bench/speedup_figures.h"

int main(int argc, char** argv) {
  const igq::bench::Flags flags(argc, argv);
  igq::bench::RunWorkloadsByMethodsFigure(
      "Figure 8 — Speedup in #Isomorphism Tests (PDBS)",
      "BENCH_fig08.json", "pdbs",
      igq::bench::Metric::kIsoTests, flags, /*default_queries=*/1500);
  return 0;
}
