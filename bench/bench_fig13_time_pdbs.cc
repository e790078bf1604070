// Figure 13: speedup in query processing time on PDBS.
#include "bench/speedup_figures.h"

int main(int argc, char** argv) {
  const igq::bench::Flags flags(argc, argv);
  igq::bench::RunWorkloadsByMethodsFigure(
      "Figure 13 — Query Time Speedup (PDBS)",
      "BENCH_fig13.json", "pdbs",
      igq::bench::Metric::kTime, flags, /*default_queries=*/1500);
  return 0;
}
