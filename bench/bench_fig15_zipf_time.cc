// Figure 15: query-time speedup for PDBS/Grapes(6) vs Zipf skew.
#include "bench/speedup_figures.h"

int main(int argc, char** argv) {
  const igq::bench::Flags flags(argc, argv);
  igq::bench::RunZipfSweepFigure(
      "Figure 15 — Query Time Speedup vs Zipf α (PDBS/Grapes(6))",
      "BENCH_fig15.json",
      igq::bench::Metric::kTime, flags);
  return 0;
}
