// Figure 9: speedup in #isomorphism tests for PDBS/Grapes(6) vs Zipf skew.
#include "bench/speedup_figures.h"

int main(int argc, char** argv) {
  const igq::bench::Flags flags(argc, argv);
  igq::bench::RunZipfSweepFigure(
      "Figure 9 — #Iso-Test Speedup vs Zipf α (PDBS/Grapes(6))",
      "BENCH_fig09.json",
      igq::bench::Metric::kIsoTests, flags);
  return 0;
}
