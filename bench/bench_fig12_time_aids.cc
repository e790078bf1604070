// Figure 12: speedup in query processing time on AIDS.
#include "bench/speedup_figures.h"

int main(int argc, char** argv) {
  const igq::bench::Flags flags(argc, argv);
  igq::bench::RunWorkloadsByMethodsFigure(
      "Figure 12 — Query Time Speedup (AIDS)",
      "BENCH_fig12.json", "aids",
      igq::bench::Metric::kTime, flags, /*default_queries=*/2000);
  return 0;
}
