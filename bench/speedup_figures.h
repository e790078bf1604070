// Shared drivers for the speedup figures (7, 8, 12, 13: workloads × methods
// on one dataset; 9, 15: Zipf-α sweeps; 10, 11, 16, 17: per-query-size
// groups × cache sizes).
#ifndef IGQ_BENCH_SPEEDUP_FIGURES_H_
#define IGQ_BENCH_SPEEDUP_FIGURES_H_

#include <string>

#include "bench/bench_common.h"

namespace igq {
namespace bench {

/// Which metric a speedup figure reports.
enum class Metric {
  kIsoTests,  // number of subgraph isomorphism tests (Figs 7-11)
  kTime       // query processing time (Figs 12-17)
};

/// Figs 7/8/12/13: for each of the four workloads and each host method,
/// speedup of iGQ-M over M. kIsoTests needs a single (iGQ) run per cell;
/// kTime runs baseline and iGQ engines separately. A bare `--json` writes
/// `json_file` (see BenchJson); so does RunZipfSweepFigure.
void RunWorkloadsByMethodsFigure(const std::string& figure_name,
                                 const std::string& json_file,
                                 const std::string& dataset_name,
                                 Metric metric, const Flags& flags,
                                 size_t default_queries);

/// Figs 9/15: Grapes(6) on PDBS-like data, speedup vs Zipf α for the three
/// Zipf-driven workloads.
void RunZipfSweepFigure(const std::string& figure_name,
                        const std::string& json_file, Metric metric,
                        const Flags& flags);

/// Figs 10/11/16/17: Grapes(6), zipf-zipf(α), speedup per query-size group
/// (Q4..Q20) for several cache sizes, plus the whole-workload speedup.
void RunQueryGroupFigure(const std::string& figure_name,
                         const std::string& dataset_name, double alpha,
                         Metric metric, const Flags& flags);

}  // namespace bench
}  // namespace igq

#endif  // IGQ_BENCH_SPEEDUP_FIGURES_H_
