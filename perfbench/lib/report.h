// What the benchmark prints: the run header and the one-line JSON result.
#ifndef PERFBENCH_LIB_REPORT_H_
#define PERFBENCH_LIB_REPORT_H_

#include <string>

#include "lib/workloads.h"

namespace perfbench {

/// The run header: build and host facts plus every parameter of the
/// workload, as one JSON object. `commit` names the source tree.
std::string RunHeaderJson(const WorkloadSpec& spec, const RunOptions& options,
                          const std::string& commit);

/// The result line: {"correct", "attempted", "failed", "metrics"}, with
/// every metric value printed at full precision.
std::string ResultJson(const RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_LIB_REPORT_H_
