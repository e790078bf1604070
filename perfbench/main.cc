// igq_perfbench — runs one named workload of the repository benchmark.
//
//   igq_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--scratch <dir>] [--commit <id>] [--spans-out <file>]
//
// Prints the run header, notes, and as its last line the JSON result.
// Exits 1 on a wrong answer or refused mutation, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "lib/report.h"
#include "lib/workloads.h"

int main(int argc, char** argv) {
  std::string workload, commit = "unknown";
  perfbench::RunOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      options.seconds = std::atof(value.c_str());
      have_seconds = options.seconds > 0;
    } else if (key == "--trace") {
      options.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (key == "--scratch") {
      options.scratch_dir = value;
    } else if (key == "--commit") {
      commit = value;
    } else if (key == "--spans-out") {
      options.spans_path = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return 2;
    }
  }
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(workload);
  if (spec == nullptr || !have_seed || !have_seconds || !have_trace) {
    std::fprintf(stderr,
                 "usage: igq_perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--scratch <dir>] [--commit <id>] [--spans-out <file>]\n"
                 "workloads:");
    for (const auto& known : perfbench::AllWorkloads()) {
      std::fprintf(stderr, " %s", known.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  std::printf("header %s\n", perfbench::RunHeaderJson(*spec, options, commit).c_str());
  std::fflush(stdout);
  const perfbench::RunResult result = perfbench::RunWorkload(*spec, options);
  for (const std::string& note : result.notes) std::printf("note: %s\n", note.c_str());
  for (const perfbench::Metric& metric : result.metrics) {
    std::printf("%-32s %18.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("failed_frac %.6f (%llu of %llu operations)\n",
              result.attempted == 0 ? 0.0
                                    : static_cast<double>(result.failed) /
                                          static_cast<double>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  std::printf("%s\n", perfbench::ResultJson(result).c_str());
  return result.correct ? 0 : 1;
}
