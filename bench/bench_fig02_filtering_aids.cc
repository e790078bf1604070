// Figure 2: average candidate-set size, answer-set size and false positives
// per query on AIDS (baseline methods, uni-uni workload). Paper shape: a
// large absolute number of unnecessary isomorphism tests even under strong
// filtering; CT-Index filters best on AIDS.
#include "bench/bench_common.h"
#include "common/table_printer.h"
#include "methods/registry.h"

namespace igq {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const double scale = flags.GetDouble("scale", 1.0);
  const size_t num_queries = flags.GetSize("queries", 300);
  const uint64_t seed = flags.GetSize("seed", 2016);
  const std::string dataset_name = flags.GetString("dataset", "aids");

  PrintHeader("Figure 2 — Filtering Power (AIDS)",
              "Average candidates / answers / false positives per query "
              "(uni-uni). Paper shape: high filtering power still leaves "
              "many unnecessary tests in absolute terms.");

  const GraphDatabase db = BuildDataset(dataset_name, scale, seed);
  const WorkloadSpec spec =
      MakeWorkloadSpec("uni-uni", 1.4, num_queries, seed + 7);
  const auto workload = GenerateWorkload(db.graphs, spec);

  TablePrinter table;
  table.SetHeader({"method", "avg candidates", "avg answers",
                   "avg false positives", "FP ratio %"});
  BenchJson json(flags, "fig02_filtering_aids", "BENCH_filtering.json");
  for (const std::string& name :
       MethodRegistry::Known(QueryDirection::kSubgraph)) {
    if (name == "grapes6") continue;  // same filter as grapes
    auto method = BuildMethod(name, db);
    IgqOptions options;
    options.enabled = false;
    QueryEngine engine(db, method.get(), options);
    const RunResult result = RunWorkload(engine, workload, 0);
    const double queries = static_cast<double>(result.queries);
    const double candidates = static_cast<double>(result.candidates) / queries;
    const double answers = static_cast<double>(result.answers) / queries;
    table.AddRow({method->Name(), TablePrinter::Num(candidates, 1),
                  TablePrinter::Num(answers, 1),
                  TablePrinter::Num(candidates - answers, 1),
                  TablePrinter::Num(candidates > 0
                                        ? 100.0 * (candidates - answers) /
                                              candidates
                                        : 0.0,
                                    1)});
    json.AddRow({{"dataset", dataset_name},
                 {"method", method->Name()},
                 {"queries", std::to_string(result.queries)},
                 {"candidates", std::to_string(result.candidates)},
                 {"answers", std::to_string(result.answers)},
                 {"filter_micros", std::to_string(result.filter_micros)},
                 {"verify_micros", std::to_string(result.verify_micros)},
                 {"total_micros", std::to_string(result.total_micros)}});
  }
  table.Print();
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace igq

int main(int argc, char** argv) { return igq::bench::Main(argc, argv); }
