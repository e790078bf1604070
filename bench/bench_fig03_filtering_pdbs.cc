// Figure 3: average candidate-set size, answer-set size and false positives
// per query on PDBS. Paper shape: small absolute candidate counts (few
// graphs in the DB), but sizable false-positive ratios — e.g. CT-Index,
// best on AIDS, shows ~50% FP ratio on PDBS, while Grapes filters better.
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

  PrintHeader("Figure 3 — Filtering Power (PDBS)",
              "Average candidates / answers / false positives per query "
              "(uni-uni). Paper shape: medium-small DB => small candidate "
              "sets, but non-trivial FP ratios; method ranking differs from "
              "AIDS.");

  const GraphDatabase db = BuildDataset("pdbs", scale, seed);
  const WorkloadSpec spec =
      MakeWorkloadSpec("uni-uni", 1.4, num_queries, seed + 7);
  const auto workload = GenerateWorkload(db.graphs, spec);

  TablePrinter table;
  table.SetHeader({"method", "avg candidates", "avg answers",
                   "avg false positives", "FP ratio %"});
  BenchJson json(flags, "fig03_filtering_pdbs",
                 "BENCH_fig03_filtering_pdbs.json");
  for (const std::string& name :
       MethodRegistry::Known(QueryDirection::kSubgraph)) {
    if (name == "grapes6") continue;
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
    json.AddRow({{"dataset", "pdbs"},
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
