// Warm-start benchmark: restoring a snapshot (method index + iGQ cache)
// versus rebuilding the same engine state from scratch (Method::Build +
// replaying the warm-up workload). The acceptance target for the synthetic
// 10k-graph profile (AIDS-like at --scale=1.667) is a snapshot load at
// least 5x faster than the rebuild; docs/REPRODUCING.md quotes a measured
// run. Both engines then answer the same probe workload and the bench
// fails (exit 1) on any divergence in answers or verification-test counts.
// --json[=path] writes one row (BENCH_warmstart.json holds a default run).
#include <cstdio>
#include <fstream>
#include <string>

#include "bench/bench_common.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "methods/registry.h"

namespace igq {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::string profile = flags.GetString("profile", "aids");
  const double scale = flags.GetDouble("scale", 1.667);  // ~10k AIDS graphs
  const std::string method_name = flags.GetString("method", "ggsx");
  const size_t warm_queries = flags.GetSize("warm-queries", 400);
  const size_t probe_queries = flags.GetSize("probe-queries", 100);
  const uint64_t seed = flags.GetSize("seed", 2016);
  const std::string snapshot_path =
      flags.GetString("snapshot-path", "/tmp/igq_warmstart.igqs");

  PrintHeader("Warm start — snapshot load vs rebuild from scratch",
              "Cold: Method::Build + replay of the warm-up workload. Warm: "
              "QueryEngine::LoadSnapshot (index + cache in one read, "
              "Isub/Isuper shadow-rebuilt). Probe answers must be "
              "identical.");

  const GraphDatabase db = BuildDataset(profile, scale, seed);
  const WorkloadSpec warm_spec =
      MakeWorkloadSpec("zipf-zipf", 1.4, warm_queries, seed + 1);
  const auto warm_workload = GenerateWorkload(db.graphs, warm_spec);

  IgqOptions options;
  options.cache_capacity = flags.GetSize("cache", 500);
  options.window_size = flags.GetSize("window", 100);
  options.verify_threads =
      MethodRegistry::Defaults(QueryDirection::kSubgraph, method_name)
          .verify_threads;

  // Cold path: index construction plus the queries needed to repopulate
  // the cache — everything a restarted server would redo without a
  // snapshot.
  Timer rebuild_timer;
  auto cold_method =
      MethodRegistry::Create(QueryDirection::kSubgraph, method_name);
  if (cold_method == nullptr) {
    std::fprintf(stderr, "unknown method '%s'\n", method_name.c_str());
    return 1;
  }
  cold_method->Build(db);
  QueryEngine cold_engine(db, cold_method.get(), options);
  for (const WorkloadQuery& wq : warm_workload) {
    cold_engine.Process(wq.graph);
  }
  const double rebuild_seconds = rebuild_timer.ElapsedSeconds();

  std::streamoff snapshot_bytes = 0;
  {
    std::ofstream out(snapshot_path, std::ios::binary);
    std::string error;
    if (!out || !cold_engine.SaveSnapshot(out, &error)) {
      std::fprintf(stderr, "cannot write snapshot to %s: %s\n",
                   snapshot_path.c_str(), error.c_str());
      return 1;
    }
    snapshot_bytes = out.tellp();
  }

  // Warm path: one file read restores both the method index and the cache.
  Timer load_timer;
  auto warm_method =
      MethodRegistry::Create(QueryDirection::kSubgraph, method_name);
  QueryEngine warm_engine(db, warm_method.get(), options);
  {
    std::ifstream in(snapshot_path, std::ios::binary);
    std::string error;
    SnapshotLoadInfo info;
    if (!in || !warm_engine.LoadSnapshot(in, &error, &info)) {
      std::fprintf(stderr, "cannot load snapshot: %s\n", error.c_str());
      return 1;
    }
    if (!info.method_index_restored) {
      std::fprintf(stderr, "snapshot carried no method index\n");
      return 1;
    }
  }
  const double load_seconds = load_timer.ElapsedSeconds();

  // Equivalence probe: both engines must verify the same candidates and
  // return the same answers query for query.
  const WorkloadSpec probe_spec =
      MakeWorkloadSpec("zipf-zipf", 1.4, probe_queries, seed + 2);
  const auto probe_workload = GenerateWorkload(db.graphs, probe_spec);
  bool identical = true;
  for (const WorkloadQuery& wq : probe_workload) {
    QueryStats cold_stats, warm_stats;
    const auto cold_answer = cold_engine.Process(wq.graph, &cold_stats);
    const auto warm_answer = warm_engine.Process(wq.graph, &warm_stats);
    if (cold_answer != warm_answer ||
        cold_stats.iso_tests != warm_stats.iso_tests) {
      identical = false;
      break;
    }
  }

  TablePrinter table;
  table.SetHeader({"path", "seconds", "speedup"});
  table.AddRow({"rebuild from scratch", TablePrinter::Num(rebuild_seconds, 3),
                "1.00x"});
  table.AddRow({"snapshot load", TablePrinter::Num(load_seconds, 3),
                TablePrinter::Num(Speedup(rebuild_seconds, load_seconds), 2) +
                    "x"});
  table.Print();
  std::printf("cached queries restored : %zu\n", warm_engine.cache().size());
  std::printf("snapshot size           : %lld bytes\n",
              static_cast<long long>(snapshot_bytes));
  std::printf("probe answers identical : %s\n", identical ? "yes" : "NO");

  BenchJson json(flags, "warmstart", "BENCH_warmstart.json");
  json.AddRow({{"rebuild_s", std::to_string(rebuild_seconds)},
               {"load_s", std::to_string(load_seconds)},
               {"snapshot_bytes", std::to_string(snapshot_bytes)},
               {"cached_queries", std::to_string(warm_engine.cache().size())}});
  return identical ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace igq

int main(int argc, char** argv) { return igq::bench::Main(argc, argv); }
