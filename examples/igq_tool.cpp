// igq_tool — command-line utility around the library:
//
//   igq_tool gen --profile=aids --scale=0.1 --seed=1 --out=aids.txt
//       Generate a dataset file (--format=text for the Grapes-style text
//       format, --format=binary for the one-read binary format).
//   igq_tool stat --data=aids.txt
//       Print Table-1-style statistics of a dataset file.
//   igq_tool query --data=aids.txt --method=grapes6 --workload=zipf-zipf \
//            --alpha=1.4 --queries=500 --cache=500 --window=100
//       Run a synthetic workload through iGQ + the chosen method and report
//       speedups against the plain method.
//   igq_tool save --data=aids.txt --method=grapes6 --queries=500 \
//            --out=warm.igqs
//       Build the method index, warm the iGQ cache on a workload, and write
//       a snapshot (cache + method index) for later warm starts.
//   igq_tool load --data=aids.txt --method=grapes6 --snapshot=warm.igqs \
//            --queries=200 [--verify]
//       Restore engine state from a snapshot (skipping the index build when
//       the snapshot carries one) and run a probe workload; --verify also
//       answers the probes on a cold-built engine and fails on any
//       divergence. Load failures exit with a typed code: 2 = corrupt
//       bytes, 3 = snapshot format version skew, 4 = snapshot belongs to a
//       different dataset/configuration (1 for anything else).
//   igq_tool churn --data=aids.txt --method=grapes6 --mutations=200 \
//            --dir=state [--sync=every_record|batched[:N]|os_default] \
//            --snapshot-every=100
//       Apply a random add/remove script through the engine with a
//       write-ahead log attached (journal to <dir>/wal), saving an atomic
//       snapshot to <dir>/snap and rotating the log every N mutations —
//       the durable-server loop that `recover` picks up after a crash.
//   igq_tool recover --data=aids.txt --method=grapes6 --dir=state \
//            [--verify]
//       Recover an engine from whatever <dir> still holds (snapshot + WAL),
//       print the recovery report (ladder rung, replay counts), and run
//       probe queries; --verify re-answers the probes on a cold-built
//       engine over the recovered database and fails on any divergence.
//   igq_tool serve --data=aids.txt --method=grapes6 --streams=8 \
//            --queries=1000 --shards=8 [--verify] [--save=warm.igqs] \
//            [--deadline-ms=N] [--max-states=N] [--admission=WATERMARK]
//       Serve the workload as N concurrent client streams over ONE shared,
//       sharded cache (ConcurrentQueryEngine) and report throughput and
//       cache-assist rate; --verify replays the stream on one stream of a
//       QueryEngine and fails on any answer divergence, --save snapshots
//       the cache afterwards (with --shards=1, `load` restores it into a
//       QueryEngine). The lifecycle flags (all off by
//       default — every query is then unlimited) give
//       every query a wall-clock deadline / search-state cap and enable
//       admission control at the given cost watermark (queries then get a
//       30-second deadline unless --deadline-ms sets one); budgeted runs
//       print the typed outcome counters, and --verify then only
//       compares queries that completed.
//
// Build: cmake --build build && ./build/igq_tool gen ...
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "datasets/profiles.h"
#include "durability/fault_fs.h"
#include "durability/recovery.h"
#include "durability/wal.h"
#include "graph/graph_io.h"
#include "igq/concurrent_engine.h"
#include "igq/engine.h"
#include "igq/mutation.h"
#include "methods/registry.h"
#include "workload/query_generator.h"

namespace {

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      flags[arg.substr(2)] = "1";
    } else {
      flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
  return flags;
}

std::string Get(const std::map<std::string, std::string>& flags,
                const std::string& key, const std::string& fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

int CmdGen(const std::map<std::string, std::string>& flags) {
  const std::string profile = Get(flags, "profile", "aids");
  const double scale = std::atof(Get(flags, "scale", "0.1").c_str());
  const uint64_t seed = std::atoll(Get(flags, "seed", "1").c_str());
  const std::string out = Get(flags, "out", profile + ".txt");
  const igq::GraphDatabase db = igq::MakeDataset(profile, scale, seed);
  if (db.graphs.empty()) {
    std::fprintf(stderr, "unknown profile '%s'\n", profile.c_str());
    return 1;
  }
  const std::string format = Get(flags, "format", "text");
  bool written;
  if (format == "binary") {
    written = igq::WriteGraphsBinaryToFile(out, db.graphs);
  } else if (format == "text") {
    written = igq::WriteGraphsToFile(out, db.graphs);
  } else {
    std::fprintf(stderr, "unknown format '%s' (text|binary)\n", format.c_str());
    return 1;
  }
  if (!written) {
    std::fprintf(stderr, "cannot write '%s'\n", out.c_str());
    return 1;
  }
  std::printf("wrote %zu graphs to %s (%s)\n", db.graphs.size(), out.c_str(),
              format.c_str());
  return 0;
}

int CmdStat(const std::map<std::string, std::string>& flags) {
  const std::string path = Get(flags, "data", "");
  const auto graphs = igq::ReadGraphsFromFile(path);
  if (!graphs.has_value()) {
    std::fprintf(stderr, "cannot read '%s'\n", path.c_str());
    return 1;
  }
  igq::GraphDatabase db;
  db.graphs = *graphs;
  db.RefreshLabelCount();
  const igq::DatasetStats s = igq::ComputeDatasetStats(db);
  std::printf("graphs          %zu\n", s.num_graphs);
  std::printf("distinct labels %zu\n", s.distinct_labels);
  std::printf("avg degree      %.2f\n", s.avg_degree);
  std::printf("nodes avg/std/max  %.1f / %.1f / %.0f\n", s.avg_nodes,
              s.stddev_nodes, s.max_nodes);
  std::printf("edges avg/std/max  %.1f / %.1f / %.0f\n", s.avg_edges,
              s.stddev_edges, s.max_edges);
  return 0;
}

bool LoadDatabase(const std::map<std::string, std::string>& flags,
                  igq::GraphDatabase* db) {
  const std::string path = Get(flags, "data", "");
  const auto graphs = igq::ReadGraphsFromFile(path);
  if (!graphs.has_value()) {
    std::fprintf(stderr, "cannot read '%s'\n", path.c_str());
    return false;
  }
  db->graphs = *graphs;
  db->RefreshLabelCount();
  return true;
}

// Resolves --direction (default subgraph) and --method against the registry.
std::unique_ptr<igq::Method> MakeMethod(
    const std::map<std::string, std::string>& flags,
    igq::QueryDirection* direction_out) {
  const std::string direction_name = Get(flags, "direction", "subgraph");
  if (direction_name != "subgraph" && direction_name != "supergraph") {
    std::fprintf(stderr, "unknown direction '%s' (subgraph|supergraph)\n",
                 direction_name.c_str());
    return nullptr;
  }
  const igq::QueryDirection direction =
      direction_name == "supergraph" ? igq::QueryDirection::kSupergraph
                                     : igq::QueryDirection::kSubgraph;
  const std::string method_name = Get(flags, "method", "ggsx");
  auto method = igq::MethodRegistry::Create(direction, method_name);
  if (method == nullptr) {
    std::string known;
    for (const std::string& name : igq::MethodRegistry::Known(direction)) {
      known += known.empty() ? name : "|" + name;
    }
    std::fprintf(stderr, "unknown %s method '%s' (%s)\n",
                 direction_name.c_str(), method_name.c_str(), known.c_str());
  }
  if (direction_out != nullptr) *direction_out = direction;
  return method;
}

igq::IgqOptions EngineOptions(const std::map<std::string, std::string>& flags,
                              igq::QueryDirection direction) {
  igq::IgqOptions options;
  options.cache_capacity = std::atoll(Get(flags, "cache", "500").c_str());
  options.window_size = std::atoll(Get(flags, "window", "100").c_str());
  options.cache_shards = std::atoll(Get(flags, "shards", "8").c_str());
  options.verify_threads =
      igq::MethodRegistry::Defaults(direction, Get(flags, "method", "ggsx"))
          .verify_threads;
  return options;
}

int CmdSave(const std::map<std::string, std::string>& flags) {
  igq::GraphDatabase db;
  if (!LoadDatabase(flags, &db)) return 1;
  igq::QueryDirection direction;
  auto method = MakeMethod(flags, &direction);
  if (method == nullptr) return 1;

  igq::Timer build_timer;
  method->Build(db);
  std::printf("built %s over %zu graphs in %.2fs\n", method->Name().c_str(),
              db.graphs.size(), build_timer.ElapsedSeconds());

  const igq::WorkloadSpec spec = igq::MakeWorkloadSpec(
      Get(flags, "workload", "zipf-zipf"),
      std::atof(Get(flags, "alpha", "1.4").c_str()),
      std::atoll(Get(flags, "queries", "500").c_str()),
      std::atoll(Get(flags, "seed", "42").c_str()));
  const auto workload = igq::GenerateWorkload(db.graphs, spec);

  igq::QueryEngine engine(db, method.get(), EngineOptions(flags, direction));
  igq::Timer warm_timer;
  for (const igq::WorkloadQuery& wq : workload) engine.Process(wq.graph);
  std::printf("warmed cache with %zu queries in %.2fs (%zu cached, %zu "
              "pending in window)\n",
              workload.size(), warm_timer.ElapsedSeconds(),
              engine.cache().size(), engine.cache().window_fill());

  // Atomic save (tmp + fsync + rename): a crash mid-write can never clobber
  // an existing snapshot at this path.
  const std::string out_path = Get(flags, "out", "warm.igqs");
  std::string error;
  if (!igq::durability::SaveSnapshotAtomic(
          igq::durability::RealFileSystem::Instance(), out_path,
          [&engine](std::ostream& out, std::string* err) {
            return engine.SaveSnapshot(out, err);
          },
          &error)) {
    std::fprintf(stderr, "snapshot failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("snapshot written atomically to %s\n", out_path.c_str());
  return 0;
}

// Typed exit codes for snapshot load failures, so scripts and CI can tell
// "the disk ate it" (2) from "another format version wrote it" (3) from
// "it belongs to another dataset or configuration" (4). Snapshots are
// never migrated: after a 3 or a 4, save a fresh one.
int LoadExitCode(igq::snapshot::SnapshotErrorKind kind) {
  switch (kind) {
    case igq::snapshot::SnapshotErrorKind::kCorrupt: return 2;
    case igq::snapshot::SnapshotErrorKind::kVersionSkew: return 3;
    case igq::snapshot::SnapshotErrorKind::kDatasetDivergence: return 4;
    default: return 1;
  }
}

int CmdLoad(const std::map<std::string, std::string>& flags) {
  igq::GraphDatabase db;
  if (!LoadDatabase(flags, &db)) return 1;
  igq::QueryDirection direction;
  auto method = MakeMethod(flags, &direction);
  if (method == nullptr) return 1;

  const std::string snapshot_path = Get(flags, "snapshot", "warm.igqs");
  std::ifstream in(snapshot_path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot read '%s'\n", snapshot_path.c_str());
    return 1;
  }
  igq::QueryEngine engine(db, method.get(), EngineOptions(flags, direction));
  std::string error;
  igq::SnapshotLoadInfo info;
  igq::Timer load_timer;
  if (!engine.LoadSnapshot(in, &error, &info)) {
    std::fprintf(stderr, "cannot load snapshot '%s': %s (%s)\n",
                 snapshot_path.c_str(), error.c_str(),
                 igq::snapshot::SnapshotErrorKindName(info.error_kind));
    return LoadExitCode(info.error_kind);
  }
  if (!info.method_index_restored) {
    std::printf("snapshot has no %s index; building from scratch\n",
                method->Name().c_str());
    method->Build(db);
  }
  std::printf("warm start in %.2fs: %zu cached queries, method index %s\n",
              load_timer.ElapsedSeconds(), info.cached_queries,
              info.method_index_restored ? "restored" : "rebuilt");

  const igq::WorkloadSpec spec = igq::MakeWorkloadSpec(
      Get(flags, "workload", "zipf-zipf"),
      std::atof(Get(flags, "alpha", "1.4").c_str()),
      std::atoll(Get(flags, "queries", "200").c_str()),
      std::atoll(Get(flags, "seed", "43").c_str()));
  const auto workload = igq::GenerateWorkload(db.graphs, spec);

  size_t tests = 0;
  int64_t micros = 0;
  std::vector<std::vector<igq::GraphId>> answers;
  answers.reserve(workload.size());
  for (const igq::WorkloadQuery& wq : workload) {
    igq::QueryStats stats;
    answers.push_back(engine.Process(wq.graph, &stats));
    tests += stats.iso_tests;
    micros += stats.total_micros;
  }
  std::printf("%zu probe queries: %zu tests, %.1f ms\n", workload.size(),
              tests, micros / 1000.0);

  if (flags.count("verify") != 0) {
    // Answer the same probes on a cold-built engine; iGQ answers are exact,
    // so any divergence means the snapshot corrupted engine state.
    auto cold_method = MakeMethod(flags, nullptr);
    cold_method->Build(db);
    igq::QueryEngine cold(db, cold_method.get(),
                          EngineOptions(flags, direction));
    bool identical = true;
    for (size_t i = 0; i < workload.size(); ++i) {
      if (cold.Process(workload[i].graph) != answers[i]) {
        identical = false;
        break;
      }
    }
    std::printf("answers identical to cold rebuild: %s\n",
                identical ? "yes" : "NO");
    if (!identical) return 1;
  }
  return 0;
}

int CmdQuery(const std::map<std::string, std::string>& flags) {
  igq::GraphDatabase db;
  if (!LoadDatabase(flags, &db)) return 1;
  igq::QueryDirection direction;
  auto method = MakeMethod(flags, &direction);
  if (method == nullptr) return 1;
  igq::Timer build_timer;
  method->Build(db);
  std::printf("built %s over %zu graphs in %.2fs\n", method->Name().c_str(),
              db.graphs.size(), build_timer.ElapsedSeconds());

  const igq::WorkloadSpec spec = igq::MakeWorkloadSpec(
      Get(flags, "workload", "zipf-zipf"),
      std::atof(Get(flags, "alpha", "1.4").c_str()),
      std::atoll(Get(flags, "queries", "500").c_str()),
      std::atoll(Get(flags, "seed", "42").c_str()));
  const auto workload = igq::GenerateWorkload(db.graphs, spec);

  const igq::IgqOptions options = EngineOptions(flags, direction);

  size_t base_tests = 0, igq_tests = 0;
  int64_t base_micros = 0, igq_micros = 0;
  {
    igq::IgqOptions baseline = options;
    baseline.enabled = false;
    igq::QueryEngine engine(db, method.get(), baseline);
    for (const igq::WorkloadQuery& wq : workload) {
      igq::QueryStats stats;
      engine.Process(wq.graph, &stats);
      base_tests += stats.iso_tests;
      base_micros += stats.total_micros;
    }
  }
  {
    igq::QueryEngine engine(db, method.get(), options);
    for (const igq::WorkloadQuery& wq : workload) {
      igq::QueryStats stats;
      engine.Process(wq.graph, &stats);
      igq_tests += stats.iso_tests;
      igq_micros += stats.total_micros;
    }
  }
  std::printf("%zu queries (%s, α=%s)\n", workload.size(),
              Get(flags, "workload", "zipf-zipf").c_str(),
              Get(flags, "alpha", "1.4").c_str());
  std::printf("  plain %-10s : %zu tests, %.1f ms\n", method->Name().c_str(),
              base_tests, base_micros / 1000.0);
  std::printf("  iGQ + %-10s : %zu tests, %.1f ms\n", method->Name().c_str(),
              igq_tests, igq_micros / 1000.0);
  std::printf("  speedup: %.2fx tests, %.2fx time\n",
              static_cast<double>(base_tests) /
                  static_cast<double>(igq_tests == 0 ? 1 : igq_tests),
              static_cast<double>(base_micros) /
                  static_cast<double>(igq_micros == 0 ? 1 : igq_micros));
  return 0;
}

// Serves the workload as M concurrent client streams over one shared,
// sharded cache — the ConcurrentQueryEngine entry point of the library.
int CmdServe(const std::map<std::string, std::string>& flags) {
  igq::GraphDatabase db;
  if (!LoadDatabase(flags, &db)) return 1;
  igq::QueryDirection direction;
  auto method = MakeMethod(flags, &direction);
  if (method == nullptr) return 1;
  igq::Timer build_timer;
  method->Build(db);
  std::printf("built %s over %zu graphs in %.2fs\n", method->Name().c_str(),
              db.graphs.size(), build_timer.ElapsedSeconds());

  const igq::WorkloadSpec spec = igq::MakeWorkloadSpec(
      Get(flags, "workload", "zipf-zipf"),
      std::atof(Get(flags, "alpha", "1.4").c_str()),
      std::atoll(Get(flags, "queries", "1000").c_str()),
      std::atoll(Get(flags, "seed", "42").c_str()));
  const auto workload = igq::GenerateWorkload(db.graphs, spec);
  std::vector<igq::Graph> queries;
  queries.reserve(workload.size());
  for (const igq::WorkloadQuery& wq : workload) queries.push_back(wq.graph);

  const size_t streams =
      std::max<long long>(1, std::atoll(Get(flags, "streams", "8").c_str()));
  const long long deadline_ms =
      std::atoll(Get(flags, "deadline-ms", "0").c_str());
  const long long max_states =
      std::atoll(Get(flags, "max-states", "0").c_str());
  const long long watermark = std::atoll(Get(flags, "admission", "0").c_str());
  const bool budgeted = deadline_ms > 0 || max_states > 0 || watermark > 0;
  igq::IgqOptions options = EngineOptions(flags, direction);
  if (watermark > 0) {
    options.serving.admission_watermark = static_cast<uint64_t>(watermark);
  }
  igq::ConcurrentQueryEngine engine(db, method.get(), options);
  igq::serving::QueryRequest request;
  if (deadline_ms > 0) request.budget.deadline_micros = deadline_ms * 1000;
  if (max_states > 0) {
    request.budget.max_states = static_cast<uint64_t>(max_states);
  }
  igq::Timer serve_timer;
  const auto results = engine.ProcessConcurrent(queries, streams, request);
  const double seconds = serve_timer.ElapsedSeconds();

  size_t assisted = 0, tests = 0;
  for (const igq::QueryResult& result : results) {
    tests += result.stats.iso_tests;
    if (result.stats.isub_hits + result.stats.isuper_hits > 0) ++assisted;
  }
  std::printf("%zu queries over %zu streams (%zu cache shards): %.2fs, "
              "%.0f queries/s\n",
              results.size(), streams, engine.cache().num_shards(), seconds,
              static_cast<double>(results.size()) / (seconds == 0 ? 1 : seconds));
  std::printf("  cache-assisted queries : %.1f%%  (%zu verification tests, "
              "%zu cached, %zu pending)\n",
              100.0 * static_cast<double>(assisted) /
                  static_cast<double>(results.empty() ? 1 : results.size()),
              tests, engine.cache().size(), engine.cache().window_fill());

  if (budgeted) {
    const igq::serving::OutcomeCounters counters = engine.serving_counters();
    std::printf("  outcomes : %llu completed, %llu partial, %llu deadline-"
                "expired, %llu shed, %llu cancelled\n",
                static_cast<unsigned long long>(counters.completed),
                static_cast<unsigned long long>(counters.partial),
                static_cast<unsigned long long>(counters.deadline_expired),
                static_cast<unsigned long long>(counters.shed),
                static_cast<unsigned long long>(counters.cancelled));
    if (watermark > 0) {
      const igq::serving::AdmissionController::Stats adm =
          engine.admission_stats();
      std::printf("  admission: %llu admitted, %llu shed, %llu expired in "
                  "queue, %llu cancelled in queue (watermark %lld)\n",
                  static_cast<unsigned long long>(adm.admitted),
                  static_cast<unsigned long long>(adm.shed),
                  static_cast<unsigned long long>(adm.expired_in_queue),
                  static_cast<unsigned long long>(adm.cancelled_in_queue),
                  watermark);
    }
  }

  if (flags.count("verify") != 0) {
    // Both configurations answer exactly: replay the same stream, one
    // query at a time, on a fresh QueryEngine and compare. Under
    // budgets only completed queries carry the full answer, so the check
    // skips the typed non-completions.
    auto seq_method = MakeMethod(flags, nullptr);
    seq_method->Build(db);
    igq::QueryEngine sequential(db, seq_method.get(),
                                EngineOptions(flags, direction));
    size_t compared = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      if (budgeted && results[i].outcome.kind !=
                          igq::serving::QueryOutcomeKind::kCompleted) {
        continue;
      }
      ++compared;
      if (sequential.Process(queries[i]) != results[i].answer) {
        std::printf("answers identical to sequential engine: NO (query %zu)\n",
                    i);
        return 1;
      }
    }
    std::printf("answers identical to sequential engine: yes (%zu/%zu "
                "compared)\n",
                compared, queries.size());
  }

  const std::string save_path = Get(flags, "save", "");
  if (!save_path.empty()) {
    std::ofstream out(save_path, std::ios::binary);
    std::string error;
    if (!out || !engine.SaveSnapshot(out, &error)) {
      std::fprintf(stderr, "snapshot failed: %s\n", error.c_str());
      return 1;
    }
    std::printf("snapshot written to %s\n", save_path.c_str());
  }
  return 0;
}

// The durable-server loop: mutations journaled through the write-ahead log
// before they apply, with periodic atomic snapshots + log rotation. Kill
// this process at ANY point and `recover` brings the engine back.
int CmdChurn(const std::map<std::string, std::string>& flags) {
  igq::GraphDatabase db;
  if (!LoadDatabase(flags, &db)) return 1;
  igq::QueryDirection direction;
  auto method = MakeMethod(flags, &direction);
  if (method == nullptr) return 1;

  igq::durability::WalOptions wal_options;
  const std::string sync_text = Get(flags, "sync", "every_record");
  if (!igq::durability::ParseSyncPolicy(sync_text, &wal_options)) {
    std::fprintf(stderr,
                 "bad --sync='%s' (every_record|batched[:N]|os_default)\n",
                 sync_text.c_str());
    return 1;
  }
  const std::string dir = Get(flags, "dir", "state");
  const std::string wal_dir = (std::filesystem::path(dir) / "wal").string();
  const std::string snap_path = (std::filesystem::path(dir) / "snap").string();
  std::error_code ec;
  std::filesystem::create_directories(wal_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create '%s': %s\n", wal_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  method->Build(db);
  igq::QueryEngine engine(db, method.get(), EngineOptions(flags, direction));
  igq::durability::FileSystem& fs = igq::durability::RealFileSystem::Instance();
  igq::durability::WalWriter wal(fs, wal_dir, wal_options);
  if (!wal.Open(0, 1)) {
    std::fprintf(stderr, "cannot open WAL under '%s'\n", wal_dir.c_str());
    return 1;
  }
  engine.AttachWal(&wal);

  const size_t total =
      std::max<long long>(1, std::atoll(Get(flags, "mutations", "200").c_str()));
  const size_t snapshot_every =
      std::max<long long>(1,
                          std::atoll(Get(flags, "snapshot-every", "100").c_str()));
  igq::Rng rng(std::atoll(Get(flags, "seed", "42").c_str()) + 7);
  std::vector<igq::GraphId> live;
  for (igq::GraphId i = 0; i < db.graphs.size(); ++i) live.push_back(i);
  size_t snapshots = 0;
  igq::Timer timer;
  for (size_t i = 0; i < total; ++i) {
    igq::GraphMutation mutation;
    if (rng.Chance(0.5) || live.size() < 2) {
      mutation = igq::GraphMutation::Add(
          db.graphs[rng.Below(db.graphs.size())]);
    } else {
      const size_t slot = rng.Below(live.size());
      mutation = igq::GraphMutation::Remove(live[slot]);
      live.erase(live.begin() + static_cast<ptrdiff_t>(slot));
    }
    const igq::MutationResult result = engine.ApplyMutation(db, mutation);
    if (result.wal_failed) {
      std::fprintf(stderr,
                   "WAL append failed at mutation %zu; refusing to continue "
                   "(nothing was applied)\n", i);
      return 1;
    }
    if (result.applied && mutation.kind == igq::MutationKind::kAddGraph) {
      live.push_back(result.id);
    }
    if ((i + 1) % snapshot_every == 0) {
      std::string error;
      if (!igq::durability::SaveSnapshotAtomic(
              fs, snap_path,
              [&engine](std::ostream& out, std::string* err) {
                return engine.SaveSnapshot(out, err);
              },
              &error) ||
          !wal.Rotate(db.mutation_epoch)) {
        std::fprintf(stderr, "snapshot at epoch %llu failed: %s\n",
                     static_cast<unsigned long long>(db.mutation_epoch),
                     error.c_str());
        return 1;
      }
      ++snapshots;
    }
  }
  if (!wal.Sync()) {
    std::fprintf(stderr, "final WAL sync failed\n");
    return 1;
  }
  std::printf("%zu mutations journaled (%s sync) in %.2fs; epoch %llu, "
              "next sequence %llu, %zu atomic snapshot(s) at %s\n",
              total, igq::durability::SyncPolicyName(wal_options.sync_policy),
              timer.ElapsedSeconds(),
              static_cast<unsigned long long>(db.mutation_epoch),
              static_cast<unsigned long long>(wal.next_sequence()),
              snapshots, snap_path.c_str());
  return 0;
}

int CmdRecover(const std::map<std::string, std::string>& flags) {
  igq::GraphDatabase db;
  if (!LoadDatabase(flags, &db)) return 1;
  igq::QueryDirection direction;
  auto method = MakeMethod(flags, &direction);
  if (method == nullptr) return 1;

  const std::string dir = Get(flags, "dir", "state");
  igq::durability::RecoverySpec spec;
  spec.wal_dir = (std::filesystem::path(dir) / "wal").string();
  spec.snapshot_paths = {(std::filesystem::path(dir) / "snap").string()};

  igq::QueryEngine engine(db, method.get(), EngineOptions(flags, direction));
  igq::Timer timer;
  const igq::durability::RecoveryReport report = igq::durability::RecoverEngine(
      igq::durability::RealFileSystem::Instance(), spec, db, *method, engine);
  std::printf("%s", report.Summary().c_str());
  std::printf("recovered in %.2fs\n", timer.ElapsedSeconds());

  const igq::WorkloadSpec probe_spec = igq::MakeWorkloadSpec(
      Get(flags, "workload", "zipf-zipf"),
      std::atof(Get(flags, "alpha", "1.4").c_str()),
      std::atoll(Get(flags, "queries", "50").c_str()),
      std::atoll(Get(flags, "seed", "44").c_str()));
  const auto probes = igq::GenerateWorkload(db.graphs, probe_spec);
  std::vector<std::vector<igq::GraphId>> answers;
  answers.reserve(probes.size());
  for (const igq::WorkloadQuery& wq : probes) {
    answers.push_back(engine.Process(wq.graph));
  }
  std::printf("%zu probe queries answered on the recovered engine\n",
              probes.size());

  if (flags.count("verify") != 0) {
    // The recovered index + cache must answer exactly like a cold build
    // over the recovered database.
    auto cold_method = MakeMethod(flags, nullptr);
    cold_method->Build(db);
    igq::QueryEngine cold(db, cold_method.get(),
                          EngineOptions(flags, direction));
    for (size_t i = 0; i < probes.size(); ++i) {
      if (cold.Process(probes[i].graph) != answers[i]) {
        std::printf("answers identical to cold rebuild: NO (query %zu)\n", i);
        return 1;
      }
    }
    std::printf("answers identical to cold rebuild: yes\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: igq_tool <gen|stat|query|save|load|serve|churn|"
                 "recover> [--flag=value ...]\n");
    return 1;
  }
  const auto flags = ParseFlags(argc, argv);
  if (std::strcmp(argv[1], "gen") == 0) return CmdGen(flags);
  if (std::strcmp(argv[1], "stat") == 0) return CmdStat(flags);
  if (std::strcmp(argv[1], "query") == 0) return CmdQuery(flags);
  if (std::strcmp(argv[1], "save") == 0) return CmdSave(flags);
  if (std::strcmp(argv[1], "load") == 0) return CmdLoad(flags);
  if (std::strcmp(argv[1], "serve") == 0) return CmdServe(flags);
  if (std::strcmp(argv[1], "churn") == 0) return CmdChurn(flags);
  if (std::strcmp(argv[1], "recover") == 0) return CmdRecover(flags);
  std::fprintf(stderr, "unknown command '%s'\n", argv[1]);
  return 1;
}
