// Durability benchmark: what the write-ahead log costs on the mutation path,
// and what it buys at recovery time. Three measurements on one churn script:
//
//   1. append overhead — per-mutation cost with the WAL attached (per sync
//      policy) against the same script with no WAL;
//   2. recovery — crash after the script, then RecoverEngine from the
//      mid-script snapshot + WAL suffix, timed end to end;
//   3. cold rebuild — the no-durability baseline: replay every mutation
//      database-only and run a full Method::Build.
//
// The recovery arm must come back at the same epoch as the live engine and
// beat the cold rebuild (the snapshot carries the method index, so replaying
// the WAL suffix skips path enumeration); the bench exits 1 on divergence.
// docs/REPRODUCING.md quotes the measured run; CI runs --smoke --json and
// checks the committed BENCH_recovery.json baseline shape.
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "durability/fault_fs.h"
#include "durability/recovery.h"
#include "durability/wal.h"
#include "igq/mutation.h"
#include "methods/registry.h"

namespace igq {
namespace bench {
namespace {

using durability::RecoverEngine;
using durability::RecoveryReport;
using durability::RecoveryRungName;
using durability::RecoverySpec;
using durability::SaveSnapshotAtomic;
using durability::SyncPolicyName;
using durability::WalOptions;
using durability::WalWriter;

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const bool smoke = flags.Has("smoke");
  const std::string profile = flags.GetString("profile", "aids");
  const double scale = flags.GetDouble("scale", smoke ? 0.05 : 1.0);
  const std::string method_name = flags.GetString("method", "grapes");
  const size_t total_mutations =
      flags.GetSize("mutations", smoke ? 60 : 2000);
  const uint64_t seed = flags.GetSize("seed", 2016);
  const std::string dir = flags.GetString("dir", "bench_recovery_dir");
  WalOptions wal_options;
  std::string sync_text = flags.GetString("sync", "batched:32");
  if (!durability::ParseSyncPolicy(sync_text, &wal_options)) {
    std::fprintf(stderr, "bad --sync=%s\n", sync_text.c_str());
    return 1;
  }

  PrintHeader("Recovery — WAL append overhead, replay vs cold rebuild",
              "One churn script, journaled through the write-ahead log with "
              "a mid-script snapshot. Crash at the end; recovery (snapshot + "
              "WAL suffix replay) races a cold rebuild (db-only replay + "
              "full Build). Same final epoch required on every arm.");
  BenchJson json(flags, "recovery", "BENCH_recovery.json");

  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(std::filesystem::path(dir) / "wal");
  const std::string wal_dir = (std::filesystem::path(dir) / "wal").string();
  const std::string snap_path = (std::filesystem::path(dir) / "snap").string();
  durability::FileSystem& fs = durability::RealFileSystem::Instance();

  const GraphDatabase db0 = BuildDataset(profile, scale, seed);

  // Churn script shared by every arm (same recipe as bench_mutation: adds
  // clone dataset graphs, removes pick live ids).
  Rng rng(seed + 11);
  std::vector<GraphMutation> script;
  {
    std::vector<GraphId> live;
    for (GraphId i = 0; i < db0.graphs.size(); ++i) live.push_back(i);
    size_t next_id = db0.graphs.size();
    script.reserve(total_mutations);
    for (size_t i = 0; i < total_mutations; ++i) {
      if (rng.Chance(0.5) || live.size() < db0.graphs.size() / 2) {
        script.push_back(
            GraphMutation::Add(db0.graphs[rng.Below(db0.graphs.size())]));
        live.push_back(static_cast<GraphId>(next_id++));
      } else {
        const size_t slot = rng.Below(live.size());
        script.push_back(GraphMutation::Remove(live[slot]));
        live.erase(live.begin() + static_cast<ptrdiff_t>(slot));
      }
    }
  }

  IgqOptions options;
  options.verify_threads =
      MethodRegistry::Defaults(QueryDirection::kSubgraph, method_name)
          .verify_threads;

  // ---- Arm 0: the same script with no WAL (append-overhead baseline). ----
  int64_t no_wal_micros = 0;
  {
    GraphDatabase db = db0;
    auto method = BuildMethod(method_name, db);
    if (method == nullptr) return 1;
    QueryEngine engine(db, method.get(), options);
    Timer timer;
    for (const GraphMutation& mutation : script) {
      engine.ApplyMutation(db, mutation);
    }
    no_wal_micros = timer.ElapsedMicros();
  }

  // ---- Live run: WAL attached, snapshot + rotation at the midpoint. ----
  GraphDatabase db_live = db0;
  int64_t wal_micros = 0;
  int64_t snapshot_micros = 0;
  uint64_t snapshot_epoch = 0;
  {
    auto method = BuildMethod(method_name, db_live);
    if (method == nullptr) return 1;
    QueryEngine engine(db_live, method.get(), options);
    WalWriter wal(fs, wal_dir, wal_options);
    if (!wal.Open(0, 1)) {
      std::fprintf(stderr, "cannot open WAL under %s\n", wal_dir.c_str());
      return 1;
    }
    engine.AttachWal(&wal);
    const size_t midpoint = script.size() / 2;
    Timer timer;
    for (size_t i = 0; i < script.size(); ++i) {
      if (i == midpoint) {
        wal_micros += timer.ElapsedMicros();
        Timer snap_timer;
        std::string error;
        if (!SaveSnapshotAtomic(
                fs, snap_path,
                [&](std::ostream& out, std::string* err) {
                  return engine.SaveSnapshot(out, err);
                },
                &error) ||
            !wal.Rotate(db_live.mutation_epoch)) {
          std::fprintf(stderr, "snapshot failed: %s\n", error.c_str());
          return 1;
        }
        snapshot_micros = snap_timer.ElapsedMicros();
        snapshot_epoch = db_live.mutation_epoch;
        timer.Reset();
      }
      engine.ApplyMutation(db_live, script[i]);
    }
    wal_micros += timer.ElapsedMicros();
    // Engine, method and WAL writer die here: the crash.
  }

  // ---- Recovery arm. ----
  GraphDatabase db_rec = db0;
  auto method_rec =
      MethodRegistry::Create(QueryDirection::kSubgraph, method_name);
  QueryEngine engine_rec(db_rec, method_rec.get(), options);
  RecoverySpec spec;
  spec.wal_dir = wal_dir;
  spec.snapshot_paths = {snap_path};
  Timer recover_timer;
  const RecoveryReport report =
      RecoverEngine(fs, spec, db_rec, *method_rec, engine_rec);
  const int64_t recover_micros = recover_timer.ElapsedMicros();
  std::printf("\n%s\n", report.Summary().c_str());

  // ---- Cold-rebuild arm. ----
  int64_t rebuild_micros = 0;
  uint64_t rebuild_epoch = 0;
  {
    GraphDatabase db = db0;
    auto method =
        MethodRegistry::Create(QueryDirection::kSubgraph, method_name);
    Timer timer;
    for (const GraphMutation& mutation : script) {
      durability::ApplyMutationToDatabase(db, mutation);
    }
    method->Build(db);
    rebuild_micros = timer.ElapsedMicros();
    rebuild_epoch = db.mutation_epoch;
  }

  // Every arm must land on the live epoch, or the comparison is bogus.
  if (report.recovered_epoch != db_live.mutation_epoch ||
      rebuild_epoch != db_live.mutation_epoch ||
      db_rec.tombstones != db_live.tombstones ||
      db_rec.graphs.size() != db_live.graphs.size()) {
    std::fprintf(stderr,
                 "DIVERGENCE: live epoch %llu, recovered %llu, rebuilt %llu\n",
                 static_cast<unsigned long long>(db_live.mutation_epoch),
                 static_cast<unsigned long long>(report.recovered_epoch),
                 static_cast<unsigned long long>(rebuild_epoch));
    return 1;
  }

  const double per_mutation_wal =
      static_cast<double>(wal_micros) / static_cast<double>(script.size());
  const double per_mutation_plain =
      static_cast<double>(no_wal_micros) / static_cast<double>(script.size());

  TablePrinter table("Durability arms");
  table.SetHeader({"arm", "mutations", "total ms", "us/mutation", "notes"});
  table.AddRow({"no WAL", std::to_string(script.size()),
                std::to_string(no_wal_micros / 1000),
                std::to_string(per_mutation_plain), "append-overhead baseline"});
  table.AddRow({std::string("WAL ") + SyncPolicyName(wal_options.sync_policy),
                std::to_string(script.size()),
                std::to_string(wal_micros / 1000),
                std::to_string(per_mutation_wal),
                "overhead x" +
                    std::to_string(Speedup(per_mutation_wal,
                                           per_mutation_plain))});
  table.AddRow({"recover", std::to_string(report.wal_records),
                std::to_string(recover_micros / 1000), "-",
                std::string(RecoveryRungName(report.rung)) + ", replayed " +
                    std::to_string(report.engine_replayed_records) +
                    " through the engine"});
  table.AddRow({"cold rebuild", std::to_string(script.size()),
                std::to_string(rebuild_micros / 1000), "-",
                "recovery speedup x" +
                    std::to_string(Speedup(
                        static_cast<double>(rebuild_micros),
                        static_cast<double>(recover_micros)))});
  std::printf("%s", table.ToString().c_str());
  std::printf("snapshot: %lld ms at epoch %llu (atomic save + rotation)\n",
              static_cast<long long>(snapshot_micros / 1000),
              static_cast<unsigned long long>(snapshot_epoch));

  json.AddRow({{"arm", "no_wal"},
               {"mutations", std::to_string(script.size())},
               {"total_micros", std::to_string(no_wal_micros)},
               {"per_mutation_micros", std::to_string(per_mutation_plain)}});
  json.AddRow({{"arm", "wal"},
               {"sync", SyncPolicyName(wal_options.sync_policy)},
               {"mutations", std::to_string(script.size())},
               {"total_micros", std::to_string(wal_micros)},
               {"per_mutation_micros", std::to_string(per_mutation_wal)},
               {"snapshot_micros", std::to_string(snapshot_micros)}});
  json.AddRow({{"arm", "recover"},
               {"rung", RecoveryRungName(report.rung)},
               {"wal_records", std::to_string(report.wal_records)},
               {"db_replayed", std::to_string(report.db_replayed_records)},
               {"engine_replayed",
                std::to_string(report.engine_replayed_records)},
               {"recovered_epoch", std::to_string(report.recovered_epoch)},
               {"total_micros", std::to_string(recover_micros)}});
  json.AddRow({{"arm", "cold_rebuild"},
               {"mutations", std::to_string(script.size())},
               {"total_micros", std::to_string(rebuild_micros)},
               {"recovery_speedup",
                std::to_string(Speedup(static_cast<double>(rebuild_micros),
                                       static_cast<double>(recover_micros)))}});

  std::filesystem::remove_all(dir);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace igq

int main(int argc, char** argv) { return igq::bench::Main(argc, argv); }
