#include "durability/recovery.h"

#include <algorithm>
#include <sstream>

#include "igq/engine.h"
#include "methods/method.h"
#include "snapshot/mutation_state.h"
#include "snapshot/serializer.h"
#include "snapshot/snapshot.h"

namespace igq {
namespace durability {

const char* RecoveryRungName(RecoveryRung rung) {
  switch (rung) {
    case RecoveryRung::kNewestSnapshot: return "newest-snapshot";
    case RecoveryRung::kOlderSnapshot: return "older-snapshot";
    case RecoveryRung::kLogOnly: return "log-only";
    case RecoveryRung::kColdRebuild: return "cold-rebuild";
  }
  return "?";
}

std::string RecoveryReport::Summary() const {
  std::ostringstream out;
  out << "recovery rung: " << RecoveryRungName(rung) << "\n";
  if (!snapshot_path.empty()) {
    out << "snapshot: " << snapshot_path << " (epoch " << snapshot_epoch
        << ")\n";
  }
  out << "recovered epoch: " << recovered_epoch << "\n"
      << "wal records: " << wal_records << " (" << db_replayed_records
      << " replayed db-only, " << engine_replayed_records
      << " through the engine)\n"
      << "next wal sequence: " << next_wal_sequence << "\n";
  if (wal_truncated_tail) {
    out << "wal tail truncated: " << wal_truncation_reason << "\n";
  }
  for (const std::string& note : notes) out << "note: " << note << "\n";
  return std::move(out).str();
}

bool ApplyMutationToDatabase(GraphDatabase& db, const GraphMutation& mutation) {
  if (mutation.kind == MutationKind::kAddGraph) {
    db.AddGraph(mutation.graph);
    return true;
  }
  return db.RemoveGraph(mutation.id);
}

bool PeekSnapshotEpoch(const std::string& contents, uint64_t* epoch,
                       std::string* error) {
  *epoch = 0;
  std::istringstream in(contents);
  snapshot::SnapshotSections sections;
  if (!snapshot::ReadSnapshot(in, &sections, error)) return false;
  if (!sections.mutation_state) return true;  // never-mutated snapshot: epoch 0
  std::istringstream payload(std::move(*sections.mutation_state));
  snapshot::BinaryReader reader(payload);
  return snapshot::ReadMutationEpoch(reader, epoch, error);
}

bool SaveSnapshotAtomic(FileSystem& fs, const std::string& path,
                        const std::function<bool(std::ostream&, std::string*)>& save,
                        std::string* error) {
  std::ostringstream out;
  if (!save(out, error)) return false;
  if (!fs.WriteFileAtomic(path, std::move(out).str())) {
    if (error != nullptr) {
      *error = "atomic write of " + path + " failed";
    }
    return false;
  }
  return true;
}

namespace {

/// A snapshot file that exists, parses, and sits at a replayable epoch.
struct SnapshotCandidate {
  uint64_t epoch = 0;
  std::string path;
  std::string contents;
};

}  // namespace

RecoveryReport RecoverEngine(FileSystem& fs, const RecoverySpec& spec,
                             GraphDatabase& db, Method& method,
                             QueryEngine& engine) {
  RecoveryReport report;
  engine.AttachWal(nullptr);  // never log the replay itself

  WalScan scan = ScanWal(fs, spec.wal_dir);
  report.wal_records = scan.records.size();
  report.next_wal_sequence = scan.next_sequence;
  report.wal_truncated_tail = scan.truncated_tail;
  report.wal_truncation_reason = scan.truncation_reason;
  for (std::string& note : scan.notes) {
    report.notes.push_back("wal: " + std::move(note));
  }

  if (db.mutation_epoch != 0) {
    // Contract violation — the caller did not hand us the base dataset.
    // Degrade instead of aborting: rebuild the index over what we got.
    report.notes.push_back(
        "database already at epoch " + std::to_string(db.mutation_epoch) +
        "; expected the base dataset — log replay impossible, rebuilding "
        "the index over the database as given");
    method.Build(db);
    report.rung = RecoveryRung::kColdRebuild;
    report.recovered_epoch = db.mutation_epoch;
    return report;
  }
  const GraphDatabase pristine = db;  // epoch-0 copy for ladder retries

  // Rank the snapshot candidates newest-epoch first. A snapshot ahead of
  // the log cannot be reached by replay (records were lost with the tail),
  // so it is unusable even though the file itself is fine.
  // An existing snapshot we cannot use (unreadable, corrupt container, or
  // ahead of what the log can replay to) may well have been the newest one
  // on disk — a corrupt file does not even reveal its epoch — so whatever
  // loads afterwards is reported as the kOlderSnapshot rung, not kNewest.
  bool skipped_existing = false;
  std::vector<SnapshotCandidate> candidates;
  for (const std::string& path : spec.snapshot_paths) {
    if (!fs.Exists(path)) continue;
    SnapshotCandidate candidate;
    candidate.path = path;
    if (!fs.ReadFile(path, &candidate.contents)) {
      report.notes.push_back("snapshot " + path + ": unreadable; skipped");
      skipped_existing = true;
      continue;
    }
    std::string error;
    if (!PeekSnapshotEpoch(candidate.contents, &candidate.epoch, &error)) {
      report.notes.push_back("snapshot " + path + ": " + error + "; skipped");
      skipped_existing = true;
      continue;
    }
    if (candidate.epoch > scan.last_epoch) {
      report.notes.push_back(
          "snapshot " + path + ": saved at epoch " +
          std::to_string(candidate.epoch) + " but the log only reaches " +
          std::to_string(scan.last_epoch) + "; skipped");
      skipped_existing = true;
      continue;
    }
    candidates.push_back(std::move(candidate));
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const SnapshotCandidate& a, const SnapshotCandidate& b) {
                     return a.epoch > b.epoch;
                   });

  // Engine-level replay of every record past `from_epoch` (WAL epochs
  // start at 1): the index and the cached answers move together, exactly
  // as they did before the crash. Returns the records applied.
  auto replay_through_engine = [&](uint64_t from_epoch) {
    size_t replayed = 0;
    for (const WalRecord& record : scan.records) {
      if (record.epoch <= from_epoch) continue;
      const MutationResult applied = engine.ApplyMutation(db, record.mutation);
      if (!applied.applied) {
        report.notes.push_back(
            "replay stopped at record " + std::to_string(record.sequence) +
            " (epoch " + std::to_string(record.epoch) +
            "): mutation did not apply; state is consistent up to the "
            "previous record");
        break;
      }
      ++replayed;
    }
    return replayed;
  };

  bool newest = !skipped_existing;
  for (SnapshotCandidate& candidate : candidates) {
    // Rewind, then replay the database alone up to the snapshot's epoch —
    // LoadSnapshot validates its mutation state against the database, so
    // the database must be AT that state first.
    db = pristine;
    bool reached = true;
    size_t db_replayed = 0;
    for (const WalRecord& record : scan.records) {
      if (record.epoch > candidate.epoch) break;
      if (!ApplyMutationToDatabase(db, record.mutation) ||
          db.mutation_epoch != record.epoch) {
        reached = false;
        break;
      }
      ++db_replayed;
    }
    if (!reached || db.mutation_epoch != candidate.epoch) {
      report.notes.push_back("snapshot " + candidate.path +
                             ": log replay could not reach its epoch; "
                             "skipped");
      newest = false;
      continue;
    }

    std::istringstream in(candidate.contents);
    std::string error;
    SnapshotLoadInfo info;
    if (!engine.LoadSnapshot(in, &error, &info)) {
      report.notes.push_back("snapshot " + candidate.path +
                             ": rejected: " + error);
      newest = false;
      continue;
    }
    if (!info.method_index_restored) method.Build(db);
    report.engine_replayed_records = replay_through_engine(candidate.epoch);

    report.rung = newest ? RecoveryRung::kNewestSnapshot
                         : RecoveryRung::kOlderSnapshot;
    report.snapshot_path = candidate.path;
    report.snapshot_epoch = candidate.epoch;
    report.db_replayed_records = db_replayed;
    report.recovered_epoch = db.mutation_epoch;
    return report;
  }

  // No snapshot worked. Log-only: rebuild the index over the base dataset
  // and replay every record through the engine (the cache starts cold).
  db = pristine;
  method.Build(db);
  if (!scan.records.empty()) {
    report.rung = RecoveryRung::kLogOnly;
    report.engine_replayed_records = replay_through_engine(0);
  } else {
    report.rung = RecoveryRung::kColdRebuild;
  }
  report.recovered_epoch = db.mutation_epoch;
  return report;
}

}  // namespace durability
}  // namespace igq
