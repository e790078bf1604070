// Crash recovery (docs/ARCHITECTURE.md, "Durability & recovery"): rebuilds
// an engine after a crash from whatever the disk still holds — snapshots
// saved atomically (SaveSnapshotAtomic) plus the write-ahead mutation log
// (durability/wal.h) — walking a degradation ladder instead of failing:
//
//   1. newest usable snapshot  + WAL suffix replay
//   2. an older usable snapshot + (longer) WAL suffix replay
//   3. log-only replay from an empty cache
//   4. cold rebuild of the base dataset (no usable log either)
//
// Every rung yields a consistent, queryable engine; RecoveryReport says
// which rung was used and why the higher ones were not. Recovery never
// hard-aborts on damaged files — damage costs warm state, not liveness.
#ifndef IGQ_DURABILITY_RECOVERY_H_
#define IGQ_DURABILITY_RECOVERY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "durability/fault_fs.h"
#include "durability/wal.h"

namespace igq {

class Method;
class QueryEngine;
struct GraphDatabase;

namespace durability {

/// The ladder rung recovery ended on.
enum class RecoveryRung : uint8_t {
  kNewestSnapshot,  // newest usable snapshot + WAL suffix
  kOlderSnapshot,   // a fallback snapshot + WAL suffix
  kLogOnly,         // no usable snapshot; full WAL replay, cache starts cold
  kColdRebuild      // no usable snapshot or log; base dataset, index rebuilt
};

const char* RecoveryRungName(RecoveryRung rung);

/// What RecoverEngine should look at.
struct RecoverySpec {
  /// Directory holding the wal-*.log segments ("" = current directory).
  std::string wal_dir;
  /// Snapshot candidate paths, any order; recovery ranks them by the epoch
  /// embedded in their mutation-state section. Missing files are fine.
  std::vector<std::string> snapshot_paths;
};

/// Everything recovery did and decided, for operators and tests.
struct RecoveryReport {
  RecoveryRung rung = RecoveryRung::kColdRebuild;
  /// Path of the snapshot that loaded ("" for the snapshot-less rungs).
  std::string snapshot_path;
  /// Epoch that snapshot was saved at.
  uint64_t snapshot_epoch = 0;
  /// The database's mutation epoch after recovery.
  uint64_t recovered_epoch = 0;
  /// Valid records the WAL scan yielded.
  size_t wal_records = 0;
  /// Records replayed database-only to reach the snapshot epoch.
  size_t db_replayed_records = 0;
  /// Records replayed through the engine (WAL suffix, or the whole log on
  /// the log-only rung).
  size_t engine_replayed_records = 0;
  /// Seed for WalWriter::Open when the caller re-attaches a log.
  uint64_t next_wal_sequence = 1;
  /// The WAL's final segment ended in a torn record that was truncated —
  /// the normal signature of a crash mid-append.
  bool wal_truncated_tail = false;
  std::string wal_truncation_reason;
  /// Why higher rungs were skipped, plus every WAL scan diagnostic.
  std::vector<std::string> notes;

  /// Multi-line human-readable account (igq_tool recover prints this).
  std::string Summary() const;
};

/// Applies one mutation to the database alone — no method, no cache. The
/// replay primitive recovery uses to advance the database to a snapshot's
/// epoch before loading it (snapshots validate mutation state, they do not
/// carry graph payloads). Returns false on a no-op remove.
bool ApplyMutationToDatabase(GraphDatabase& db, const GraphMutation& mutation);

/// Reads the mutation epoch a snapshot file was saved at, checksum-verifying
/// the container on the way, without needing (or touching) any database.
/// A valid snapshot with no mutation-state section yields epoch 0.
bool PeekSnapshotEpoch(const std::string& contents, uint64_t* epoch,
                       std::string* error);

/// Serializes via `save` (e.g. a SaveSnapshot lambda) and writes the result
/// with FileSystem::WriteFileAtomic, so a crash mid-save leaves the previous
/// snapshot intact. Rotate the WAL right after this returns true.
bool SaveSnapshotAtomic(FileSystem& fs, const std::string& path,
                        const std::function<bool(std::ostream&, std::string*)>& save,
                        std::string* error);

/// Recovers `engine` down the ladder. Contract: `db` is the engine's own
/// database holding the base dataset at mutation epoch 0, `method` is the
/// engine's method, and `engine` is freshly constructed (empty cache). Any
/// attached WAL writer is detached first — the caller re-attaches one after
/// recovery, opened at `recovered_epoch` with `next_wal_sequence`. Never
/// fails: the worst outcome is RecoveryRung::kColdRebuild. Takes either
/// engine class (ConcurrentQueryEngine is a QueryEngine).
RecoveryReport RecoverEngine(FileSystem& fs, const RecoverySpec& spec,
                             GraphDatabase& db, Method& method,
                             QueryEngine& engine);

}  // namespace durability
}  // namespace igq

#endif  // IGQ_DURABILITY_RECOVERY_H_
