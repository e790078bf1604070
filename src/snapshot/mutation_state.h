// The kSectionMutationState payload (docs/FORMATS.md): the database's
// mutation epoch and tombstone list at save time. Engines hold the database
// const, so a load VALIDATES the section against the caller's database
// instead of applying it — a snapshot taken at one mutation state is never
// restored over another (the cached answers and, for warm starts, the
// method index would silently disagree with the dataset).
#ifndef IGQ_SNAPSHOT_MUTATION_STATE_H_
#define IGQ_SNAPSHOT_MUTATION_STATE_H_

#include <cstdint>
#include <string>

#include "methods/method.h"
#include "snapshot/snapshot.h"

namespace igq {
namespace snapshot {

class BinaryReader;
class BinaryWriter;

/// Serializes `db`'s mutation state: u32 payload version, u64 epoch,
/// u64 tombstone count, then the tombstone ids (u32 each, strictly
/// ascending). Only written when the database has ever mutated
/// (mutation_epoch != 0); a snapshot without it is of epoch 0.
void WriteMutationState(BinaryWriter& writer, const GraphDatabase& db);

/// Reads the leading fields of a WriteMutationState payload — the payload
/// version, which must be the current one, and the epoch — and leaves the
/// reader at the tombstone count. Returns false, filling `error` when
/// non-null, on truncation (kCorrupt in `kind`) or an unknown payload
/// version (kVersionSkew).
bool ReadMutationEpoch(BinaryReader& reader, uint64_t* epoch,
                       std::string* error, SnapshotErrorKind* kind = nullptr);

/// Parses a WriteMutationState payload and validates it against `db`.
/// Returns false — filling `error` when non-null — on malformed bytes, an
/// unknown payload version, tombstone ids that are out of range
/// (>= db.graphs.size()), unsorted, or duplicated, or a tombstone
/// list/epoch that differs from the database's current state. On success
/// fills `epoch` and `num_tombstones` (either may be null). `kind`, when
/// non-null, classifies the failure: malformed bytes are kCorrupt, an
/// unknown payload version is kVersionSkew, and a well-formed state that
/// disagrees with `db` is kDatasetDivergence.
bool ValidateMutationState(BinaryReader& reader, const GraphDatabase& db,
                           uint64_t* epoch, size_t* num_tombstones,
                           std::string* error,
                           SnapshotErrorKind* kind = nullptr);

}  // namespace snapshot
}  // namespace igq

#endif  // IGQ_SNAPSHOT_MUTATION_STATE_H_
