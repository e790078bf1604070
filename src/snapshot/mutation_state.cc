#include "snapshot/mutation_state.h"

#include "snapshot/serializer.h"

namespace igq {
namespace snapshot {
namespace {

/// Payload version of the mutation-state section.
constexpr uint32_t kMutationStateVersion = 1;

void SetError(std::string* error, const char* message) {
  if (error != nullptr) *error = message;
}

void SetKind(SnapshotErrorKind* kind, SnapshotErrorKind value) {
  if (kind != nullptr) *kind = value;
}

}  // namespace

void WriteMutationState(BinaryWriter& writer, const GraphDatabase& db) {
  writer.WriteU32(kMutationStateVersion);
  writer.WriteU64(db.mutation_epoch);
  writer.WriteU64(db.tombstones.size());
  for (GraphId id : db.tombstones) writer.WriteU32(id);
}

bool ReadMutationEpoch(BinaryReader& reader, uint64_t* epoch,
                       std::string* error, SnapshotErrorKind* kind) {
  uint32_t version = 0;
  if (!reader.ReadU32(&version)) {
    SetError(error, "mutation-state section is truncated");
    SetKind(kind, SnapshotErrorKind::kCorrupt);
    return false;
  }
  if (version != kMutationStateVersion) {
    SetError(error, "mutation-state section has an unknown payload version");
    SetKind(kind, SnapshotErrorKind::kVersionSkew);
    return false;
  }
  if (!reader.ReadU64(epoch)) {
    SetError(error, "mutation-state section is truncated");
    SetKind(kind, SnapshotErrorKind::kCorrupt);
    return false;
  }
  return true;
}

bool ValidateMutationState(BinaryReader& reader, const GraphDatabase& db,
                           uint64_t* epoch, size_t* num_tombstones,
                           std::string* error, SnapshotErrorKind* kind) {
  uint64_t stamped_epoch = 0, count = 0;
  if (!ReadMutationEpoch(reader, &stamped_epoch, error, kind)) return false;
  if (!reader.ReadU64(&count)) {
    SetError(error, "mutation-state section is truncated");
    SetKind(kind, SnapshotErrorKind::kCorrupt);
    return false;
  }
  // Well-formedness first (the corruption-sweep contract: a damaged id is
  // rejected as such even when the comparison below would also fail), then
  // equality with the database's live state.
  if (count > db.graphs.size()) {
    SetError(error, "mutation-state section: more tombstones than graphs");
    SetKind(kind, SnapshotErrorKind::kCorrupt);
    return false;
  }
  uint32_t previous = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t id = 0;
    if (!reader.ReadU32(&id)) {
      SetError(error, "mutation-state section is truncated");
      SetKind(kind, SnapshotErrorKind::kCorrupt);
      return false;
    }
    if (id >= db.graphs.size()) {
      SetError(error, "mutation-state section: tombstone id out of range");
      SetKind(kind, SnapshotErrorKind::kCorrupt);
      return false;
    }
    if (i > 0 && id <= previous) {
      SetError(error,
               "mutation-state section: tombstone ids not strictly ascending");
      SetKind(kind, SnapshotErrorKind::kCorrupt);
      return false;
    }
    previous = id;
    if (i >= db.tombstones.size() || db.tombstones[i] != id) {
      SetError(error,
               "snapshot was taken at a different mutation state than the "
               "database (tombstones differ)");
      SetKind(kind, SnapshotErrorKind::kDatasetDivergence);
      return false;
    }
  }
  if (count != db.tombstones.size() || stamped_epoch != db.mutation_epoch) {
    SetError(error,
             "snapshot was taken at a different mutation state than the "
             "database (epoch or tombstone count differs)");
    SetKind(kind, SnapshotErrorKind::kDatasetDivergence);
    return false;
  }
  if (epoch != nullptr) *epoch = stamped_epoch;
  if (num_tombstones != nullptr) *num_tombstones = count;
  return true;
}

}  // namespace snapshot
}  // namespace igq
