// QueryEngine's members around the query pipeline (engine.cc): warm-start
// snapshot save/load (docs/FORMATS.md) and dataset-mutation apply, kept
// here so the file formats and the mutation sequence stay out of the
// pipeline's file.
#include "igq/engine.h"

#include <sstream>

#include "durability/wal.h"
#include "snapshot/mutation_state.h"
#include "snapshot/serializer.h"
#include "snapshot/snapshot.h"

namespace igq {
namespace {

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

}  // namespace

bool QueryEngine::SaveSnapshot(std::ostream& out, std::string* error) const {
  snapshot::WriteSnapshotHeader(out);

  std::ostringstream cache_payload;
  {
    snapshot::BinaryWriter writer(cache_payload);
    cache_->Save(writer, db_->graphs.size(),
                 snapshot::DatasetFingerprint(db_->graphs));
    if (!writer.ok()) {
      SetError(error, "failed to serialize cache state");
      return false;
    }
  }
  snapshot::WriteSection(out, snapshot::kSectionCache,
                         std::move(cache_payload).str());

  // The method index rides along when the method supports persistence; the
  // method name prefixes the payload so a mismatched load is caught early.
  std::ostringstream index_payload;
  {
    snapshot::BinaryWriter writer(index_payload);
    writer.WriteString(method_->Name());
  }
  if (method_->SaveIndex(index_payload)) {
    snapshot::WriteSection(out, snapshot::kSectionMethodIndex,
                           std::move(index_payload).str());
  }

  // Mutation state rides along once the dataset has ever mutated; a
  // snapshot without it is of the never-mutated dataset.
  if (db_->mutation_epoch != 0) {
    std::ostringstream mutation_payload;
    snapshot::BinaryWriter writer(mutation_payload);
    snapshot::WriteMutationState(writer, *db_);
    snapshot::WriteSection(out, snapshot::kSectionMutationState,
                           std::move(mutation_payload).str());
  }

  snapshot::WriteSnapshotEnd(out);
  if (!out.good()) {
    SetError(error, "stream failure while writing snapshot");
    return false;
  }
  return true;
}

bool QueryEngine::LoadSnapshot(std::istream& in, std::string* error,
                               SnapshotLoadInfo* info) {
  if (info != nullptr) *info = SnapshotLoadInfo{};
  // Each failure path classifies itself (SnapshotErrorKind) so callers can
  // tell damaged bytes, version skew, and dataset divergence apart.
  snapshot::SnapshotErrorKind kind = snapshot::SnapshotErrorKind::kNone;
  auto classify = [&](snapshot::SnapshotErrorKind value) {
    if (info != nullptr) info->error_kind = value;
    return false;  // so failure paths read `return classify(...)`
  };

  // Decode and checksum-verify every section before touching engine state,
  // so a file corrupted anywhere is rejected without side effects.
  snapshot::SnapshotSections sections;
  if (!snapshot::ReadSnapshot(in, &sections, error, &kind)) {
    return classify(kind);
  }
  if (!sections.cache) {
    SetError(error, "snapshot has no cache section");
    return classify(snapshot::SnapshotErrorKind::kCorrupt);
  }

  // Mutation-state validation (validate-don't-apply: the engine holds the
  // database const, so the section must MATCH the database rather than
  // change it). A snapshot without the section can only be restored over a
  // never-mutated database.
  uint64_t mutation_epoch = 0;
  size_t num_tombstones = 0;
  if (sections.mutation_state) {
    const uint64_t mutation_payload_size = sections.mutation_state->size();
    std::istringstream mutation_stream(std::move(*sections.mutation_state));
    snapshot::BinaryReader mutation_reader(mutation_stream);
    // Length fields inside the section cannot claim more than the section
    // itself holds — forged counts fail before allocating.
    mutation_reader.LimitRemainingBytes(mutation_payload_size);
    if (!snapshot::ValidateMutationState(mutation_reader, *db_,
                                         &mutation_epoch, &num_tombstones,
                                         error, &kind)) {
      return classify(kind);
    }
    if (mutation_stream.peek() != std::char_traits<char>::eof()) {
      SetError(error,
               "corrupt snapshot: unread bytes in the mutation-state section");
      return classify(snapshot::SnapshotErrorKind::kCorrupt);
    }
  } else if (db_->mutation_epoch != 0) {
    SetError(error,
             "snapshot carries no mutation state but the database has "
             "mutated since construction");
    return classify(snapshot::SnapshotErrorKind::kDatasetDivergence);
  }

  // Validate the method-index framing before committing any state, so a
  // rejected load leaves both the cache and the method untouched.
  std::istringstream index_stream;
  if (sections.method_index) {
    index_stream.str(std::move(*sections.method_index));
    std::string method_name;
    {
      snapshot::BinaryReader name_reader(index_stream);
      if (!name_reader.ReadString(&method_name)) {
        SetError(error, "method-index section is malformed");
        return classify(snapshot::SnapshotErrorKind::kCorrupt);
      }
    }
    if (method_name != method_->Name()) {
      SetError(error, "snapshot index was built by method '" + method_name +
                          "', engine runs '" + method_->Name() + "'");
      return classify(snapshot::SnapshotErrorKind::kDatasetDivergence);
    }
  }

  // The cache loads into a fresh object, swapped in only after the method
  // index (if any) also loads, so every failure path leaves the engine —
  // cache and method alike — exactly as it was.
  auto fresh_cache =
      std::make_unique<ShardedQueryCache>(options_, db_->graphs.size());
  const uint64_t cache_payload_size = sections.cache->size();
  std::istringstream cache_stream(std::move(*sections.cache));
  snapshot::BinaryReader cache_reader(cache_stream);
  // Same forged-length arming as the mutation section above.
  cache_reader.LimitRemainingBytes(cache_payload_size);
  if (!fresh_cache->Load(cache_reader, db_->graphs.size(),
                         snapshot::DatasetFingerprint(db_->graphs))) {
    SetError(error,
             "cache section rejected (malformed, saved under different iGQ "
             "options, or over a different dataset)");
    // The payload passed its checksum, so the bytes are as written — the
    // mismatch is with this engine's dataset or configuration.
    return classify(snapshot::SnapshotErrorKind::kDatasetDivergence);
  }
  // An under-counted record count would leave unread bytes behind — the
  // same silent data loss the container guards against everywhere else.
  if (cache_stream.peek() != std::char_traits<char>::eof()) {
    SetError(error, "corrupt snapshot: unread bytes in the cache section");
    return classify(snapshot::SnapshotErrorKind::kCorrupt);
  }

  if (sections.method_index) {
    // Method::LoadIndex implementations commit only on success, so a
    // false here leaves the method's existing index intact.
    if (!method_->LoadIndex(*db_, index_stream)) {
      SetError(error, "method '" + method_->Name() +
                          "' rejected its index payload (incompatible "
                          "configuration or malformed bytes)");
      return classify(snapshot::SnapshotErrorKind::kDatasetDivergence);
    }
    // Fail-closed on unread bytes. LoadIndex has already committed by this
    // point, but the index it installed is self-consistent and validated
    // against db — the caller's recovery path (Build()) simply overwrites
    // it; the engine's cache is still untouched.
    if (index_stream.peek() != std::char_traits<char>::eof()) {
      SetError(error,
               "corrupt snapshot: unread bytes in the method-index section");
      return classify(snapshot::SnapshotErrorKind::kCorrupt);
    }
    if (info != nullptr) info->method_index_restored = true;
  }

  if (info != nullptr) {
    info->cached_queries = fresh_cache->size();
    info->mutation_epoch = mutation_epoch;
    info->tombstones = num_tombstones;
  }
  cache_ = std::move(fresh_cache);
  return true;
}

MutationResult QueryEngine::ApplyMutation(GraphDatabase& db,
                                          const GraphMutation& mutation) {
  if (&db != db_) return {};  // not the database this engine serves
  // Writer side of the mutation gate: waits for in-flight queries to drain
  // and blocks new ones for the duration of the mutation, which is what
  // makes the db.graphs reallocation (and the method's index surgery)
  // safe. The WAL append sits inside the exclusive section too: the gate is
  // what serializes WAL writes, so record order on disk IS apply order.
  std::unique_lock<std::shared_timed_mutex> mutation_gate(mutation_mutex_);
  MutationResult result;
  // The no-op check runs BEFORE the WAL append, so every logged record
  // corresponds to exactly one applied mutation — one epoch increment —
  // and a replayed log passes through every epoch (durability/wal.h).
  if (mutation.kind == MutationKind::kRemoveGraph) {
    result.id = mutation.id;
    if (!db.IsLive(mutation.id)) return result;  // no-op: never logged
  }
  // Log-before-apply: a mutation that cannot be made durable is refused
  // outright rather than applied and lost on the next crash.
  if (wal_ != nullptr &&
      !wal_->Append(mutation, db.mutation_epoch + 1, &result.wal_sequence)) {
    result.wal_failed = true;
    return result;
  }
  if (mutation.kind == MutationKind::kAddGraph) {
    result.id = db.AddGraph(mutation.graph);
    result.applied = true;
    result.incremental = method_->OnAddGraph(db, result.id);
    if (!result.incremental) method_->Build(db);
    cache_->ApplyGraphAdded(db.graphs[result.id], result.id,
                            method_->Direction());
  } else {
    db.RemoveGraph(mutation.id);  // cannot fail: IsLive held above
    result.applied = true;
    result.incremental = method_->OnRemoveGraph(db, mutation.id);
    if (!result.incremental) method_->Build(db);
    cache_->ApplyGraphRemoved(mutation.id);
  }
  result.epoch = db.mutation_epoch;
  return result;
}

}  // namespace igq
