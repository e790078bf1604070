// The shell around the query cache: warm-start snapshot save/load
// (docs/FORMATS.md) and dataset-mutation apply. QueryEngine's SaveSnapshot,
// LoadSnapshot and ApplyMutation are thin calls into these functions, which
// keep the file formats and the mutation sequence out of the query pipeline.
#ifndef IGQ_IGQ_ENGINE_SHELL_H_
#define IGQ_IGQ_ENGINE_SHELL_H_

#include <iosfwd>
#include <string>

#include "igq/engine.h"
#include "igq/mutation.h"
#include "igq/sharded_cache.h"
#include "methods/method.h"

namespace igq {

/// Writes a snapshot: header, the cache section, the method index when the
/// method supports persistence (Method::SaveIndex), the mutation state once
/// the dataset has ever mutated, end marker. Returns false on a
/// serialization or stream failure, filling `error` if non-null.
bool SaveEngineSnapshot(std::ostream& out, const GraphDatabase& db,
                        const Method& method, const ShardedQueryCache& cache,
                        std::string* error);

/// Restores a snapshot written by SaveEngineSnapshot, or one whose cache
/// state sits in the older one-shard section (loaded only into a one-shard
/// cache). Every section is checksum-verified and the mutation state
/// validated against `db` before anything loads; then the cache section
/// loads into `fresh_cache`, a newly constructed cache the caller swaps in
/// only on success, and the method index, if present, into `method`. On
/// failure `error` and `info->error_kind` say why. On success every `info`
/// field is filled.
bool LoadEngineSnapshot(std::istream& in, const GraphDatabase& db,
                        Method& method, ShardedQueryCache& fresh_cache,
                        std::string* error, SnapshotLoadInfo* info);

/// Applies one mutation end to end: WAL append first when `wal` is
/// attached (a failed append refuses the mutation), then the database,
/// then the method — incremental hooks, full Build() fallback — then the
/// cache, whose answers are patched rather than flushed. Removing a graph
/// that is not live is a no-op and is never logged. The caller provides
/// any write exclusion against concurrent queries.
MutationResult ApplyEngineMutation(GraphDatabase& db, Method& method,
                                   ShardedQueryCache& cache,
                                   durability::WalWriter* wal,
                                   const GraphMutation& mutation);

}  // namespace igq

#endif  // IGQ_IGQ_ENGINE_SHELL_H_
