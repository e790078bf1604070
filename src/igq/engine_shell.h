// The engine-independent shell around a query cache: warm-start snapshot
// save/load (docs/FORMATS.md) and dataset-mutation apply. QueryEngine and
// ConcurrentQueryEngine differ here only in their cache type and the
// snapshot section that carries it, so both engines' SaveSnapshot,
// LoadSnapshot and ApplyMutation are thin calls into these templates,
// instantiated for QueryCache and ShardedQueryCache.
#ifndef IGQ_IGQ_ENGINE_SHELL_H_
#define IGQ_IGQ_ENGINE_SHELL_H_

#include <cstdint>
#include <iosfwd>
#include <string>

#include "igq/engine.h"
#include "igq/mutation.h"
#include "methods/method.h"

namespace igq {

/// The snapshot section holding an engine's cache state, and the name
/// error messages give it ("cache", "sharded-cache").
struct CacheSection {
  uint32_t id;
  const char* name;
};

/// Writes a snapshot: header, `cache` under `section`, the method index
/// when the method supports persistence (Method::SaveIndex), the mutation
/// state once the dataset has ever mutated, end marker. Returns false on a
/// serialization or stream failure, filling `error` if non-null.
template <typename Cache>
bool SaveEngineSnapshot(std::ostream& out, const GraphDatabase& db,
                        const Method& method, const Cache& cache,
                        CacheSection section, std::string* error);

/// Restores a snapshot written by SaveEngineSnapshot. Every section is
/// checksum-verified and the mutation state validated against `db` before
/// anything loads; then the cache section loads into `fresh_cache`, a
/// newly constructed cache the caller swaps in only on success, and the
/// method index, if present, into `method`. On failure `error` and
/// `info->error_kind` say why. On success every `info` field is filled.
template <typename Cache>
bool LoadEngineSnapshot(std::istream& in, const GraphDatabase& db,
                        Method& method, Cache& fresh_cache,
                        CacheSection section, std::string* error,
                        SnapshotLoadInfo* info);

/// Applies one mutation end to end: WAL append first when `wal` is
/// attached (a failed append refuses the mutation), then the database,
/// then the method — incremental hooks, full Build() fallback — then the
/// cache, whose answers are patched rather than flushed. Removing a graph
/// that is not live is a no-op and is never logged. The caller provides
/// any write exclusion against concurrent queries.
template <typename Cache>
MutationResult ApplyEngineMutation(GraphDatabase& db, Method& method,
                                   Cache& cache, durability::WalWriter* wal,
                                   const GraphMutation& mutation);

}  // namespace igq

#endif  // IGQ_IGQ_ENGINE_SHELL_H_
