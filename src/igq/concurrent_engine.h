// ConcurrentQueryEngine — the sharded configuration of the iGQ engine
// (engine.h): the query cache runs IgqOptions::cache_shards shards, so
// probes from many client streams proceed in parallel, and the host filter
// runs only after an exact-hit lookup misses, so a repeat costs one
// canonicalization plus one hash lookup. Everything else — the pipeline,
// threading model, snapshots, and mutations — is QueryEngine's.
#ifndef IGQ_IGQ_CONCURRENT_ENGINE_H_
#define IGQ_IGQ_CONCURRENT_ENGINE_H_

#include "igq/engine.h"

namespace igq {

/// iGQ over any host Method with a sharded cache, for many concurrent
/// client streams.
class ConcurrentQueryEngine : public QueryEngine {
 public:
  /// As QueryEngine's constructor, except that `options.cache_shards` is
  /// kept (after ValidatedIgqOptions).
  ConcurrentQueryEngine(const GraphDatabase& db, Method* method,
                        const IgqOptions& options)
      : QueryEngine(db, method, options, /*sharded=*/true) {}
};

}  // namespace igq

#endif  // IGQ_IGQ_CONCURRENT_ENGINE_H_
