// Cached query graphs and their §5.1 replacement metadata.
#ifndef IGQ_IGQ_QUERY_RECORD_H_
#define IGQ_IGQ_QUERY_RECORD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/id_set.h"
#include "common/log_space.h"
#include "graph/graph.h"
#include "methods/method.h"

namespace igq {

struct ProbeData;  // igq/probe_index.h

/// Replacement-policy statistics for one cached query graph g (§5.1):
///   H(g) hits, M(g) queries processed since insertion, R(g) candidates
///   removed thanks to g, C(g) accumulated analytic cost of the tests
///   avoided. Utility U(g) = C(g) / M(g).
struct QueryGraphMetadata {
  uint64_t hits = 0;
  uint64_t inserted_at = 0;
  uint64_t removed_candidates = 0;
  LogValue cost_saved = LogValue::Zero();
  /// Query-counter value at the most recent hit (for the LRU ablation).
  uint64_t last_hit_at = 0;

  /// M(g) given the engine's current global query counter.
  uint64_t QueriesSinceInsertion(uint64_t now) const {
    return now > inserted_at ? now - inserted_at : 1;
  }

  /// U(g) = C(g)/M(g) in log space.
  LogValue Utility(uint64_t now) const {
    return cost_saved /
           LogValue::FromLinear(static_cast<double>(QueriesSinceInsertion(now)));
  }

  /// One hit at query-counter value `now` that removed `removed` candidates
  /// worth `cost`: H += 1, R += removed, C += cost. Every §5.1 credit, of
  /// an exact hit or of a prune, goes through here.
  void Credit(uint64_t now, uint64_t removed, LogValue cost) {
    ++hits;
    last_hit_at = now;
    removed_candidates += removed;
    cost_saved += cost;
  }
};

/// One entry of Igraphs: the query graph, its answer set (ids into the
/// dataset; semantics depend on the engine's query type), and metadata.
/// The answer is an adaptive IdSet (sorted array when sparse, bitmap when
/// dense) over the dataset universe — the pruning core probes it with set
/// kernels instead of per-candidate binary searches. On disk it is always
/// a sorted id array (docs/FORMATS.md); the representation is chosen at
/// insert/load time via IdSet::FromIds / FromSortedUnique.
struct CachedQuery {
  uint64_t id = 0;
  Graph graph;
  /// GraphCanonicalCode(graph): the isomorphism-complete key the cache's
  /// exact-hit map uses, so an exact hit is one hash lookup instead of a
  /// probe plus isomorphism test. Derived data: not persisted, recomputed
  /// from `graph` on snapshot load.
  std::string canonical;
  IdSet answer;
  QueryGraphMetadata meta;
  /// What the probe index needs of `graph` (its path features, CSR view and
  /// search plan), built once when the entry is created — from the
  /// features its query was probed with, or from `graph` on snapshot load —
  /// and shared, never rebuilt, by every flush that keeps the entry. Derived
  /// data: not persisted.
  std::shared_ptr<const ProbeData> probe;
};

}  // namespace igq

#endif  // IGQ_IGQ_QUERY_RECORD_H_
