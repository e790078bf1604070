// VF2-style subgraph-isomorphism matcher (Cordella et al., TPAMI 2004) —
// one-shot oracle code for the tests and bench_micro_core, not part of the
// engine (library igq_oracle). It is a thin adapter over
// isomorphism/match_core.h: each call compiles a MatchPlan and builds a CSR
// target view into the calling thread's MatchContext scratch, so repeated
// calls are allocation-free after warm-up. The methods and the cache
// indexes, which verify one query against many targets, use the core
// directly (compile the plan once, then ContainsIn per candidate).
#ifndef IGQ_TESTS_ORACLE_VF2_H_
#define IGQ_TESTS_ORACLE_VF2_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.h"
#include "isomorphism/match_core.h"

namespace igq {

/// VF2-based matcher with first-match early exit.
class Vf2Matcher {
 public:
  /// True iff `pattern` is subgraph-isomorphic to `target` (paper
  /// Definition 2: an injective, label-preserving mapping under which every
  /// pattern edge maps to a target edge). When `stats` is non-null, the
  /// search's metrics are ACCUMULATED into it.
  bool Contains(const Graph& pattern, const Graph& target,
                MatchStats* stats = nullptr) const;

  /// Returns one embedding (pattern vertex -> target vertex) if any exists.
  static std::optional<std::vector<VertexId>> FindEmbedding(
      const Graph& pattern, const Graph& target, MatchStats* stats = nullptr);

  /// As FindEmbedding, but target vertices with allowed[v] == false are
  /// excluded from the mapping. `allowed` may be nullptr (no restriction).
  static std::optional<std::vector<VertexId>> FindEmbeddingRestricted(
      const Graph& pattern, const Graph& target,
      const std::vector<bool>* allowed, MatchStats* stats = nullptr);

  /// Counts embeddings, stopping at `limit` (0 = count all). Used by tests.
  /// Search metrics flow exclusively through the MatchStats out-parameters
  /// (accumulated, never reset — one MatchStats can span a batch); the old
  /// LastSearchStates() thread-local side-channel is gone.
  static uint64_t CountEmbeddings(const Graph& pattern, const Graph& target,
                                  uint64_t limit = 0,
                                  MatchStats* stats = nullptr);
};

}  // namespace igq

#endif  // IGQ_TESTS_ORACLE_VF2_H_
