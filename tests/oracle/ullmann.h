// Ullmann's subgraph-isomorphism algorithm (J.ACM 1976) — the classic
// baseline the paper cites as the ancestor of most matchers. Oracle code,
// not part of the engine (library igq_oracle): the tests and
// bench_micro_core check the matching core and VF2 against it. It reads
// Graph adjacency directly (its refinement loop only iterates neighbors,
// so a CSR build would buy nothing) with its candidate matrices carved
// from a per-thread arena, so repeated calls are allocation-free after
// warm-up.
#ifndef IGQ_TESTS_ORACLE_ULLMANN_H_
#define IGQ_TESTS_ORACLE_ULLMANN_H_

#include "graph/graph.h"
#include "isomorphism/match_core.h"

namespace igq {

/// Ullmann matcher with the standard refinement procedure over a boolean
/// candidate matrix (bitset rows). MatchStats::states counts search states
/// entered, one per tentative row assignment plus one per solution.
class UllmannMatcher {
 public:
  /// True iff `pattern` is subgraph-isomorphic to `target`, as
  /// Vf2Matcher::Contains. When `stats` is non-null, the search's metrics
  /// are ACCUMULATED into it.
  bool Contains(const Graph& pattern, const Graph& target,
                MatchStats* stats = nullptr) const;
};

}  // namespace igq

#endif  // IGQ_TESTS_ORACLE_ULLMANN_H_
