// The candidate-pruning core of the engine's pipeline (§4.2–§4.4): given
// the probe's guarantee-side and intersect-side cached entries, splits the
// host method's candidate set into guaranteed answers and the subset still
// needing verification.
//
// Since the IdSet rewrite the whole split is set algebra over sorted-unique
// id spans and the cached entries' adaptive answer sets: the guarantee side
// is one per-entry membership Partition feeding the credit callback, one
// union, and one difference; the intersect side is an in-place chain of
// Partitions. All intermediates live in a PruneScratch, so a steady-state
// prune performs zero heap allocations (gated by `bench_micro_core
// --smoke`); tests/idset_test.cc locks the outcome and the credit sequence
// to a frozen copy of the pre-IdSet scalar implementation.
#ifndef IGQ_IGQ_PRUNING_H_
#define IGQ_IGQ_PRUNING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/function_ref.h"
#include "common/id_set.h"
#include "common/log_space.h"
#include "graph/graph.h"
#include "igq/query_record.h"
#include "methods/method.h"

namespace igq {

namespace serving {
class QueryControl;
}  // namespace serving

/// Which probe side a credited entry came from (§4.4 role inversion: for
/// subgraph queries the guarantee side is Isub(g), for supergraph queries
/// it is Isuper(g)).
enum class PruneSide { kGuarantee, kIntersect };

/// What PruneCandidates decided.
struct PruneOutcome {
  /// Candidates proven answers by a guarantee-side entry (formulas (3)–(4)).
  /// They skip verification entirely.
  IdSet guaranteed;
  /// Candidates still needing verification (CS_igq(g), formula (5)),
  /// sorted ascending — the order the host methods emit candidates in.
  std::vector<GraphId> remaining;
  /// §4.3 case 2: an intersect-side entry with an empty answer proved the
  /// final answer empty; `remaining` is cleared.
  bool empty_answer_shortcut = false;
};

/// Reusable buffers for PruneCandidates. The returned outcome lives inside
/// the scratch, so it stays valid until the same scratch prunes again —
/// one query at a time per thread, which is exactly how the engines call
/// it (ThreadLocal(), mirroring MatchContext / IdSetScratch).
class PruneScratch {
 public:
  PruneOutcome outcome;
  std::vector<GraphId> removed;
  std::vector<GraphId> unioned;
  std::vector<GraphId> kept;
  std::vector<GraphId> normalized;  // unsorted-candidates fallback only

  static PruneScratch& ThreadLocal();
};

/// Runs the guarantee-side subtraction then the intersect-side filtering
/// over `candidates`, which should be sorted ascending and duplicate-free —
/// every host method emits candidates that way (the Method::Filter
/// contract), and the fast path assumes it. Unsorted input from an
/// out-of-tree method is detected in one pass and normalized into scratch
/// first, so answers stay correct either way. `credit`
/// is invoked once per cached entry consulted — identified by its side and
/// index into the corresponding span — with the candidate ids that entry
/// pruned (possibly none, always ascending); the span points into scratch
/// storage and is only valid during the callback. The caller translates it
/// into one ShardedQueryCache::CreditHit per entry. Entries after an
/// empty-answer shortcut are not consulted and earn no credit, exactly as
/// before the IdSet rewrite. `credit` is a non-owning FunctionRef: a lambda
/// bound at the call site is fine, it is only invoked during this call.
///
/// The returned reference points into `scratch` and is invalidated by the
/// next PruneCandidates call on the same scratch.
///
/// `control` (optional) is the query's budget control: it is polled between
/// cached entries, and a stop abandons the remaining entries — the partial
/// outcome still only states true facts (entries already consulted), so the
/// degradation ladder may use `guaranteed` from a stopped prune, but later
/// entries earn no credit and `remaining` must not be verified. Callers
/// check control->stopped() afterwards.
const PruneOutcome& PruneCandidates(
    std::span<const GraphId> candidates,
    std::span<const CachedQuery* const> guarantee,
    std::span<const CachedQuery* const> intersect,
    FunctionRef<void(PruneSide side, size_t index,
                     std::span<const GraphId> removed)>
        credit,
    PruneScratch& scratch, serving::QueryControl* control = nullptr);

/// Formula (4) answer assembly: answer = verified ∪ outcome.guaranteed,
/// both sorted (verified inherits `remaining`'s order) and disjoint by
/// construction. `scratch` must be the one the outcome lives in; `answer`
/// is cleared.
void AssembleAnswer(const PruneOutcome& outcome,
                    std::span<const GraphId> verified, PruneScratch& scratch,
                    std::vector<GraphId>* answer);

/// Sum of §5.1 analytic costs of the verification tests `ids` would
/// require; pattern and target roles follow the query direction (§4.4).
LogValue SumIsomorphismCosts(const GraphDatabase& db, QueryDirection direction,
                             size_t query_nodes, std::span<const GraphId> ids);

}  // namespace igq

#endif  // IGQ_IGQ_PRUNING_H_
