// The zero-allocation subgraph-isomorphism core.
//
// The classic matcher re-derived its variable ordering and re-allocated all
// search state for every (pattern, target) pair. This core splits that work
// into pieces with deliberately different lifetimes:
//
//   * MatchPlan — the per-QUERY compile step: variable order, parents, the
//     per-depth adjacency-check lists and degree/label signatures, plus a
//     CSR view of the pattern. Compiled once, reused across every candidate
//     target in a batch (and, for dataset/cached graphs, precompiled once
//     at index-build time and reused across all queries).
//   * a TargetView — how the search reads the target. Two models satisfy
//     the concept:
//       - CsrGraphView (graph/csr_view.h): flat adjacency, label buckets
//         for O(1) seed candidates, adaptive edge oracle. Worth building
//         when the view is REUSED — dataset graphs verified by every
//         query, cached graphs probed on every cache lookup.
//       - GraphRef (below): a free wrapper over Graph for one-shot pairs,
//         where even an O(n+m) view build would dwarf a short search.
//   * MatchContext — the per-THREAD scratch arena: the mapping, the used
//     set and the used-neighbor counters as uint32_t epoch stamps (no
//     vector<bool> clears), and reusable plan/view buffers. One context per
//     VerifyPool worker (via ThreadLocal()), reused across queries, so the
//     inner loop never touches the allocator.
//
// Enumeration takes a templated visitor instead of a std::function so the
// per-embedding callback inlines into the search.
//
// Thread-safety: MatchPlan and target views are immutable during a search
// and may be shared across threads; MatchContext is strictly single-thread.
#ifndef IGQ_ISOMORPHISM_MATCH_CORE_H_
#define IGQ_ISOMORPHISM_MATCH_CORE_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/csr_view.h"
#include "graph/graph.h"

namespace igq {

namespace serving {
class QueryControl;
}  // namespace serving

/// Sentinel for "no vertex" in plans and mappings.
inline constexpr VertexId kNoVertex = UINT32_MAX;

/// How many recursion states the search explores between budget polls when
/// a serving::QueryControl is installed on the context. The poll reads the
/// cancel flag and the steady clock, so this amortizes both to ~1/1024 of a
/// state's cost; without an installed control the per-state overhead is one
/// counter increment and a predictable branch (pinned by the lifecycle
/// parity test and the bench_micro_core zero-allocation gate).
inline constexpr uint32_t kBudgetCheckInterval = 1024;

/// Explicit out-parameter for search metrics. Replaces the old thread_local
/// LastSearchStates() side-channel, which silently misattributed states when
/// VerifyPool workers interleaved queries on one thread.
struct MatchStats {
  /// Recursive search states entered (the paper's #iso-test cost proxy).
  uint64_t states = 0;
  /// Embeddings reported to the visitor.
  uint64_t embeddings = 0;
  /// MatchPlan::Compile invocations attributed to this search.
  uint64_t plan_compiles = 0;

  void Reset() { *this = MatchStats{}; }
  MatchStats& operator+=(const MatchStats& other) {
    states += other.states;
    embeddings += other.embeddings;
    plan_compiles += other.plan_compiles;
    return *this;
  }
};

/// Zero-cost TargetView over a Graph, for one-shot (pattern, target) pairs:
/// no CSR build, no label buckets (roots fall back to a label-checked
/// vertex scan, exactly the classic matcher's behavior), HasEdge by binary
/// search of the smaller sorted adjacency list.
class GraphRef {
 public:
  static constexpr bool kHasLabelIndex = false;

  explicit GraphRef(const Graph& g) : g_(&g) {}

  size_t NumVertices() const { return g_->NumVertices(); }
  size_t NumEdges() const { return g_->NumEdges(); }
  Label label(VertexId v) const { return g_->label(v); }
  uint32_t Degree(VertexId v) const {
    return static_cast<uint32_t>(g_->Degree(v));
  }
  std::span<const VertexId> Neighbors(VertexId v) const {
    const std::vector<VertexId>& adj = g_->Neighbors(v);
    return {adj.data(), adj.size()};
  }
  bool HasEdge(VertexId u, VertexId v) const { return g_->HasEdge(u, v); }

 private:
  const Graph* g_;
};

/// A compiled search plan for one pattern graph: the most-constrained-first
/// BFS variable order of the classic matcher, plus everything Feasible()
/// needs, precomputed per depth so the inner loop does no discovery work:
/// the label/degree signature, the parent whose image generates candidates,
/// and the exact list of already-mapped pattern neighbors to adjacency-check
/// (the old code rescanned all neighbors and skipped unmapped ones).
class MatchPlan {
 public:
  /// Compiles the plan for `pattern` in place, reusing buffer capacity.
  void Compile(const Graph& pattern);

  size_t num_vertices() const { return order_.size(); }
  size_t num_edges() const { return num_edges_; }
  bool empty() const { return order_.empty(); }

  /// CSR view of the pattern (sorted-range oracle; the core only iterates
  /// pattern neighbors, it never probes pattern edges).
  const CsrGraphView& pattern() const { return pattern_; }

  VertexId vertex_at(size_t depth) const { return order_[depth]; }
  /// Pattern vertex mapped before `depth` and adjacent to vertex_at(depth),
  /// or kNoVertex when that vertex starts a new component.
  VertexId parent_of(size_t depth) const { return parent_[depth]; }
  Label label_at(size_t depth) const { return label_[depth]; }
  uint32_t degree_at(size_t depth) const { return degree_[depth]; }
  /// Number of pattern neighbors of vertex_at(depth) not yet mapped at
  /// `depth` — the lookahead requirement.
  uint32_t unmapped_neighbors_at(size_t depth) const {
    return degree_[depth] -
           (mapped_offsets_[depth + 1] - mapped_offsets_[depth]);
  }
  /// Pattern neighbors of vertex_at(depth) already mapped at `depth`; their
  /// images must all be target-adjacent to the candidate.
  std::span<const VertexId> mapped_neighbors_at(size_t depth) const {
    return {mapped_neighbors_.data() + mapped_offsets_[depth],
            mapped_neighbors_.data() + mapped_offsets_[depth + 1]};
  }

  /// Heap footprint (capacity-based; precompiled plan stores report this
  /// through the owning index's MemoryBytes).
  size_t MemoryBytes() const;

 private:
  CsrGraphView pattern_;
  size_t num_edges_ = 0;
  std::vector<VertexId> order_;
  std::vector<VertexId> parent_;
  std::vector<Label> label_;
  std::vector<uint32_t> degree_;
  std::vector<uint32_t> mapped_offsets_;   // per depth, into mapped_neighbors_
  std::vector<VertexId> mapped_neighbors_;
  std::vector<uint32_t> depth_of_;         // scratch: inverse of order_
};

/// Per-thread scratch arena for searches. Obtain via ThreadLocal() — each
/// VerifyPool worker is a persistent thread, so its context (and therefore
/// all search state, the scratch plan and the scratch target view) is
/// reused across queries and batches without reallocation.
class MatchContext {
 public:
  MatchContext() = default;
  MatchContext(const MatchContext&) = delete;
  MatchContext& operator=(const MatchContext&) = delete;

  /// The calling thread's context.
  static MatchContext& ThreadLocal();

  /// Reusable target-view buffer (for call sites that build one view and
  /// probe it with several patterns, e.g. the Isuper probe's query view).
  CsrGraphView& scratch_target() { return scratch_target_; }
  /// Reusable plan buffer (for call sites whose pattern varies per
  /// candidate while the target is fixed — the supergraph direction).
  MatchPlan& scratch_plan() { return scratch_plan_; }

  // --- Search-internal state below. Public for the templated enumerator
  // --- and the ScopedAllowed helper; not part of the stable API.

  /// Starts a new search: advances the used-set epoch (O(1) instead of
  /// clearing), sizes the arrays, and finalizes a pending allowed set.
  template <typename TargetView>
  void BeginSearch(size_t pattern_size, const TargetView& target) {
    const size_t n = target.NumVertices();
    if (++epoch_ == 0) {
      std::fill(used_epoch_.begin(), used_epoch_.end(), 0);
      std::fill(used_neighbor_epoch_.begin(), used_neighbor_epoch_.end(), 0);
      epoch_ = 1;
    }
    if (used_epoch_.size() < n) {
      used_epoch_.resize(n, 0);
      used_neighbor_epoch_.resize(n, 0);
      used_neighbor_count_.resize(n, 0);
    }
    mapping_.assign(pattern_size, kNoVertex);

    // Finalize a pending allowed set: compute, for every allowed vertex,
    // how many of its neighbors are allowed. Used vertices are always
    // allowed, so AllowedDegree(x) - UsedNeighborCount(x) is the
    // free-allowed-neighbor count the lookahead rule needs.
    if (allowed_active_ && allowed_dirty_) {
      if (allowed_degree_.size() < n) allowed_degree_.resize(n, 0);
      for (VertexId v : allowed_list_) {
        uint32_t degree = 0;
        for (VertexId w : target.Neighbors(v)) degree += IsAllowed(w) ? 1 : 0;
        allowed_degree_[v] = degree;
      }
      allowed_dirty_ = false;
    }
  }

  bool IsUsed(VertexId x) const { return used_epoch_[x] == epoch_; }
  template <typename TargetView>
  void MarkUsed(const TargetView& target, VertexId x) {
    used_epoch_[x] = epoch_;
    for (VertexId xn : target.Neighbors(x)) BumpUsedNeighbors(xn, +1);
  }
  template <typename TargetView>
  void UnmarkUsed(const TargetView& target, VertexId x) {
    used_epoch_[x] = 0;
    for (VertexId xn : target.Neighbors(x)) BumpUsedNeighbors(xn, -1);
  }
  /// How many used vertices neighbor `x` — the O(1) replacement for the old
  /// per-candidate rescan of x's neighborhood in the lookahead rule.
  uint32_t UsedNeighborCount(VertexId x) const {
    return used_neighbor_epoch_[x] == epoch_ ? used_neighbor_count_[x] : 0;
  }

  bool allowed_active() const { return allowed_active_; }
  bool IsAllowed(VertexId x) const {
    return allowed_epoch_[x] == allowed_mark_;
  }
  /// Allowed neighbors of `x` (valid only while the allowed set is active);
  /// used vertices are always allowed, so AllowedDegree - UsedNeighborCount
  /// counts exactly the free allowed neighbors.
  uint32_t AllowedDegree(VertexId x) const { return allowed_degree_[x]; }

  /// pattern vertex -> target vertex mapping (kNoVertex when unmapped).
  std::vector<VertexId>& mapping() { return mapping_; }

  // --- Cooperative cancellation (serving/budget.h). A QueryControl is
  // --- installed per query via ScopedSearchControl; the searcher ticks
  // --- TickBudget() once per recursion state and the out-of-line
  // --- checkpoint charges the batch + polls flag/clock/caps.

  /// Amortized per-state budget checkpoint: returns true when the installed
  /// control says stop (always false when none is installed — the counter
  /// still runs but the checkpoint body exits before touching any atomic or
  /// the clock).
  bool TickBudget() {
    if (++states_since_check_ < kBudgetCheckInterval) return false;
    return BudgetCheckpoint();
  }

  /// True when the current search was unwound by a budget stop rather than
  /// by the visitor. While a stopped control is installed, every search
  /// result on this thread is garbage — see serving::QueryControl.
  bool search_stopped() const { return search_stopped_; }
  serving::QueryControl* search_control() const { return control_; }

 private:
  friend class ScopedAllowed;
  friend class ScopedSearchControl;

  bool BudgetCheckpoint();  // out-of-line: charges states, polls control

  void BumpUsedNeighbors(VertexId x, int32_t delta) {
    if (used_neighbor_epoch_[x] != epoch_) {
      used_neighbor_epoch_[x] = epoch_;
      used_neighbor_count_[x] = 0;
    }
    used_neighbor_count_[x] = static_cast<uint32_t>(
        static_cast<int32_t>(used_neighbor_count_[x]) + delta);
  }

  CsrGraphView scratch_target_;
  MatchPlan scratch_plan_;

  std::vector<VertexId> mapping_;
  uint32_t epoch_ = 0;
  std::vector<uint32_t> used_epoch_;
  std::vector<uint32_t> used_neighbor_epoch_;
  std::vector<uint32_t> used_neighbor_count_;

  bool allowed_active_ = false;
  bool allowed_dirty_ = false;
  uint32_t allowed_mark_ = 0;
  std::vector<uint32_t> allowed_epoch_;
  std::vector<uint32_t> allowed_degree_;
  std::vector<VertexId> allowed_list_;

  serving::QueryControl* control_ = nullptr;
  uint32_t states_since_check_ = 0;
  bool search_stopped_ = false;
};

/// RAII installation of a query's budget control onto a thread's context:
/// the engine installs it on the owning stream for the whole pipeline, and
/// VerifyPool installs it on each borrowed worker for the duration of its
/// claim loop. Restores the previous control (nesting-safe) and clears the
/// stop latch on both edges, so a stopped query can never bleed its stop
/// into the next query on this thread.
class ScopedSearchControl {
 public:
  ScopedSearchControl(MatchContext& ctx, serving::QueryControl* control)
      : ctx_(ctx), previous_(ctx.control_),
        previous_stopped_(ctx.search_stopped_) {
    ctx_.control_ = control;
    ctx_.search_stopped_ = false;
  }
  ~ScopedSearchControl() {
    ctx_.control_ = previous_;
    ctx_.search_stopped_ = previous_stopped_;
  }

  ScopedSearchControl(const ScopedSearchControl&) = delete;
  ScopedSearchControl& operator=(const ScopedSearchControl&) = delete;

 private:
  MatchContext& ctx_;
  serving::QueryControl* previous_;
  bool previous_stopped_;
};

/// RAII activation of a target-vertex restriction: only vertices passed to
/// Allow() may be mapped while the guard lives (the Grapes-style
/// connected-component verification). Deactivates on destruction, so a
/// stale restriction can never leak into the next search on this thread.
class ScopedAllowed {
 public:
  ScopedAllowed(MatchContext& ctx, size_t num_target_vertices) : ctx_(ctx) {
    ctx_.allowed_active_ = true;
    ctx_.allowed_dirty_ = true;
    if (++ctx_.allowed_mark_ == 0) {
      std::fill(ctx_.allowed_epoch_.begin(), ctx_.allowed_epoch_.end(), 0);
      ctx_.allowed_mark_ = 1;
    }
    if (ctx_.allowed_epoch_.size() < num_target_vertices) {
      ctx_.allowed_epoch_.resize(num_target_vertices, 0);
    }
    ctx_.allowed_list_.clear();
  }
  ~ScopedAllowed() { ctx_.allowed_active_ = false; }

  ScopedAllowed(const ScopedAllowed&) = delete;
  ScopedAllowed& operator=(const ScopedAllowed&) = delete;

  void Allow(VertexId v) {
    if (ctx_.allowed_epoch_[v] != ctx_.allowed_mark_) {
      ctx_.allowed_epoch_[v] = ctx_.allowed_mark_;
      ctx_.allowed_list_.push_back(v);
    }
  }

 private:
  MatchContext& ctx_;
};

namespace match_internal {

/// The recursive search, parameterized on the target view (CsrGraphView or
/// GraphRef) and on the visitor so the per-embedding callback inlines (the
/// old core paid a std::function indirection per embedding). Visitor:
/// bool(const std::vector<VertexId>& mapping) — return true to continue
/// enumerating, false to stop.
template <typename TargetView, typename Visitor>
class Searcher {
 public:
  Searcher(const MatchPlan& plan, const TargetView& target, MatchContext& ctx,
           MatchStats* stats, Visitor& visit)
      : plan_(plan), target_(target), ctx_(ctx), stats_(stats),
        visit_(visit) {}

  bool Run() {
    ctx_.BeginSearch(plan_.num_vertices(), target_);
    return Recurse(0);
  }

 private:
  bool Feasible(size_t depth, VertexId x) const {
    if (ctx_.IsUsed(x)) return false;
    if (ctx_.allowed_active() && !ctx_.IsAllowed(x)) return false;
    if (plan_.label_at(depth) != target_.label(x)) return false;
    const uint32_t target_degree = target_.Degree(x);
    if (target_degree < plan_.degree_at(depth)) return false;
    // Every already-mapped pattern neighbor must land on a target neighbor
    // of x. The plan precomputed exactly which neighbors are mapped here.
    const std::vector<VertexId>& mapping = ctx_.mapping();
    for (VertexId un : plan_.mapped_neighbors_at(depth)) {
      if (!target_.HasEdge(x, mapping[un])) return false;
    }
    // Lookahead: the still-unmapped pattern neighbors must fit among x's
    // free (and allowed) target neighbors — O(1) from the epoch-stamped
    // used-neighbor counters instead of rescanning x's neighborhood.
    const uint32_t free_neighbors =
        (ctx_.allowed_active() ? ctx_.AllowedDegree(x) : target_degree) -
        ctx_.UsedNeighborCount(x);
    return free_neighbors >= plan_.unmapped_neighbors_at(depth);
  }

  template <typename Range>
  bool Extend(size_t depth, const Range& candidates) {
    std::vector<VertexId>& mapping = ctx_.mapping();
    const VertexId u = plan_.vertex_at(depth);
    for (VertexId x : candidates) {
      if (!Feasible(depth, x)) continue;
      mapping[u] = x;
      ctx_.MarkUsed(target_, x);
      const bool keep_going = Recurse(depth + 1);
      ctx_.UnmarkUsed(target_, x);
      mapping[u] = kNoVertex;
      if (!keep_going) return false;
    }
    return true;
  }

  // Root candidates when the view has no label buckets: all vertices
  // (Feasible's label check filters, as in the classic matcher).
  struct AllVertices {
    VertexId count;
    struct Iterator {
      VertexId v;
      VertexId operator*() const { return v; }
      Iterator& operator++() { ++v; return *this; }
      bool operator!=(const Iterator& o) const { return v != o.v; }
    };
    Iterator begin() const { return {0}; }
    Iterator end() const { return {count}; }
  };

  bool Recurse(size_t depth) {
    if (stats_ != nullptr) ++stats_->states;
    // Amortized cancellation checkpoint: unwinds the search (returns false,
    // exactly like a visitor stop) when the query's budget control fires.
    // Callers that need to distinguish a stop from "no embedding" check
    // ctx.search_stopped() / control->stopped() afterwards.
    if (ctx_.TickBudget()) return false;
    if (depth == plan_.num_vertices()) {
      if (stats_ != nullptr) ++stats_->embeddings;
      return visit_(ctx_.mapping());
    }
    const VertexId parent = plan_.parent_of(depth);
    if (parent != kNoVertex) {
      // Candidates: neighbors of the parent's image.
      return Extend(depth, target_.Neighbors(ctx_.mapping()[parent]));
    }
    if constexpr (TargetView::kHasLabelIndex) {
      // O(1) seed candidates from the label bucket.
      return Extend(depth, target_.VerticesWithLabel(plan_.label_at(depth)));
    } else {
      return Extend(depth, AllVertices{static_cast<VertexId>(
                               target_.NumVertices())});
    }
  }

  const MatchPlan& plan_;
  const TargetView& target_;
  MatchContext& ctx_;
  MatchStats* stats_;
  Visitor& visit_;
};

}  // namespace match_internal

/// Enumerates embeddings of `plan`'s pattern into `target` (a CsrGraphView
/// or GraphRef). The visitor is called once per embedding with the
/// pattern->target mapping and returns true to continue, false to stop.
/// Returns false iff stopped early. Callers are responsible for the cheap
/// cardinality pre-checks (see PlanContains) — this runs the search
/// unconditionally.
template <typename TargetView, typename Visitor>
bool EnumerateEmbeddings(const MatchPlan& plan, const TargetView& target,
                         MatchContext& ctx, MatchStats* stats,
                         Visitor&& visit) {
  match_internal::Searcher<TargetView, Visitor> searcher(plan, target, ctx,
                                                         stats, visit);
  return searcher.Run();
}

/// True iff the plan's pattern embeds into `target`. Includes the
/// vertex/edge cardinality pre-checks; allocation-free.
template <typename TargetView>
bool PlanContains(const MatchPlan& plan, const TargetView& target,
                  MatchContext& ctx, MatchStats* stats = nullptr) {
  if (plan.empty()) return true;
  if (plan.num_vertices() > target.NumVertices() ||
      plan.num_edges() > target.NumEdges()) {
    return false;
  }
  return !EnumerateEmbeddings(plan, target, ctx, stats,
                              [](const std::vector<VertexId>&) {
                                return false;  // stop at the first embedding
                              });
}

/// One embedding (pattern vertex -> target vertex) if any exists.
template <typename TargetView>
std::optional<std::vector<VertexId>> PlanFindEmbedding(
    const MatchPlan& plan, const TargetView& target, MatchContext& ctx,
    MatchStats* stats = nullptr) {
  if (plan.empty()) return std::vector<VertexId>{};
  if (plan.num_vertices() > target.NumVertices() ||
      plan.num_edges() > target.NumEdges()) {
    return std::nullopt;
  }
  std::optional<std::vector<VertexId>> found;
  EnumerateEmbeddings(plan, target, ctx, stats,
                      [&found](const std::vector<VertexId>& mapping) {
                        found = mapping;
                        return false;
                      });
  return found;
}

/// Counts embeddings, stopping at `limit` (0 = count all).
template <typename TargetView>
uint64_t PlanCountEmbeddings(const MatchPlan& plan, const TargetView& target,
                             MatchContext& ctx, uint64_t limit = 0,
                             MatchStats* stats = nullptr) {
  if (plan.empty()) return 1;
  if (plan.num_vertices() > target.NumVertices() ||
      plan.num_edges() > target.NumEdges()) {
    return 0;
  }
  uint64_t count = 0;
  EnumerateEmbeddings(plan, target, ctx, stats,
                      [&count, limit](const std::vector<VertexId>&) {
                        ++count;
                        return limit == 0 || count < limit;
                      });
  return count;
}

/// Plan-reuse entry point for one-shot targets: searches `target` directly
/// through a GraphRef — no CSR build, no allocation. Use a precompiled
/// CsrGraphView + PlanContains instead when the same target is verified
/// repeatedly (the methods and cache indexes do).
bool ContainsIn(const MatchPlan& plan, const Graph& target, MatchContext& ctx,
                MatchStats* stats = nullptr);

/// Target-reuse entry point for the supergraph direction: compiles
/// `pattern` into ctx's scratch plan (pre-checks first) and tests
/// containment against a fixed target view.
bool ContainsPattern(const Graph& pattern, const CsrGraphView& target,
                     MatchContext& ctx, MatchStats* stats = nullptr);

}  // namespace igq

#endif  // IGQ_ISOMORPHISM_MATCH_CORE_H_
