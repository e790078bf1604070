#include "isomorphism/match_core.h"

#include <algorithm>

#include "serving/budget.h"

namespace igq {

void MatchPlan::Compile(const Graph& pattern) {
  // Pattern adjacency as CSR. The core never probes pattern edges, so the
  // sorted-range oracle is forced to skip the bitset build.
  pattern_.Assign(pattern, CsrGraphView::EdgeOracle::kSortedRange);
  num_edges_ = pattern.NumEdges();

  const size_t n = pattern_.NumVertices();
  order_.clear();
  parent_.clear();
  label_.clear();
  degree_.clear();
  mapped_offsets_.clear();
  mapped_neighbors_.clear();
  order_.reserve(n);
  parent_.assign(n, kNoVertex);
  depth_of_.assign(n, UINT32_MAX);

  // Most-constrained-first BFS, exactly the classic matcher's ordering:
  // repeatedly pick the unordered vertex with the most already-ordered
  // neighbors (ties: higher degree), remembering one ordered neighbor as
  // the candidate-generating parent.
  std::vector<uint32_t>& placed_neighbors = degree_;  // reuse as scratch
  placed_neighbors.assign(n, 0);
  for (size_t placed_count = 0; placed_count < n; ++placed_count) {
    VertexId best = kNoVertex;
    for (VertexId v = 0; v < n; ++v) {
      if (depth_of_[v] != UINT32_MAX) continue;
      if (best == kNoVertex || placed_neighbors[v] > placed_neighbors[best] ||
          (placed_neighbors[v] == placed_neighbors[best] &&
           pattern_.Degree(v) > pattern_.Degree(best))) {
        best = v;
      }
    }
    for (VertexId w : pattern_.Neighbors(best)) {
      if (depth_of_[w] != UINT32_MAX) {
        parent_[order_.size()] = w;
        break;
      }
    }
    depth_of_[best] = static_cast<uint32_t>(order_.size());
    order_.push_back(best);
    for (VertexId w : pattern_.Neighbors(best)) ++placed_neighbors[w];
  }

  // Per-depth signatures and the exact adjacency-check lists: the pattern
  // neighbors of order_[d] that are mapped before depth d.
  label_.resize(n);
  mapped_offsets_.reserve(n + 1);
  mapped_offsets_.push_back(0);
  for (size_t d = 0; d < n; ++d) {
    const VertexId u = order_[d];
    label_[d] = pattern_.label(u);
    for (VertexId w : pattern_.Neighbors(u)) {
      if (depth_of_[w] < d) mapped_neighbors_.push_back(w);
    }
    mapped_offsets_.push_back(static_cast<uint32_t>(mapped_neighbors_.size()));
  }
  // degree_ doubled as the placed_neighbors scratch above; fill it last.
  degree_.resize(n);
  for (size_t d = 0; d < n; ++d) degree_[d] = pattern_.Degree(order_[d]);
}

size_t MatchPlan::MemoryBytes() const {
  return sizeof(*this) - sizeof(CsrGraphView) + pattern_.MemoryBytes() +
         (order_.capacity() + parent_.capacity() +
          mapped_neighbors_.capacity()) *
             sizeof(VertexId) +
         label_.capacity() * sizeof(Label) +
         (degree_.capacity() + mapped_offsets_.capacity() +
          depth_of_.capacity()) *
             sizeof(uint32_t);
}

MatchContext& MatchContext::ThreadLocal() {
  thread_local MatchContext context;
  return context;
}

bool MatchContext::BudgetCheckpoint() {
  const uint32_t charged = states_since_check_;
  states_since_check_ = 0;
  if (control_ == nullptr) return false;
  if (search_stopped_) return true;
  search_stopped_ = control_->ChargeStates(charged);
  return search_stopped_;
}

bool ContainsIn(const MatchPlan& plan, const Graph& target, MatchContext& ctx,
                MatchStats* stats) {
  if (plan.empty()) return true;
  if (plan.num_vertices() > target.NumVertices() ||
      plan.num_edges() > target.NumEdges()) {
    return false;
  }
  return PlanContains(plan, GraphRef(target), ctx, stats);
}

bool ContainsPattern(const Graph& pattern, const CsrGraphView& target,
                     MatchContext& ctx, MatchStats* stats) {
  if (pattern.NumVertices() == 0) return true;
  if (pattern.NumVertices() > target.NumVertices() ||
      pattern.NumEdges() > target.NumEdges()) {
    return false;
  }
  ctx.scratch_plan().Compile(pattern);
  if (stats != nullptr) ++stats->plan_compiles;
  return PlanContains(ctx.scratch_plan(), target, ctx, stats);
}

}  // namespace igq
