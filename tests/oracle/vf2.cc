#include "tests/oracle/vf2.h"

namespace igq {

bool Vf2Matcher::Contains(const Graph& pattern, const Graph& target,
                          MatchStats* stats) const {
  if (pattern.NumVertices() == 0) return true;
  if (pattern.NumVertices() > target.NumVertices() ||
      pattern.NumEdges() > target.NumEdges()) {
    return false;
  }
  MatchContext& ctx = MatchContext::ThreadLocal();
  MatchPlan& plan = ctx.scratch_plan();
  plan.Compile(pattern);
  if (stats != nullptr) ++stats->plan_compiles;
  // Boolean path: no embedding is materialized, so nothing allocates.
  return PlanContains(plan, GraphRef(target), ctx, stats);
}

std::optional<std::vector<VertexId>> Vf2Matcher::FindEmbedding(
    const Graph& pattern, const Graph& target, MatchStats* stats) {
  return FindEmbeddingRestricted(pattern, target, nullptr, stats);
}

std::optional<std::vector<VertexId>> Vf2Matcher::FindEmbeddingRestricted(
    const Graph& pattern, const Graph& target,
    const std::vector<bool>* allowed, MatchStats* stats) {
  if (pattern.NumVertices() == 0) return std::vector<VertexId>{};
  if (pattern.NumVertices() > target.NumVertices() ||
      pattern.NumEdges() > target.NumEdges()) {
    return std::nullopt;
  }
  MatchContext& ctx = MatchContext::ThreadLocal();
  MatchPlan& plan = ctx.scratch_plan();
  plan.Compile(pattern);
  if (stats != nullptr) ++stats->plan_compiles;
  // One-shot pair: search the Graph directly (GraphRef) — a CSR build
  // would cost more than the typical first-match search it serves.
  const GraphRef ref(target);
  if (allowed != nullptr) {
    ScopedAllowed restriction(ctx, target.NumVertices());
    for (VertexId v = 0; v < target.NumVertices(); ++v) {
      if ((*allowed)[v]) restriction.Allow(v);
    }
    return PlanFindEmbedding(plan, ref, ctx, stats);
  }
  return PlanFindEmbedding(plan, ref, ctx, stats);
}

uint64_t Vf2Matcher::CountEmbeddings(const Graph& pattern, const Graph& target,
                                     uint64_t limit, MatchStats* stats) {
  if (pattern.NumVertices() == 0) return 1;
  if (pattern.NumVertices() > target.NumVertices() ||
      pattern.NumEdges() > target.NumEdges()) {
    return 0;
  }
  MatchContext& ctx = MatchContext::ThreadLocal();
  MatchPlan& plan = ctx.scratch_plan();
  plan.Compile(pattern);
  if (stats != nullptr) ++stats->plan_compiles;
  return PlanCountEmbeddings(plan, GraphRef(target), ctx, limit, stats);
}

}  // namespace igq
