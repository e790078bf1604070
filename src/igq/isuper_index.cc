#include "igq/isuper_index.h"

#include "common/id_set.h"
#include "isomorphism/match_core.h"

namespace igq {

void IsuperIndex::Build(const std::vector<CachedQuery>& cached) {
  cached_ = &cached;
  index_ = FeatureCountIndex(index_.options());
  for (size_t i = 0; i < cached.size(); ++i) {
    index_.AddGraph(static_cast<GraphId>(i), cached[i].graph);
  }
  // Probe-test patterns: the cached graphs' search plans are
  // query-independent, so compile them once per rebuild (off the query
  // path).
  cached_plans_.clear();
  cached_plans_.resize(cached.size());
  for (size_t i = 0; i < cached.size(); ++i) {
    cached_plans_[i].Compile(cached[i].graph);
  }
}

void IsuperIndex::FindSubgraphsOf(const Graph& query,
                                  const PathFeatureCounts& query_features,
                                  std::vector<size_t>* result,
                                  size_t* probe_tests) const {
  result->clear();
  if (cached_ == nullptr || cached_->empty()) return;
  // Candidate generation through this thread's scratch (the tally-based
  // Algorithm 2 — see FeatureCountIndex::FindPotentialSubgraphsOf).
  IdSetScratch& scratch = IdSetScratch::ThreadLocal();
  std::vector<GraphId>& candidates = scratch.ids_a();
  index_.FindPotentialSubgraphsOf(query_features, &candidates);
  if (candidates.empty()) return;
  // The query is the target for every candidate: build its CSR view once
  // into this thread's scratch and probe it with the prebuilt cached-graph
  // plans (thread-local scratch — probes run concurrently).
  MatchContext& ctx = MatchContext::ThreadLocal();
  CsrGraphView& query_view = ctx.scratch_target();
  query_view.Assign(query);
  for (GraphId candidate : candidates) {
    if (probe_tests != nullptr) ++(*probe_tests);
    if (PlanContains(cached_plans_[candidate], query_view, ctx)) {
      result->push_back(candidate);
    }
  }
}

}  // namespace igq
