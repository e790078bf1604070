#include "igq/probe_index.h"

#include "common/id_set.h"

namespace igq {

size_t ProbeData::MemoryBytes() const {
  return features.capacity() * sizeof(SortedPathFeatures::value_type) +
         view.MemoryBytes() + plan.MemoryBytes();
}

std::shared_ptr<const ProbeData> MakeProbeData(
    const Graph& graph, const PathFeatureCounts& features) {
  auto probe = std::make_shared<ProbeData>();
  probe->features = SortPathFeatures(features);
  probe->view.Assign(graph);
  probe->plan.Compile(graph);
  return probe;
}

void ProbeIndex::Build(
    const std::vector<std::shared_ptr<CachedQuery>>& cached) {
  index_ = FeatureCountIndex(index_.options());
  probes_.clear();
  probes_.reserve(cached.size());
  for (size_t i = 0; i < cached.size(); ++i) {
    index_.AddGraph(static_cast<GraphId>(i), cached[i]->probe->features);
    probes_.push_back(cached[i]->probe);
  }
}

void ProbeIndex::FindSupergraphsOf(const Graph& query,
                                   const PathFeatureCounts& query_features,
                                   std::vector<size_t>* result,
                                   size_t* probe_tests) const {
  result->clear();
  if (probes_.empty()) return;
  std::vector<GraphId>& candidates = IdSetScratch::ThreadLocal().ids_a();
  index_.FindPotentialSupergraphsOf(query_features, &candidates);
  if (candidates.empty()) return;
  // The query is the pattern for every surviving candidate: compile its
  // search plan once into this thread's scratch and reuse it across all
  // probe tests against the cached graphs' stored views (probes run
  // concurrently across shards, so the scratch must be thread-local,
  // never a member).
  MatchContext& ctx = MatchContext::ThreadLocal();
  MatchPlan& plan = ctx.scratch_plan();
  plan.Compile(query);
  for (GraphId candidate : candidates) {
    if (probe_tests != nullptr) ++(*probe_tests);
    if (PlanContains(plan, probes_[candidate]->view, ctx)) {
      result->push_back(candidate);
    }
  }
}

void ProbeIndex::FindSubgraphsOf(const Graph& query,
                                 const PathFeatureCounts& query_features,
                                 std::vector<size_t>* result,
                                 size_t* probe_tests) const {
  result->clear();
  if (probes_.empty()) return;
  std::vector<GraphId>& candidates = IdSetScratch::ThreadLocal().ids_a();
  index_.FindPotentialSubgraphsOf(query_features, &candidates);
  if (candidates.empty()) return;
  // The query is the target for every candidate: build its CSR view once
  // into this thread's scratch and probe it with the cached graphs' stored
  // plans.
  MatchContext& ctx = MatchContext::ThreadLocal();
  CsrGraphView& query_view = ctx.scratch_target();
  query_view.Assign(query);
  for (GraphId candidate : candidates) {
    if (probe_tests != nullptr) ++(*probe_tests);
    if (PlanContains(probes_[candidate]->plan, query_view, ctx)) {
      result->push_back(candidate);
    }
  }
}

size_t ProbeIndex::MemoryBytes() const {
  size_t bytes = index_.MemoryBytes();
  for (const auto& probe : probes_) bytes += probe->MemoryBytes();
  return bytes;
}

}  // namespace igq
