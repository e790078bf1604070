#include "igq/isub_index.h"

#include <map>

#include "isomorphism/match_core.h"

namespace igq {

void IsubIndex::Build(const std::vector<CachedQuery>& cached) {
  cached_ = &cached;
  trie_ = PathTrie(/*store_locations=*/false);
  for (size_t i = 0; i < cached.size(); ++i) {
    std::map<PathKey, uint32_t> features;
    EnumeratePaths(cached[i].graph, options_,
                   [&features](PathKey key, VertexId) { ++features[key]; });
    for (const auto& [key, count] : features) {
      trie_.Add(key, static_cast<GraphId>(i), count);
    }
  }
  // Probe-test targets, laid out once per rebuild (off the query path).
  cached_views_.Build(cached.size(), [&cached](size_t i) -> const Graph& {
    return cached[i].graph;
  });
}

void IsubIndex::FindSupergraphsOf(const Graph& query,
                                  const PathFeatureCounts& query_features,
                                  std::vector<size_t>* result,
                                  size_t* probe_tests) const {
  result->clear();
  if (cached_ == nullptr || cached_->empty()) return;

  // Counting filter: candidate G must contain every query feature at least
  // as often as the query does (same filter the host methods use). The
  // per-feature eligible lists are sorted by construction (postings are
  // appended in ascending graph id), so the running candidate set narrows
  // through the galloping intersect kernel — all buffers come from this
  // thread's scratch and are reused across probes.
  IdSetScratch& scratch = IdSetScratch::ThreadLocal();
  std::vector<GraphId>& candidates = scratch.ids_a();
  std::vector<GraphId>& eligible = scratch.ids_b();
  std::vector<GraphId>& merged = scratch.ids_c();
  // The scratch holds the previous probe's ids; a featureless query (empty
  // graph) skips the loop entirely and must see an empty candidate set,
  // exactly as the pre-scratch code did.
  candidates.clear();
  bool first = true;
  for (const auto& [key, query_count] : query_features) {
    const std::vector<PathPosting>* postings = trie_.Find(key);
    if (postings == nullptr) return;
    eligible.clear();
    for (const PathPosting& posting : *postings) {
      if (posting.count >= query_count) eligible.push_back(posting.graph_id);
    }
    if (first) {
      std::swap(candidates, eligible);  // O(1): both are scratch buffers
      first = false;
    } else {
      IntersectSorted(candidates, eligible, &merged);
      std::swap(candidates, merged);
    }
    if (candidates.empty()) return;
  }

  // The query is the pattern for every surviving candidate: compile its
  // search plan once into this thread's scratch and reuse it across all
  // probe tests against the prebuilt cached-graph views (probes run
  // concurrently across shards, so the scratch must be thread-local,
  // never a member).
  MatchContext& ctx = MatchContext::ThreadLocal();
  MatchPlan& plan = ctx.scratch_plan();
  plan.Compile(query);
  for (GraphId candidate : candidates) {
    if (probe_tests != nullptr) ++(*probe_tests);
    if (PlanContains(plan, cached_views_.view(candidate), ctx)) {
      result->push_back(candidate);
    }
  }
}

size_t IsubIndex::MemoryBytes() const {
  return trie_.MemoryBytes() + cached_views_.MemoryBytes();
}

}  // namespace igq
