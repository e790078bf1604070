#include "methods/grapes.h"

#include <vector>

#include "isomorphism/match_core.h"

namespace igq {
namespace {

// Per-thread buffers for the covered-set / component walk, reused across
// Verify() calls so the location-aware path allocates nothing after
// warm-up (the matching itself runs in the shared MatchContext arena).
struct GrapesScratch {
  std::vector<uint8_t> covered;
  std::vector<uint8_t> visited;
  std::vector<VertexId> component;
  std::vector<VertexId> frontier;

  static GrapesScratch& ThreadLocal() {
    thread_local GrapesScratch scratch;
    return scratch;
  }
};

}  // namespace

bool GrapesMethod::Verify(const PreparedQuery& prepared, GraphId id) const {
  const auto& pq = static_cast<const PathPreparedQuery&>(prepared);
  const Graph& query = pq.query();
  const CsrGraphView& target = target_view(id);  // prebuilt at Build()
  if (query.NumVertices() > target.NumVertices() ||
      query.NumEdges() > target.NumEdges()) {
    return false;
  }

  GrapesScratch& scratch = GrapesScratch::ThreadLocal();
  const size_t n = target.NumVertices();

  // Covered vertex set: start locations of any query feature of length >= 1
  // edge (every vertex of a potential embedding starts such an instance —
  // see DESIGN.md §6 — so restricting the search to this set is lossless).
  scratch.covered.assign(n, 0);
  size_t covered_count = 0;
  for (const auto& [key, query_count] : pq.features()) {
    (void)query_count;
    if (PathKeyLength(key) < 2) continue;  // single-vertex features dilute
    for (VertexId v : trie().Locations(key, id)) {
      if (!scratch.covered[v]) {
        scratch.covered[v] = 1;
        ++covered_count;
      }
    }
  }
  if (covered_count < query.NumVertices()) return false;

  MatchContext& ctx = MatchContext::ThreadLocal();

  // Connected components of the covered set; the matcher runs per
  // component, so a huge candidate graph is verified only on its (typically
  // small) covered regions.
  scratch.visited.assign(n, 0);
  for (VertexId seed = 0; seed < n; ++seed) {
    if (!scratch.covered[seed] || scratch.visited[seed]) continue;
    scratch.component.clear();
    scratch.frontier.clear();
    scratch.frontier.push_back(seed);
    scratch.visited[seed] = 1;
    // frontier doubles as a BFS queue; `head` walks it in place.
    for (size_t head = 0; head < scratch.frontier.size(); ++head) {
      const VertexId v = scratch.frontier[head];
      scratch.component.push_back(v);
      for (VertexId w : target.Neighbors(v)) {
        if (scratch.covered[w] && !scratch.visited[w]) {
          scratch.visited[w] = 1;
          scratch.frontier.push_back(w);
        }
      }
    }
    if (scratch.component.size() < query.NumVertices()) continue;
    ScopedAllowed allowed(ctx, n);
    for (VertexId v : scratch.component) allowed.Allow(v);
    if (PlanContains(prepared.plan(), target, ctx)) return true;
  }
  return false;
}

}  // namespace igq
