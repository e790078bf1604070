// Shared helpers for the test suites: deterministic random graph
// generation, guaranteed subgraph extraction, and brute-force reference
// implementations used to validate the optimized code paths.
#ifndef IGQ_TESTS_TEST_UTIL_H_
#define IGQ_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "graph/algorithms.h"
#include "graph/graph.h"
#include "igq/sharded_cache.h"
#include "methods/method.h"
#include "tests/oracle/ullmann.h"
#include "tests/oracle/vf2.h"

namespace igq {
namespace testing {

/// Random connected labeled graph: spanning chain + `extra_edges` random
/// edges, labels uniform in [0, num_labels).
inline Graph RandomConnectedGraph(Rng& rng, size_t num_vertices,
                                  size_t extra_edges, size_t num_labels) {
  Graph g;
  for (size_t v = 0; v < num_vertices; ++v) {
    g.AddVertex(static_cast<Label>(rng.Below(num_labels)));
  }
  for (VertexId v = 1; v < num_vertices; ++v) {
    g.AddEdge(v, static_cast<VertexId>(rng.Below(v)));
  }
  for (size_t e = 0; e < extra_edges; ++e) {
    const VertexId u = static_cast<VertexId>(rng.Below(num_vertices));
    const VertexId w = static_cast<VertexId>(rng.Below(num_vertices));
    if (u != w) g.AddEdge(u, w);
  }
  return g;
}

/// Extracts a connected subgraph of `source` with ~target_edges edges; the
/// result is subgraph-isomorphic to `source` by construction.
inline Graph RandomSubgraphOf(Rng& rng, const Graph& source,
                              size_t target_edges) {
  const VertexId seed =
      static_cast<VertexId>(rng.Below(source.NumVertices()));
  return BfsNeighborhoodQuery(source, seed, target_edges);
}

/// Brute-force subgraph-query answer via the Ullmann reference matcher.
inline std::vector<GraphId> BruteForceSubgraphAnswer(
    const std::vector<Graph>& dataset, const Graph& query) {
  UllmannMatcher matcher;
  std::vector<GraphId> answer;
  for (GraphId i = 0; i < dataset.size(); ++i) {
    if (matcher.Contains(query, dataset[i])) answer.push_back(i);
  }
  return answer;
}

/// Brute-force supergraph-query answer (stored graphs contained in query).
inline std::vector<GraphId> BruteForceSupergraphAnswer(
    const std::vector<Graph>& dataset, const Graph& query) {
  UllmannMatcher matcher;
  std::vector<GraphId> answer;
  for (GraphId i = 0; i < dataset.size(); ++i) {
    if (matcher.Contains(dataset[i], query)) answer.push_back(i);
  }
  return answer;
}

/// Relabels/permutes a graph's vertices with a random permutation —
/// produces an isomorphic copy with different vertex ids.
inline Graph PermuteVertices(Rng& rng, const Graph& g) {
  std::vector<VertexId> perm(g.NumVertices());
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<VertexId>(i);
  for (size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.Below(i)]);
  }
  Graph out(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    out.set_label(perm[v], g.label(v));
  }
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (VertexId w : g.Neighbors(v)) {
      if (v < w) out.AddEdge(perm[v], perm[w]);
    }
  }
  return out;
}

/// The probe's hit on a cached isomorph of `query`, if any: a supergraph hit
/// with equal vertex and edge counts (containment plus equal sizes is
/// isomorphism, §4.3).
inline std::optional<ShardedQueryCache::Hit> IsomorphHit(
    const ShardedQueryCache::ProbeSession& session, const Graph& query) {
  for (const ShardedQueryCache::Hit& hit : session.supergraph_hits()) {
    const Graph& cached = hit.entry->graph;
    if (cached.NumVertices() == query.NumVertices() &&
        cached.NumEdges() == query.NumEdges()) {
      return hit;
    }
  }
  return std::nullopt;
}

/// Small pre-baked graphs used by many suites.
inline Graph Triangle(Label a = 0, Label b = 0, Label c = 0) {
  Graph g;
  g.AddVertex(a);
  g.AddVertex(b);
  g.AddVertex(c);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  return g;
}

inline Graph PathGraph(const std::vector<Label>& labels) {
  Graph g;
  for (Label label : labels) g.AddVertex(label);
  for (VertexId v = 1; v < labels.size(); ++v) g.AddEdge(v - 1, v);
  return g;
}

inline Graph CycleGraph(const std::vector<Label>& labels) {
  Graph g = PathGraph(labels);
  if (labels.size() >= 3) g.AddEdge(0, static_cast<VertexId>(labels.size() - 1));
  return g;
}

inline Graph StarGraph(Label center, const std::vector<Label>& leaves) {
  Graph g;
  g.AddVertex(center);
  for (Label leaf : leaves) {
    const VertexId v = g.AddVertex(leaf);
    g.AddEdge(0, v);
  }
  return g;
}

}  // namespace testing
}  // namespace igq

#endif  // IGQ_TESTS_TEST_UTIL_H_
