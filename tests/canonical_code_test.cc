// Property/fuzz suite for GraphCanonicalCode, the isomorphism-complete key
// behind the caches' exact-hit fast path. The contract under test:
//
//   GraphCanonicalCode(G) == GraphCanonicalCode(H)  <=>  G isomorphic H
//
// Soundness (no collisions) and completeness (no splits) are both
// cross-checked against the VF2 matcher as an independent oracle, over
// thousands of random instances; pinned byte-level codes keep the format
// from changing silently (snapshots persist the key, docs/FORMATS.md).
#include "features/canonical.h"

#include <chrono>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/graph.h"
#include "tests/oracle/vf2.h"
#include "tests/test_util.h"

namespace igq {
namespace {

using testing::CycleGraph;
using testing::PathGraph;
using testing::PermuteVertices;
using testing::RandomConnectedGraph;
using testing::StarGraph;
using testing::Triangle;

// Exact isomorphism oracle: equal sizes + label-preserving subgraph
// embedding. With |V| and |E| equal, a non-induced embedding is bijective on
// vertices and edge-surjective, i.e. an isomorphism (the paper's §4.3
// argument for the exact-match shortcut).
bool Isomorphic(const Graph& a, const Graph& b) {
  if (a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges()) {
    return false;
  }
  return Vf2Matcher().Contains(a, b);
}

// Builds the documented byte layout: u32 LE |V|, |E|, canonical labels,
// sorted canonical (min,max) edge pairs.
std::string ExpectedCode(uint32_t n, uint32_t m,
                         const std::vector<uint32_t>& labels,
                         const std::vector<std::pair<uint32_t, uint32_t>>&
                             edges) {
  std::string code;
  auto put_u32 = [&code](uint32_t value) {
    code.push_back(static_cast<char>(value & 0xff));
    code.push_back(static_cast<char>((value >> 8) & 0xff));
    code.push_back(static_cast<char>((value >> 16) & 0xff));
    code.push_back(static_cast<char>((value >> 24) & 0xff));
  };
  put_u32(n);
  put_u32(m);
  for (uint32_t label : labels) put_u32(label);
  for (const auto& [a, b] : edges) {
    put_u32(a);
    put_u32(b);
  }
  return code;
}

TEST(CanonicalCodeTest, PinnedEmptyAndSingleton) {
  EXPECT_EQ(GraphCanonicalCode(Graph()), ExpectedCode(0, 0, {}, {}));
  Graph one;
  one.AddVertex(7);
  EXPECT_EQ(GraphCanonicalCode(one), ExpectedCode(1, 0, {7}, {}));
}

TEST(CanonicalCodeTest, PinnedEdgeAndTriangle) {
  // Two same-labeled vertices, one edge: the vertices are symmetric, both
  // leaves encode identically.
  EXPECT_EQ(GraphCanonicalCode(PathGraph({5, 5})),
            ExpectedCode(2, 1, {5, 5}, {{0, 1}}));
  // Distinct labels refine immediately: canonical order is label order.
  EXPECT_EQ(GraphCanonicalCode(Triangle(3, 1, 2)),
            ExpectedCode(3, 3, {1, 2, 3}, {{0, 1}, {0, 2}, {1, 2}}));
}

TEST(CanonicalCodeTest, PinnedPathAndStar) {
  // Path 9-4-9: the center (label 4) refines to its own cell; the minimal
  // leaf puts label 4 first (labels sort before degrees matter here because
  // the initial coloring is by label).
  EXPECT_EQ(GraphCanonicalCode(PathGraph({9, 4, 9})),
            ExpectedCode(3, 2, {4, 9, 9}, {{0, 1}, {0, 2}}));
  // Star with distinct leaf labels.
  EXPECT_EQ(GraphCanonicalCode(StarGraph(2, {8, 6})),
            ExpectedCode(3, 2, {2, 6, 8}, {{0, 1}, {0, 2}}));
}

TEST(CanonicalCodeTest, LabelsDistinguishOtherwiseEqualGraphs) {
  EXPECT_NE(GraphCanonicalCode(Triangle(0, 0, 0)),
            GraphCanonicalCode(Triangle(0, 0, 1)));
  EXPECT_NE(GraphCanonicalCode(PathGraph({1, 2, 3})),
            GraphCanonicalCode(PathGraph({1, 3, 2})));
  EXPECT_EQ(GraphCanonicalCode(PathGraph({1, 2, 3})),
            GraphCanonicalCode(PathGraph({3, 2, 1})));
}

// Random graphs under random vertex permutations must produce byte-identical
// codes (completeness: isomorphic graphs never split).
TEST(CanonicalCodeTest, PermutationInvarianceFuzz) {
  Rng rng(0xc0de2016ULL);
  size_t instances = 0;
  for (size_t round = 0; round < 300; ++round) {
    const size_t n = 1 + rng.Below(12);
    const size_t extra = rng.Below(n + 3);
    const size_t labels = 1 + rng.Below(4);
    const Graph g = RandomConnectedGraph(rng, n, extra, labels);
    const std::string code = GraphCanonicalCode(g);
    for (size_t p = 0; p < 10; ++p) {
      const Graph permuted = PermuteVertices(rng, g);
      ASSERT_EQ(GraphCanonicalCode(permuted), code)
          << "permuted copy split from " << g.DebugString();
      ++instances;
    }
  }
  EXPECT_GE(instances, 3000u);
}

// Random pairs cross-checked against VF2: equal code <=> isomorphic. Pairs
// are drawn adversarially close — permuted copies, single-label mutations,
// single-edge rewires — so most non-isomorphic pairs agree on every cheap
// invariant (sizes, label multiset, degree sequence pressure).
TEST(CanonicalCodeTest, Vf2CrossCheckFuzz) {
  Rng rng(0x5eedf00dULL);
  size_t instances = 0;
  size_t isomorphic_pairs = 0;
  while (instances < 2500) {
    const size_t n = 2 + rng.Below(9);
    const size_t extra = rng.Below(n + 2);
    const size_t labels = 1 + rng.Below(3);
    const Graph a = RandomConnectedGraph(rng, n, extra, labels);
    Graph b = PermuteVertices(rng, a);
    const uint64_t variant = rng.Below(4);
    if (variant == 1) {
      // Relabel one vertex (possibly to its own label).
      const VertexId v = static_cast<VertexId>(rng.Below(b.NumVertices()));
      b.set_label(v, static_cast<Label>(rng.Below(labels + 1)));
    } else if (variant == 2) {
      // Add one random edge (possibly a duplicate, i.e. a no-op).
      const VertexId u = static_cast<VertexId>(rng.Below(b.NumVertices()));
      const VertexId w = static_cast<VertexId>(rng.Below(b.NumVertices()));
      if (u != w) b.AddEdge(u, w);
    } else if (variant == 3) {
      // Fresh independent graph of the same shape parameters.
      b = RandomConnectedGraph(rng, n, extra, labels);
    }
    const bool same_code = GraphCanonicalCode(a) == GraphCanonicalCode(b);
    const bool isomorphic = Isomorphic(a, b);
    ASSERT_EQ(same_code, isomorphic)
        << (isomorphic ? "isomorphic pair split: " : "collision: ")
        << a.DebugString() << " vs " << b.DebugString();
    if (isomorphic) ++isomorphic_pairs;
    ++instances;
  }
  // The generator must actually exercise both sides of the equivalence.
  EXPECT_GE(isomorphic_pairs, 200u);
  EXPECT_GE(instances - isomorphic_pairs, 200u);
}

// --- Adversarial regular / vertex-transitive cases ------------------------
//
// Plain color refinement (1-WL) gives every vertex of an unlabeled regular
// graph the same color, so these pairs are exactly the cases the
// individualization-refinement backtracking exists for.

Graph DisjointTriangles() {
  Graph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  g.AddEdge(3, 4);
  g.AddEdge(4, 5);
  g.AddEdge(3, 5);
  return g;
}

Graph CompleteBipartite33() {
  Graph g(6);
  for (VertexId u = 0; u < 3; ++u) {
    for (VertexId w = 3; w < 6; ++w) g.AddEdge(u, w);
  }
  return g;
}

Graph TriangularPrism() {
  Graph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  g.AddEdge(3, 4);
  g.AddEdge(4, 5);
  g.AddEdge(3, 5);
  g.AddEdge(0, 3);
  g.AddEdge(1, 4);
  g.AddEdge(2, 5);
  return g;
}

// 4x4 rook's graph: vertices (i,j), adjacent iff same row or same column.
Graph RooksGraph4x4() {
  Graph g(16);
  auto id = [](int i, int j) { return static_cast<VertexId>(4 * i + j); };
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      for (int k = j + 1; k < 4; ++k) g.AddEdge(id(i, j), id(i, k));  // row
      for (int k = i + 1; k < 4; ++k) g.AddEdge(id(i, j), id(k, j));  // col
    }
  }
  return g;
}

// Shrikhande graph: Cayley graph on Z4 x Z4 with connection set
// {±(1,0), ±(0,1), ±(1,1)}. Strongly regular with the SAME parameters
// (16, 6, 2, 2) as the rook's graph — indistinguishable by color
// refinement, yet not isomorphic to it.
Graph Shrikhande() {
  Graph g(16);
  auto id = [](int i, int j) {
    return static_cast<VertexId>(4 * ((i % 4 + 4) % 4) + ((j % 4 + 4) % 4));
  };
  const int deltas[3][2] = {{1, 0}, {0, 1}, {1, 1}};
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      for (const auto& d : deltas) {
        g.AddEdge(id(i, j), id(i + d[0], j + d[1]));
      }
    }
  }
  return g;
}

TEST(CanonicalCodeTest, RegularGraphsSameInvariantsDistinctCodes) {
  // 2-regular on 6 vertices, 6 edges: one hexagon vs two triangles.
  const Graph c6 = CycleGraph({0, 0, 0, 0, 0, 0});
  const Graph triangles = DisjointTriangles();
  ASSERT_EQ(c6.NumEdges(), triangles.NumEdges());
  EXPECT_FALSE(Isomorphic(c6, triangles));
  EXPECT_NE(GraphCanonicalCode(c6), GraphCanonicalCode(triangles));

  // 3-regular on 6 vertices, 9 edges: K3,3 vs the triangular prism.
  const Graph k33 = CompleteBipartite33();
  const Graph prism = TriangularPrism();
  ASSERT_EQ(k33.NumEdges(), prism.NumEdges());
  EXPECT_FALSE(Isomorphic(k33, prism));
  EXPECT_NE(GraphCanonicalCode(k33), GraphCanonicalCode(prism));
}

TEST(CanonicalCodeTest, StronglyRegularPairDefeatsRefinementNotBacktracking) {
  // The classic 1-WL-equivalent pair. Ground truth: not isomorphic (the
  // rook's graph's triangles pair up into K4s, Shrikhande's do not), so the
  // codes must differ even though refinement alone sees identical colorings.
  const Graph rook = RooksGraph4x4();
  const Graph shrikhande = Shrikhande();
  ASSERT_EQ(rook.NumEdges(), 48u);
  ASSERT_EQ(shrikhande.NumEdges(), 48u);
  EXPECT_NE(GraphCanonicalCode(rook), GraphCanonicalCode(shrikhande));

  // And both stay permutation-invariant through the deep search.
  Rng rng(0x600dULL);
  const std::string rook_code = GraphCanonicalCode(rook);
  const std::string shrikhande_code = GraphCanonicalCode(shrikhande);
  for (int p = 0; p < 3; ++p) {
    EXPECT_EQ(GraphCanonicalCode(PermuteVertices(rng, rook)), rook_code);
    EXPECT_EQ(GraphCanonicalCode(PermuteVertices(rng, shrikhande)),
              shrikhande_code);
  }
}

TEST(CanonicalCodeTest, VertexTransitiveCyclesPermutationInvariant) {
  Rng rng(0xabcdULL);
  for (size_t n = 3; n <= 12; ++n) {
    const Graph cycle = CycleGraph(std::vector<Label>(n, 0));
    const std::string code = GraphCanonicalCode(cycle);
    for (int p = 0; p < 5; ++p) {
      ASSERT_EQ(GraphCanonicalCode(PermuteVertices(rng, cycle)), code)
          << "C" << n;
    }
  }
}

TEST(CanonicalCodeTest, TwinsCanonicalizeInPolynomialTime) {
  // Same-label leaves of one vertex, and the vertices of a same-label
  // clique, are twins: refinement cannot split their cell, and branching on
  // every member cost k! leaves (seconds for these two graphs). One branch
  // per set of twins gives each graph one code in well under 100 ms.
  std::vector<Graph> graphs{StarGraph(1, std::vector<Label>(10, 0))};
  Graph clique;
  for (VertexId v = 0; v < 9; ++v) clique.AddVertex(0);
  for (VertexId v = 0; v < 9; ++v) {
    for (VertexId w = v + 1; w < 9; ++w) clique.AddEdge(v, w);
  }
  graphs.push_back(clique);
  Rng rng(0x7a1eULL);
  const auto start = std::chrono::steady_clock::now();
  for (const Graph& g : graphs) {
    const std::string code = GraphCanonicalCode(g);
    for (int p = 0; p < 5; ++p) {
      EXPECT_EQ(GraphCanonicalCode(PermuteVertices(rng, g)), code)
          << g.DebugString();
    }
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(100));
}

TEST(CanonicalCodeTest, DisconnectedGraphsSupported) {
  Rng rng(0xd15cULL);
  for (int round = 0; round < 50; ++round) {
    Graph g;
    const size_t parts = 1 + rng.Below(3);
    for (size_t part = 0; part < parts; ++part) {
      const Graph piece =
          RandomConnectedGraph(rng, 1 + rng.Below(5), rng.Below(3), 2);
      const VertexId base = static_cast<VertexId>(g.NumVertices());
      for (VertexId v = 0; v < piece.NumVertices(); ++v) {
        g.AddVertex(piece.label(v));
      }
      for (VertexId v = 0; v < piece.NumVertices(); ++v) {
        for (VertexId w : piece.Neighbors(v)) {
          if (v < w) g.AddEdge(base + v, base + w);
        }
      }
    }
    const std::string code = GraphCanonicalCode(g);
    for (int p = 0; p < 4; ++p) {
      ASSERT_EQ(GraphCanonicalCode(PermuteVertices(rng, g)), code);
    }
  }
}

}  // namespace
}  // namespace igq
