// Tests for the subgraph-isomorphism layer: VF2 against hand-constructed
// cases, VF2 vs. Ullmann cross-validation on random instances (property
// style), embedding counting, restricted matching, and the §5.1 cost model.
#include <gtest/gtest.h>

#include <cmath>

#include "graph/csr_view.h"
#include "isomorphism/cost_model.h"
#include "isomorphism/match_core.h"
#include "tests/oracle/ullmann.h"
#include "tests/oracle/vf2.h"
#include "tests/test_util.h"

namespace igq {
namespace {

using testing::CycleGraph;
using testing::PathGraph;
using testing::PermuteVertices;
using testing::RandomConnectedGraph;
using testing::RandomSubgraphOf;
using testing::StarGraph;
using testing::Triangle;

TEST(Vf2Test, EmptyPatternMatchesAnything) {
  Graph pattern;
  EXPECT_TRUE(Vf2Matcher().Contains(pattern, Triangle()));
  EXPECT_EQ(Vf2Matcher::CountEmbeddings(pattern, Triangle()), 1u);
}

TEST(Vf2Test, SingleVertexLabelMatch) {
  Graph pattern;
  pattern.AddVertex(2);
  Graph target = PathGraph({1, 2, 3});
  EXPECT_TRUE(Vf2Matcher().Contains(pattern, target));
  pattern.set_label(0, 9);
  EXPECT_FALSE(Vf2Matcher().Contains(pattern, target));
}

TEST(Vf2Test, TriangleInTriangle) {
  EXPECT_TRUE(Vf2Matcher().Contains(Triangle(), Triangle()));
}

TEST(Vf2Test, TriangleNotInPath) {
  EXPECT_FALSE(Vf2Matcher().Contains(Triangle(), PathGraph({0, 0, 0, 0})));
}

TEST(Vf2Test, PathInCycleButNotConverse) {
  Graph path = PathGraph({0, 0, 0});
  Graph cycle = CycleGraph({0, 0, 0, 0});
  EXPECT_TRUE(Vf2Matcher().Contains(path, cycle));
  EXPECT_FALSE(Vf2Matcher().Contains(cycle, path));
}

TEST(Vf2Test, LabelsMustMatch) {
  Graph pattern = PathGraph({1, 2});
  EXPECT_TRUE(Vf2Matcher().Contains(pattern, PathGraph({2, 1, 3})));
  EXPECT_FALSE(Vf2Matcher().Contains(pattern, PathGraph({1, 3, 2})));
}

TEST(Vf2Test, NonInducedSemantics) {
  // Pattern path a-b-c embeds into triangle even though the triangle has the
  // extra a-c edge (monomorphism, not induced isomorphism).
  Graph pattern = PathGraph({0, 0, 0});
  EXPECT_TRUE(Vf2Matcher().Contains(pattern, Triangle()));
}

TEST(Vf2Test, InjectivityEnforced) {
  // Two disconnected pattern vertices of the same label need two distinct
  // target vertices.
  Graph pattern(2);  // labels {0, 0}, no edges
  Graph target;
  target.AddVertex(0);
  EXPECT_FALSE(Vf2Matcher().Contains(pattern, target));
  target.AddVertex(0);
  EXPECT_TRUE(Vf2Matcher().Contains(pattern, target));
}

TEST(Vf2Test, DisconnectedPattern) {
  Graph pattern(4);
  pattern.AddEdge(0, 1);
  pattern.AddEdge(2, 3);
  Graph target = PathGraph({0, 0, 0, 0, 0});
  EXPECT_TRUE(Vf2Matcher().Contains(pattern, target));
}

TEST(Vf2Test, EmbeddingIsValid) {
  Rng rng(21);
  for (int round = 0; round < 25; ++round) {
    Graph target = RandomConnectedGraph(rng, 18, 10, 3);
    Graph pattern = RandomSubgraphOf(rng, target, 6);
    auto embedding = Vf2Matcher::FindEmbedding(pattern, target);
    ASSERT_TRUE(embedding.has_value()) << "round " << round;
    // Check the mapping is a proper monomorphism.
    std::vector<bool> used(target.NumVertices(), false);
    for (VertexId u = 0; u < pattern.NumVertices(); ++u) {
      const VertexId image = (*embedding)[u];
      ASSERT_LT(image, target.NumVertices());
      EXPECT_FALSE(used[image]) << "not injective";
      used[image] = true;
      EXPECT_EQ(pattern.label(u), target.label(image));
    }
    for (VertexId u = 0; u < pattern.NumVertices(); ++u) {
      for (VertexId w : pattern.Neighbors(u)) {
        if (u < w) {
          EXPECT_TRUE(target.HasEdge((*embedding)[u], (*embedding)[w]));
        }
      }
    }
  }
}

TEST(Vf2Test, CountEmbeddingsTriangleInK4) {
  // K4, uniform labels: each ordered choice of 3 distinct vertices is an
  // embedding of the triangle: 4*3*2 = 24.
  Graph k4(4);
  for (VertexId u = 0; u < 4; ++u) {
    for (VertexId w = u + 1; w < 4; ++w) k4.AddEdge(u, w);
  }
  EXPECT_EQ(Vf2Matcher::CountEmbeddings(Triangle(), k4), 24u);
}

TEST(Vf2Test, CountEmbeddingsRespectsLimit) {
  Graph k4(4);
  for (VertexId u = 0; u < 4; ++u) {
    for (VertexId w = u + 1; w < 4; ++w) k4.AddEdge(u, w);
  }
  EXPECT_EQ(Vf2Matcher::CountEmbeddings(Triangle(), k4, 5), 5u);
}

TEST(Vf2Test, RestrictedEmbeddingHonorsMask) {
  Graph target = PathGraph({0, 0, 0, 0, 0, 0});
  Graph pattern = PathGraph({0, 0, 0});
  std::vector<bool> allowed(6, false);
  allowed[0] = allowed[1] = true;  // too small a region
  EXPECT_FALSE(
      Vf2Matcher::FindEmbeddingRestricted(pattern, target, &allowed).has_value());
  allowed[2] = true;
  EXPECT_TRUE(
      Vf2Matcher::FindEmbeddingRestricted(pattern, target, &allowed).has_value());
}

TEST(Vf2Test, MatchStatsAccumulate) {
  MatchStats stats;
  EXPECT_TRUE(Vf2Matcher::FindEmbedding(Triangle(), Triangle(), &stats)
                  .has_value());
  const uint64_t after_one = stats.states;
  EXPECT_GT(after_one, 0u);
  EXPECT_EQ(stats.plan_compiles, 1u);
  EXPECT_EQ(stats.embeddings, 1u);
  // Stats are accumulated, not overwritten, so one MatchStats can span a
  // whole verification batch.
  EXPECT_TRUE(Vf2Matcher::FindEmbedding(Triangle(), Triangle(), &stats)
                  .has_value());
  EXPECT_EQ(stats.states, 2 * after_one);
  EXPECT_EQ(stats.plan_compiles, 2u);
}

// Regression pin for the search-state counts of the zero-allocation core:
// the O(1) epoch-derived lookahead must make exactly the decisions of the
// classic per-candidate rescan, so these counts must never drift. (The
// matcher_fuzz_test suite checks the same property against the frozen
// pre-refactor reference on random instances.)
TEST(Vf2Test, SearchStateCountsPinned) {
  Graph k4(4);
  for (VertexId u = 0; u < 4; ++u) {
    for (VertexId w = u + 1; w < 4; ++w) k4.AddEdge(u, w);
  }
  MatchStats first;
  EXPECT_TRUE(Vf2Matcher::FindEmbedding(Triangle(), k4, &first).has_value());
  EXPECT_EQ(first.states, 4u);  // root + 2 extensions + 1 solution state

  MatchStats all;
  EXPECT_EQ(Vf2Matcher::CountEmbeddings(Triangle(), k4, 0, &all), 24u);
  EXPECT_EQ(all.states, 41u);
  EXPECT_EQ(all.embeddings, 24u);

  // A deterministic medium-size pair (same generator family as the
  // benches): 8-vertex BFS query planted in a 40-vertex host.
  Rng rng(12345);
  Graph host = RandomConnectedGraph(rng, 40, 30, 3);
  Graph query = BfsNeighborhoodQuery(host, 0, 8);
  MatchStats planted;
  EXPECT_TRUE(Vf2Matcher::FindEmbedding(query, host, &planted).has_value());
  EXPECT_EQ(planted.states, 9u);
  MatchStats planted_all;
  EXPECT_EQ(Vf2Matcher::CountEmbeddings(query, host, 0, &planted_all), 48u);
  EXPECT_EQ(planted_all.states, 142u);
}

TEST(CsrViewTest, MirrorsGraphAndPartitionsLabels) {
  Rng rng(7);
  const Graph g = RandomConnectedGraph(rng, 30, 25, 4);
  const CsrGraphView view(g);
  ASSERT_EQ(view.NumVertices(), g.NumVertices());
  ASSERT_EQ(view.NumEdges(), g.NumEdges());
  size_t bucketed = 0;
  for (Label label = 0; label < 4; ++label) {
    VertexId previous = 0;
    bool first = true;
    for (VertexId v : view.VerticesWithLabel(label)) {
      EXPECT_EQ(g.label(v), label);
      if (!first) EXPECT_LT(previous, v);  // ascending within the bucket
      previous = v;
      first = false;
      ++bucketed;
    }
  }
  EXPECT_EQ(bucketed, g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(view.label(v), g.label(v));
    EXPECT_EQ(view.Degree(v), g.Degree(v));
    ASSERT_EQ(view.Neighbors(v).size(), g.Neighbors(v).size());
  }
}

TEST(CsrViewTest, EdgeOraclesAgree) {
  Rng rng(11);
  const Graph g = RandomConnectedGraph(rng, 40, 60, 3);
  const CsrGraphView bitset(g, CsrGraphView::EdgeOracle::kBitset);
  const CsrGraphView range(g, CsrGraphView::EdgeOracle::kSortedRange);
  EXPECT_TRUE(bitset.uses_bitset());
  EXPECT_FALSE(range.uses_bitset());
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      EXPECT_EQ(bitset.HasEdge(u, v), g.HasEdge(u, v));
      EXPECT_EQ(range.HasEdge(u, v), g.HasEdge(u, v));
    }
  }
}

TEST(CsrViewTest, AutoOracleFollowsCrossoverHeuristic) {
  // Tiny graphs always take the bitset; big sparse graphs never do; big
  // dense ones do up to the hard cap.
  EXPECT_TRUE(CsrGraphView::WantsBitset(16, 20));
  EXPECT_TRUE(CsrGraphView::WantsBitset(CsrGraphView::kBitsetSmallVertices, 0));
  EXPECT_FALSE(CsrGraphView::WantsBitset(1024, 1024));  // avg degree 2
  EXPECT_TRUE(CsrGraphView::WantsBitset(1024, 8 * 1024));
  EXPECT_FALSE(CsrGraphView::WantsBitset(
      CsrGraphView::kBitsetMaxVertices + 1,
      100 * CsrGraphView::kBitsetMaxVertices));
  Graph path = PathGraph(std::vector<Label>(300, 0));
  EXPECT_FALSE(CsrGraphView(path).uses_bitset());
}

TEST(CsrViewTest, AssignReusesStorageAcrossGraphs) {
  Rng rng(13);
  CsrGraphView view;
  // Growing then shrinking then growing again must stay correct (the
  // buffers deliberately keep their capacity warm).
  for (size_t n : {20u, 5u, 35u}) {
    const Graph g = RandomConnectedGraph(rng, n, n / 2, 3);
    view.Assign(g);
    ASSERT_EQ(view.NumVertices(), g.NumVertices());
    for (VertexId u = 0; u < g.NumVertices(); ++u) {
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        ASSERT_EQ(view.HasEdge(u, v), g.HasEdge(u, v));
      }
    }
  }
}

TEST(UllmannTest, AgreesOnHandCases) {
  UllmannMatcher ullmann;
  EXPECT_TRUE(ullmann.Contains(Triangle(), Triangle()));
  EXPECT_FALSE(ullmann.Contains(Triangle(), PathGraph({0, 0, 0, 0})));
  EXPECT_TRUE(ullmann.Contains(PathGraph({1, 2}), PathGraph({2, 1, 3})));
  EXPECT_TRUE(ullmann.Contains(Graph(), Triangle()));
}

// Property: VF2 and Ullmann agree on random instances (positive pairs by
// construction and random pairs that may or may not match).
class MatcherAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(MatcherAgreementTest, Vf2MatchesUllmann) {
  Rng rng(1000 + GetParam());
  Vf2Matcher vf2;
  UllmannMatcher ullmann;

  Graph target = RandomConnectedGraph(rng, 14, 8, 3);
  // Positive instance.
  Graph sub = RandomSubgraphOf(rng, target, 5);
  EXPECT_TRUE(vf2.Contains(sub, target));
  EXPECT_TRUE(ullmann.Contains(sub, target));
  // A permuted copy is still a subgraph.
  Graph permuted = PermuteVertices(rng, sub);
  EXPECT_TRUE(vf2.Contains(permuted, target));
  // Random (possibly negative) instance: the two algorithms must agree.
  Graph random_pattern = RandomConnectedGraph(rng, 5, 3, 3);
  EXPECT_EQ(vf2.Contains(random_pattern, target),
            ullmann.Contains(random_pattern, target));
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, MatcherAgreementTest,
                         ::testing::Range(0, 30));

TEST(CostModelTest, ZeroWhenPatternLarger) {
  EXPECT_TRUE(IsomorphismCost(5, 10, 4).IsZero());
}

TEST(CostModelTest, MatchesClosedFormSmall) {
  // L=2, n=2, Ni=3: c = 3 * 3! / (2^3 * 1!) = 18/8 = 2.25.
  EXPECT_NEAR(IsomorphismCost(2, 2, 3).ToLinear(), 2.25, 1e-9);
}

TEST(CostModelTest, SingleLabelNoPenalty) {
  // L=1: c = Ni * Ni!/(Ni-n)!.
  EXPECT_NEAR(IsomorphismCost(1, 1, 3).ToLinear(), 9.0, 1e-9);
}

TEST(CostModelTest, MonotoneInTargetSize) {
  const LogValue small = IsomorphismCost(10, 5, 50);
  const LogValue big = IsomorphismCost(10, 5, 500);
  EXPECT_TRUE(big > small);
}

TEST(CostModelTest, DecreasingInLabelCount) {
  const LogValue few_labels = IsomorphismCost(2, 5, 50);
  const LogValue many_labels = IsomorphismCost(40, 5, 50);
  EXPECT_TRUE(few_labels > many_labels);
}

TEST(CostModelTest, HugeValuesStayFinite) {
  // Paper-scale: Ni = 3000, n = 20 — astronomically large in linear space.
  const LogValue cost = IsomorphismCost(10, 20, 3000);
  EXPECT_TRUE(std::isfinite(cost.log()));
  EXPECT_GT(cost.log(), 0.0);
}

}  // namespace
}  // namespace igq
