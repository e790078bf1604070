// Edge-case tests for the iGQ query engine and cache: degenerate datasets and
// queries, window/capacity corner configurations, nested pruning chains,
// and embedding-count cross-checks against an independent reference.
#include <gtest/gtest.h>

#include <algorithm>

#include "graph/algorithms.h"
#include "igq/engine.h"
#include "methods/ggsx.h"
#include "methods/grapes.h"
#include "tests/oracle/vf2.h"
#include "tests/test_util.h"

namespace igq {
namespace {

using testing::PathGraph;
using testing::RandomConnectedGraph;
using testing::Triangle;

TEST(EngineEdgeCaseTest, EmptyDataset) {
  GraphDatabase db;
  db.RefreshLabelCount();
  GgsxMethod method;
  method.Build(db);
  QueryEngine engine(db, &method, IgqOptions{});
  EXPECT_TRUE(engine.Process(Triangle()).empty());
}

TEST(EngineEdgeCaseTest, QueryLargerThanEveryGraph) {
  GraphDatabase db;
  db.graphs.push_back(Triangle());
  db.graphs.push_back(PathGraph({0, 0}));
  db.RefreshLabelCount();
  GgsxMethod method;
  method.Build(db);
  QueryEngine engine(db, &method, IgqOptions{});
  const Graph big = PathGraph(std::vector<Label>(30, 0));
  QueryStats stats;
  EXPECT_TRUE(engine.Process(big, &stats).empty());
  EXPECT_EQ(stats.iso_tests, 0u);  // filtered out before verification
}

TEST(EngineEdgeCaseTest, SingleVertexQuery) {
  GraphDatabase db;
  db.graphs.push_back(PathGraph({5, 6}));
  db.graphs.push_back(PathGraph({6, 7}));
  db.RefreshLabelCount();
  GgsxMethod method;
  method.Build(db);
  QueryEngine engine(db, &method, IgqOptions{});
  Graph v;
  v.AddVertex(6);
  const std::vector<GraphId> expected{0, 1};
  EXPECT_EQ(engine.Process(v), expected);
}

TEST(EngineEdgeCaseTest, DisconnectedQuery) {
  GraphDatabase db;
  Graph host(6);
  host.AddEdge(0, 1);
  host.AddEdge(2, 3);
  host.AddEdge(4, 5);
  db.graphs.push_back(host);
  db.graphs.push_back(PathGraph({0, 0}));  // only one edge
  db.RefreshLabelCount();
  GgsxMethod method;
  method.Build(db);
  QueryEngine engine(db, &method, IgqOptions{});
  Graph two_edges(4);
  two_edges.AddEdge(0, 1);
  two_edges.AddEdge(2, 3);
  const std::vector<GraphId> expected{0};
  EXPECT_EQ(engine.Process(two_edges), expected);
}

TEST(EngineEdgeCaseTest, WindowEqualsCapacity) {
  GraphDatabase db;
  Rng rng(5);
  for (int i = 0; i < 10; ++i) {
    db.graphs.push_back(RandomConnectedGraph(rng, 12, 5, 3));
  }
  db.RefreshLabelCount();
  GgsxMethod method;
  method.Build(db);
  IgqOptions options;
  options.cache_capacity = 4;
  options.window_size = 4;  // W == C: every flush replaces everything
  QueryEngine engine(db, &method, options);
  for (int round = 0; round < 20; ++round) {
    const Graph query = testing::RandomSubgraphOf(
        rng, db.graphs[rng.Below(db.graphs.size())], 5);
    EXPECT_EQ(engine.Process(query),
              testing::BruteForceSubgraphAnswer(db.graphs, query));
    EXPECT_LE(engine.cache().size(), 4u);
  }
}

TEST(EngineEdgeCaseTest, NestedChainPrunesTransitively) {
  // Process q20, then q12 ⊆ q20, then q4 ⊆ q12: the smallest query should
  // see pruning from *both* cached supergraphs.
  GraphDatabase db;
  Rng rng(8);
  for (int i = 0; i < 20; ++i) {
    db.graphs.push_back(RandomConnectedGraph(rng, 30, 15, 2));
  }
  db.RefreshLabelCount();
  GgsxMethod method;
  method.Build(db);
  IgqOptions options;
  options.window_size = 1;  // flush immediately
  QueryEngine engine(db, &method, options);

  const Graph& source = db.graphs[0];
  engine.Process(BfsNeighborhoodQuery(source, 0, 20));
  engine.Process(BfsNeighborhoodQuery(source, 0, 12));
  QueryStats stats;
  const Graph q4 = BfsNeighborhoodQuery(source, 0, 4);
  const auto answer = engine.Process(q4, &stats);
  EXPECT_EQ(answer, testing::BruteForceSubgraphAnswer(db.graphs, q4));
  EXPECT_GE(stats.isub_hits, 2u);
}

TEST(EngineEdgeCaseTest, StatsResetBetweenQueries) {
  GraphDatabase db;
  db.graphs.push_back(Triangle());
  db.RefreshLabelCount();
  GgsxMethod method;
  method.Build(db);
  QueryEngine engine(db, &method, IgqOptions{});
  QueryStats stats;
  engine.Process(Triangle(), &stats);
  const size_t first_tests = stats.iso_tests;
  engine.Process(PathGraph({9, 9}), &stats);  // label not in dataset
  EXPECT_EQ(stats.iso_tests, 0u);
  EXPECT_LE(stats.iso_tests, first_tests);
}

TEST(EngineEdgeCaseTest, GrapesVerifyOnMultiComponentCandidates) {
  // A dataset graph with several components, only one of which contains the
  // query: Grapes' component-restricted verification must still find it.
  GraphDatabase db;
  Graph multi(9);
  // Component 1: triangle 0-1-2 (labels 0).
  multi.AddEdge(0, 1);
  multi.AddEdge(1, 2);
  multi.AddEdge(0, 2);
  // Component 2: path 3-4-5 labeled 1.
  multi.set_label(3, 1);
  multi.set_label(4, 1);
  multi.set_label(5, 1);
  multi.AddEdge(3, 4);
  multi.AddEdge(4, 5);
  // Component 3: isolated pair labeled 0.
  multi.AddEdge(6, 7);
  db.graphs.push_back(multi);
  db.RefreshLabelCount();

  GrapesMethod grapes(2);
  grapes.Build(db);
  auto prepared = grapes.Prepare(Triangle());
  const auto candidates = grapes.Filter(*prepared);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_TRUE(grapes.Verify(*prepared, 0));

  Graph path1 = PathGraph({1, 1, 1});
  auto prepared2 = grapes.Prepare(path1);
  EXPECT_TRUE(grapes.Verify(*prepared2, 0));
}

TEST(Vf2CrossCheckTest, CountMatchesExhaustiveEnumeration) {
  // Independent reference: count label-preserving monomorphisms by brute
  // force over all injective vertex assignments (tiny sizes only).
  Rng rng(4242);
  for (int round = 0; round < 30; ++round) {
    const Graph target = RandomConnectedGraph(rng, 7, 3, 2);
    const Graph pattern = RandomConnectedGraph(rng, 3, 1, 2);
    // Brute force.
    uint64_t expected = 0;
    std::vector<VertexId> assignment(pattern.NumVertices());
    std::vector<bool> used(target.NumVertices(), false);
    std::function<void(size_t)> recurse = [&](size_t depth) {
      if (depth == pattern.NumVertices()) {
        ++expected;
        return;
      }
      for (VertexId x = 0; x < target.NumVertices(); ++x) {
        if (used[x] || pattern.label(depth) != target.label(x)) continue;
        bool ok = true;
        for (VertexId u = 0; u < depth && ok; ++u) {
          if (pattern.HasEdge(static_cast<VertexId>(depth), u) &&
              !target.HasEdge(x, assignment[u])) {
            ok = false;
          }
        }
        if (!ok) continue;
        assignment[depth] = x;
        used[x] = true;
        recurse(depth + 1);
        used[x] = false;
      }
    };
    recurse(0);
    EXPECT_EQ(Vf2Matcher::CountEmbeddings(pattern, target), expected)
        << "round " << round;
  }
}

}  // namespace
}  // namespace igq
