// Correctness tests for the iGQ query engine — the experimental embodiment of
// Theorems 1 and 2: with the cache in arbitrary states, iGQ's answers must
// equal the brute-force answers (no false positives, no false negatives),
// for both subgraph and supergraph queries, across all host methods.
#include <gtest/gtest.h>

#include <algorithm>

#include "igq/engine.h"
#include "methods/feature_count_index.h"
#include "methods/registry.h"
#include "tests/test_util.h"

namespace igq {
namespace {

using testing::BruteForceSubgraphAnswer;
using testing::BruteForceSupergraphAnswer;
using testing::RandomConnectedGraph;
using testing::RandomSubgraphOf;

GraphDatabase MakeDb(uint64_t seed, size_t num_graphs = 30) {
  Rng rng(seed);
  GraphDatabase db;
  for (size_t i = 0; i < num_graphs; ++i) {
    db.graphs.push_back(
        RandomConnectedGraph(rng, 10 + rng.Below(14), 4 + rng.Below(10), 3));
  }
  db.RefreshLabelCount();
  return db;
}

// A workload engineered to exercise every iGQ path: nested query chains
// (q_small ⊆ q_big), exact repeats, and random probes.
std::vector<Graph> MakeNestedWorkload(const GraphDatabase& db, uint64_t seed,
                                      size_t count) {
  Rng rng(seed);
  std::vector<Graph> queries;
  while (queries.size() < count) {
    const Graph& source = db.graphs[rng.Below(db.graphs.size())];
    const VertexId seed_node =
        static_cast<VertexId>(rng.Below(source.NumVertices()));
    // Chain of nested BFS queries from the same seed: guarantees sub/super
    // relationships among consecutive workload entries.
    for (size_t edges : {4u, 8u, 12u}) {
      queries.push_back(BfsNeighborhoodQuery(source, seed_node, edges));
    }
    if (rng.Chance(0.3) && !queries.empty()) {
      queries.push_back(queries[rng.Below(queries.size())]);  // exact repeat
    }
    if (rng.Chance(0.3)) {
      queries.push_back(RandomConnectedGraph(rng, 6, 3, 3));  // random probe
    }
  }
  queries.resize(count);
  return queries;
}

class IgqEquivalenceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(IgqEquivalenceTest, AnswersMatchBruteForceAcrossCacheStates) {
  GraphDatabase db = MakeDb(101);
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, GetParam());
  ASSERT_NE(method, nullptr);
  method->Build(db);

  IgqOptions options;
  options.cache_capacity = 8;  // tiny cache: forces evictions mid-run
  options.window_size = 3;
  QueryEngine engine(db, method.get(), options);

  const std::vector<Graph> workload = MakeNestedWorkload(db, 55, 60);
  for (size_t i = 0; i < workload.size(); ++i) {
    QueryStats stats;
    const std::vector<GraphId> answer = engine.Process(workload[i], &stats);
    EXPECT_EQ(answer, BruteForceSubgraphAnswer(db.graphs, workload[i]))
        << GetParam() << " query " << i;
    EXPECT_LE(stats.candidates_final, stats.candidates_initial);
    EXPECT_EQ(stats.iso_tests, stats.candidates_final);
  }
}

TEST_P(IgqEquivalenceTest, DisabledEngineIsPlainBaseline) {
  GraphDatabase db = MakeDb(7, 15);
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, GetParam());
  method->Build(db);
  IgqOptions options;
  options.enabled = false;
  QueryEngine engine(db, method.get(), options);

  Rng rng(70);
  for (int round = 0; round < 10; ++round) {
    const Graph query =
        RandomSubgraphOf(rng, db.graphs[rng.Below(db.graphs.size())], 6);
    QueryStats stats;
    EXPECT_EQ(engine.Process(query, &stats),
              BruteForceSubgraphAnswer(db.graphs, query));
    EXPECT_EQ(stats.candidates_initial, stats.candidates_final);
    EXPECT_EQ(engine.cache().size(), 0u);
    EXPECT_EQ(stats.probe_iso_tests, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, IgqEquivalenceTest,
    ::testing::ValuesIn(MethodRegistry::Known(QueryDirection::kSubgraph)));

TEST(IgqEngineTest, ExactRepeatTakesShortcutAndSkipsVerification) {
  GraphDatabase db = MakeDb(5);
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  method->Build(db);
  IgqOptions options;
  options.cache_capacity = 16;
  options.window_size = 2;
  QueryEngine engine(db, method.get(), options);

  Rng rng(12);
  const Graph query = RandomSubgraphOf(rng, db.graphs[0], 8);
  QueryStats first_stats;
  const auto first_answer = engine.Process(query, &first_stats);
  EXPECT_EQ(first_stats.shortcut, ShortcutKind::kNone);

  // Push one more query to flush the window (W = 2) into the cache.
  engine.Process(RandomSubgraphOf(rng, db.graphs[1], 4));

  QueryStats repeat_stats;
  const auto repeat_answer = engine.Process(query, &repeat_stats);
  EXPECT_EQ(repeat_stats.shortcut, ShortcutKind::kExactHit);
  EXPECT_EQ(repeat_answer, first_answer);
  EXPECT_EQ(repeat_stats.iso_tests, 0u);
}

TEST(IgqEngineTest, EmptyAnswerSupergraphShortcut) {
  GraphDatabase db = MakeDb(9);
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  method->Build(db);
  IgqOptions options;
  options.window_size = 1;  // flush after every query
  QueryEngine engine(db, method.get(), options);

  // A query whose labels exist but whose structure matches nothing: a long
  // chain alternating two labels with a rare third in the middle, denser
  // than anything in the dataset.
  Graph impossible;
  for (int i = 0; i < 8; ++i) impossible.AddVertex(i % 3);
  for (VertexId v = 1; v < 8; ++v) {
    impossible.AddEdge(v, v - 1);
    if (v >= 2) impossible.AddEdge(v, v - 2);
  }
  QueryStats stats;
  const auto answer = engine.Process(impossible, &stats);
  ASSERT_TRUE(answer.empty()) << "test premise: no dataset match";

  // A supergraph of the impossible query can be answered with zero tests.
  Graph bigger = impossible;
  const VertexId extra = bigger.AddVertex(0);
  bigger.AddEdge(extra, 0);
  QueryStats super_stats;
  const auto super_answer = engine.Process(bigger, &super_stats);
  EXPECT_TRUE(super_answer.empty());
  EXPECT_EQ(super_stats.shortcut, ShortcutKind::kEmptyAnswerPruning);
  EXPECT_EQ(super_stats.iso_tests, 0u);
  EXPECT_GE(super_stats.isuper_hits, 1u);
}

TEST(IgqEngineTest, SubgraphCasePrunesKnownAnswers) {
  GraphDatabase db = MakeDb(33);
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  method->Build(db);
  IgqOptions options;
  options.window_size = 1;
  QueryEngine engine(db, method.get(), options);

  Rng rng(44);
  // Big query first; its subgraph afterwards. The sub-query's candidates
  // that appear in the big query's answer must be skipped (formula (3)).
  const Graph& source = db.graphs[2];
  const Graph big = BfsNeighborhoodQuery(source, 0, 12);
  const auto big_answer = engine.Process(big);

  const Graph small = BfsNeighborhoodQuery(source, 0, 4);
  QueryStats stats;
  const auto small_answer = engine.Process(small, &stats);
  EXPECT_EQ(small_answer, BruteForceSubgraphAnswer(db.graphs, small));
  if (stats.isub_hits > 0) {
    EXPECT_LT(stats.iso_tests, stats.candidates_initial);
    // All of the big query's answers must be in the small query's answer.
    for (GraphId id : big_answer) {
      EXPECT_TRUE(std::binary_search(small_answer.begin(), small_answer.end(),
                                     id));
    }
  }
}

TEST(IgqEngineTest, StatsTimingFieldsPopulated) {
  GraphDatabase db = MakeDb(3, 10);
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  method->Build(db);
  QueryEngine engine(db, method.get(), IgqOptions{});
  Rng rng(1);
  QueryStats stats;
  engine.Process(RandomSubgraphOf(rng, db.graphs[0], 6), &stats);
  EXPECT_GE(stats.total_micros, 0);
  EXPECT_GE(stats.filter_micros, 0);
  EXPECT_LE(stats.filter_micros + stats.probe_micros + stats.verify_micros,
            stats.total_micros + 2000);  // slack for timer granularity
}

TEST(IgqEngineTest, ParallelVerifyEquivalent) {
  GraphDatabase db = MakeDb(13);
  auto serial_method =
      MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  auto parallel_method =
      MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  serial_method->Build(db);
  parallel_method->Build(db);
  IgqOptions serial_options;
  serial_options.verify_threads = 1;
  IgqOptions parallel_options;
  parallel_options.verify_threads = 4;
  QueryEngine serial(db, serial_method.get(), serial_options);
  QueryEngine parallel(db, parallel_method.get(), parallel_options);

  const std::vector<Graph> workload = MakeNestedWorkload(db, 21, 30);
  for (const Graph& query : workload) {
    EXPECT_EQ(serial.Process(query), parallel.Process(query));
  }
}

TEST(IgqEngineTest, MetadataCreditsAccumulate) {
  GraphDatabase db = MakeDb(23);
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  method->Build(db);
  IgqOptions options;
  options.window_size = 1;
  QueryEngine engine(db, method.get(), options);

  const Graph big = BfsNeighborhoodQuery(db.graphs[0], 0, 12);
  engine.Process(big);
  ASSERT_EQ(engine.cache().size(), 1u);

  const Graph small = BfsNeighborhoodQuery(db.graphs[0], 0, 4);
  QueryStats stats;
  engine.Process(small, &stats);
  if (stats.isub_hits > 0) {
    // Position 0 held `big` when `small` was processed and must have been
    // credited with the hit (entries may have been reshuffled afterwards by
    // the flush, so locate it by graph).
    bool found_credit = false;
    for (const CachedQuery& entry : engine.cache().Entries()) {
      if (entry.graph == big && entry.meta.hits >= 1) found_credit = true;
    }
    EXPECT_TRUE(found_credit);
  }
}

// ---- Supergraph engine (§4.4). ----

TEST(SupergraphQueryEngineTest, AnswersMatchBruteForce) {
  GraphDatabase db = MakeDb(201, 22);
  FeatureCountSupergraphMethod method;
  method.Build(db);
  IgqOptions options;
  options.cache_capacity = 8;
  options.window_size = 3;
  QueryEngine engine(db, &method, options);

  Rng rng(77);
  std::vector<Graph> workload;
  for (int i = 0; i < 40; ++i) {
    if (i % 3 == 0 && !workload.empty()) {
      workload.push_back(workload[rng.Below(workload.size())]);  // repeat
    } else {
      // Supergraph queries must be large-ish to contain dataset graphs.
      workload.push_back(RandomConnectedGraph(rng, 16 + rng.Below(10),
                                              8 + rng.Below(10), 3));
    }
  }
  for (size_t i = 0; i < workload.size(); ++i) {
    QueryStats stats;
    const auto answer = engine.Process(workload[i], &stats);
    EXPECT_EQ(answer, BruteForceSupergraphAnswer(db.graphs, workload[i]))
        << "query " << i;
  }
}

TEST(SupergraphQueryEngineTest, ExactRepeatShortcut) {
  GraphDatabase db = MakeDb(205, 12);
  FeatureCountSupergraphMethod method;
  method.Build(db);
  IgqOptions options;
  options.window_size = 1;
  QueryEngine engine(db, &method, options);

  Rng rng(3);
  const Graph query = RandomConnectedGraph(rng, 20, 12, 3);
  const auto first = engine.Process(query);
  QueryStats stats;
  const auto second = engine.Process(query, &stats);
  EXPECT_EQ(stats.shortcut, ShortcutKind::kExactHit);
  EXPECT_EQ(first, second);
  EXPECT_EQ(stats.iso_tests, 0u);
}

TEST(SupergraphQueryEngineTest, DisabledMatchesBaseline) {
  GraphDatabase db = MakeDb(209, 12);
  FeatureCountSupergraphMethod method;
  method.Build(db);
  IgqOptions options;
  options.enabled = false;
  QueryEngine engine(db, &method, options);
  Rng rng(4);
  for (int i = 0; i < 8; ++i) {
    const Graph query = RandomConnectedGraph(rng, 18, 10, 3);
    EXPECT_EQ(engine.Process(query),
              BruteForceSupergraphAnswer(db.graphs, query));
  }
}

}  // namespace
}  // namespace igq
