// Tests for the unified query API: the two-direction MethodRegistry, the
// one-stream batch (ProcessConcurrent with one stream must equal per-query
// Process), IgqOptions validation at engine construction, the persistent
// verification pool, and supergraph-direction parity with the long-standing
// subgraph coverage.
#include <gtest/gtest.h>

#include <algorithm>

#include "datasets/profiles.h"
#include "igq/engine.h"
#include "igq/verify_pool.h"
#include "methods/feature_count_index.h"
#include "methods/registry.h"
#include "tests/test_util.h"
#include "workload/query_generator.h"

namespace igq {
namespace {

using testing::BruteForceSupergraphAnswer;
using testing::RandomConnectedGraph;

GraphDatabase MakeDb(uint64_t seed, size_t num_graphs = 25) {
  Rng rng(seed);
  GraphDatabase db;
  for (size_t i = 0; i < num_graphs; ++i) {
    db.graphs.push_back(
        RandomConnectedGraph(rng, 12 + rng.Below(10), 5 + rng.Below(8), 3));
  }
  db.RefreshLabelCount();
  return db;
}

// ---- MethodRegistry: both directions round-trip. ----

TEST(MethodRegistryTest, RoundTripBothDirections) {
  for (QueryDirection direction :
       {QueryDirection::kSubgraph, QueryDirection::kSupergraph}) {
    const auto names = MethodRegistry::Known(direction);
    ASSERT_FALSE(names.empty()) << QueryDirectionName(direction);
    for (const std::string& name : names) {
      auto method = MethodRegistry::Create(direction, name);
      ASSERT_NE(method, nullptr) << name;
      EXPECT_EQ(method->Direction(), direction) << name;
      EXPECT_FALSE(method->Name().empty()) << name;
    }
  }
}

TEST(MethodRegistryTest, DirectionsDoNotLeakIntoEachOther) {
  for (const std::string& name :
       MethodRegistry::Known(QueryDirection::kSubgraph)) {
    EXPECT_EQ(MethodRegistry::Create(QueryDirection::kSupergraph, name),
              nullptr)
        << name;
  }
  for (const std::string& name :
       MethodRegistry::Known(QueryDirection::kSupergraph)) {
    EXPECT_EQ(MethodRegistry::Create(QueryDirection::kSubgraph, name), nullptr)
        << name;
  }
  EXPECT_EQ(MethodRegistry::Create(QueryDirection::kSubgraph, "nope"), nullptr);
  EXPECT_EQ(MethodRegistry::Create(QueryDirection::kSupergraph, "nope"),
            nullptr);
}

TEST(MethodRegistryTest, DefaultsCarryPaperConfiguration) {
  EXPECT_EQ(
      MethodRegistry::Defaults(QueryDirection::kSubgraph, "grapes6")
          .verify_threads,
      6u);
  EXPECT_EQ(
      MethodRegistry::Defaults(QueryDirection::kSubgraph, "grapes")
          .verify_threads,
      1u);
  EXPECT_EQ(
      MethodRegistry::Defaults(QueryDirection::kSupergraph, "featurecount")
          .verify_threads,
      1u);
}

// ---- IgqOptions validation at engine construction. ----

TEST(OptionsValidationTest, WindowClampedToCapacity) {
  GraphDatabase db = MakeDb(1, 5);
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  method->Build(db);
  IgqOptions options;
  options.cache_capacity = 10;
  options.window_size = 50;  // violates the documented invariant
  QueryEngine engine(db, method.get(), options);
  EXPECT_EQ(engine.options().window_size, 10u);
  EXPECT_EQ(engine.options().cache_capacity, 10u);
}

TEST(OptionsValidationTest, ZeroesClampedToOne) {
  GraphDatabase db = MakeDb(2, 5);
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  method->Build(db);
  IgqOptions options;
  options.cache_capacity = 0;
  options.window_size = 0;
  options.verify_threads = 0;
  QueryEngine engine(db, method.get(), options);
  EXPECT_EQ(engine.options().cache_capacity, 1u);
  EXPECT_EQ(engine.options().window_size, 1u);
  EXPECT_EQ(engine.options().verify_threads, 1u);
  // And the engine still answers correctly with the clamped geometry.
  Rng rng(3);
  const Graph query = testing::RandomSubgraphOf(rng, db.graphs[0], 5);
  EXPECT_EQ(engine.Process(query),
            testing::BruteForceSubgraphAnswer(db.graphs, query));
}

TEST(OptionsValidationTest, AdmissionImpliesWaitersAndSafetyDeadline) {
  GraphDatabase db = MakeDb(6, 5);
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  method->Build(db);
  IgqOptions options;
  options.serving.admission_watermark = 100;
  options.serving.admission_max_waiters = 0;  // queue nothing = shed all
  QueryEngine engine(db, method.get(), options);
  // Shedding enabled with a zero-slot queue would reject every query that
  // ever has to wait; clamp to one slot.
  EXPECT_EQ(engine.options().serving.admission_max_waiters, 1u);
  // A request without a deadline gets a safety one while admission is on,
  // so it is limited and passes admission instead of bypassing it.
  Rng rng(7);
  const Graph query = testing::RandomSubgraphOf(rng, db.graphs[0], 5);
  const QueryResult result =
      engine.ProcessWithBudget(query, serving::QueryRequest{});
  EXPECT_EQ(result.outcome.kind, serving::QueryOutcomeKind::kCompleted);
  EXPECT_EQ(result.answer, testing::BruteForceSubgraphAnswer(db.graphs, query));
  EXPECT_EQ(engine.admission_stats().admitted, 1u);
}

// ---- GraphDatabase::RefreshLabelCount edge cases. ----

TEST(GraphDatabaseTest, RefreshLabelCountToleratesEmptyDatabase) {
  GraphDatabase db;
  db.num_labels = 99;  // stale value must be reset
  db.RefreshLabelCount();
  EXPECT_EQ(db.num_labels, 0u);
}

TEST(GraphDatabaseTest, RefreshLabelCountToleratesEmptyGraphs) {
  GraphDatabase db;
  db.graphs.emplace_back();  // zero-vertex graph
  db.RefreshLabelCount();
  EXPECT_EQ(db.num_labels, 0u);

  db.graphs.push_back(testing::PathGraph({4, 4, 7}));
  db.RefreshLabelCount();
  EXPECT_EQ(db.num_labels, 2u);
}

// ---- VerifyPool: pooled result equals the sequential filter. ----

TEST(VerifyPoolTest, MatchesSequentialFilter) {
  std::vector<GraphId> candidates;
  for (GraphId id = 0; id < 200; ++id) candidates.push_back(id);
  auto keep = [](GraphId id) { return id % 3 == 0 || id % 7 == 0; };

  std::vector<GraphId> expected;
  for (GraphId id : candidates) {
    if (keep(id)) expected.push_back(id);
  }

  for (size_t threads : {1u, 2u, 4u, 8u}) {
    VerifyPool pool(threads);
    EXPECT_EQ(pool.Run(candidates, keep), expected) << threads << " threads";
    // The pool is persistent: a second task through the same pool works.
    EXPECT_EQ(pool.Run(candidates, keep), expected) << threads << " threads";
  }
  VerifyPool pool(4);
  EXPECT_TRUE(pool.Run({}, keep).empty());
}

// ---- One-stream batch == per-query Process (the acceptance criterion). ----

TEST(ProcessBatchTest, MatchesSequentialProcessOnAidsWorkload) {
  const GraphDatabase db = MakeDataset("aids", 0.01, 5);  // 60 graphs
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  method->Build(db);

  const WorkloadSpec spec = MakeWorkloadSpec("zipf-zipf", 1.4, 40, 17);
  std::vector<Graph> queries;
  for (const WorkloadQuery& wq : GenerateWorkload(db.graphs, spec)) {
    queries.push_back(wq.graph);
  }

  IgqOptions options;
  options.cache_capacity = 20;
  options.window_size = 5;

  QueryEngine sequential(db, method.get(), options);
  std::vector<std::vector<GraphId>> expected;
  std::vector<QueryStats> expected_stats(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    expected.push_back(sequential.Process(queries[i], &expected_stats[i]));
  }

  QueryEngine batched(db, method.get(), options);
  const std::vector<QueryResult> results =
      batched.ProcessConcurrent(queries, /*streams=*/1);
  ASSERT_EQ(results.size(), queries.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].answer, expected[i]) << "query " << i;
    EXPECT_EQ(results[i].stats.answer_size, expected_stats[i].answer_size);
    EXPECT_EQ(results[i].stats.iso_tests, expected_stats[i].iso_tests);
    EXPECT_EQ(results[i].stats.shortcut, expected_stats[i].shortcut);
  }
}

TEST(ProcessBatchTest, PooledBatchMatchesSingleThreaded) {
  const GraphDatabase db = MakeDataset("aids", 0.008, 9);  // 48 graphs
  auto m1 = MethodRegistry::Create(QueryDirection::kSubgraph, "grapes");
  auto m2 = MethodRegistry::Create(QueryDirection::kSubgraph, "grapes");
  m1->Build(db);
  m2->Build(db);

  const WorkloadSpec spec = MakeWorkloadSpec("uni-uni", 1.4, 25, 23);
  std::vector<Graph> queries;
  for (const WorkloadQuery& wq : GenerateWorkload(db.graphs, spec)) {
    queries.push_back(wq.graph);
  }

  IgqOptions serial_options;
  serial_options.verify_threads = 1;
  IgqOptions pooled_options;
  pooled_options.verify_threads = 4;

  QueryEngine serial(db, m1.get(), serial_options);
  QueryEngine pooled(db, m2.get(), pooled_options);
  const auto serial_results =
      serial.ProcessConcurrent(queries, /*streams=*/1);
  const auto pooled_results =
      pooled.ProcessConcurrent(queries, /*streams=*/1);
  ASSERT_EQ(serial_results.size(), pooled_results.size());
  for (size_t i = 0; i < serial_results.size(); ++i) {
    EXPECT_EQ(serial_results[i].answer, pooled_results[i].answer)
        << "query " << i;
  }
}

TEST(ProcessBatchTest, SupergraphBatchMatchesSequential) {
  const GraphDatabase db = MakeDataset("aids", 0.003, 42);  // 18 graphs
  auto method =
      MethodRegistry::Create(QueryDirection::kSupergraph, "featurecount");
  method->Build(db);

  Rng rng(31);
  std::vector<Graph> queries;
  for (int i = 0; i < 30; ++i) {
    if (i % 4 == 0 && !queries.empty()) {
      queries.push_back(queries[rng.Below(queries.size())]);  // repeat
    } else {
      queries.push_back(db.graphs[rng.Below(db.graphs.size())]);
    }
  }

  IgqOptions options;
  options.cache_capacity = 10;
  options.window_size = 4;
  QueryEngine sequential(db, method.get(), options);
  QueryEngine batched(db, method.get(), options);
  EXPECT_EQ(batched.direction(), QueryDirection::kSupergraph);

  std::vector<std::vector<GraphId>> expected;
  for (const Graph& query : queries) {
    expected.push_back(sequential.Process(query));
  }
  const auto results = batched.ProcessConcurrent(queries, /*streams=*/1);
  ASSERT_EQ(results.size(), queries.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].answer, expected[i]) << "query " << i;
    EXPECT_EQ(results[i].answer,
              BruteForceSupergraphAnswer(db.graphs, queries[i]))
        << "query " << i;
  }
}

// ---- Supergraph-direction parity with the subgraph engine coverage. ----

TEST(SupergraphParityTest, ParallelVerifyEquivalent) {
  GraphDatabase db = MakeDb(51, 20);
  FeatureCountSupergraphMethod serial_method;
  FeatureCountSupergraphMethod pooled_method;
  serial_method.Build(db);
  pooled_method.Build(db);

  IgqOptions serial_options;
  serial_options.verify_threads = 1;
  IgqOptions pooled_options;
  pooled_options.verify_threads = 4;
  QueryEngine serial(db, &serial_method, serial_options);
  QueryEngine pooled(db, &pooled_method, pooled_options);

  Rng rng(52);
  for (int round = 0; round < 15; ++round) {
    const Graph query = RandomConnectedGraph(rng, 18 + rng.Below(8),
                                             10 + rng.Below(8), 3);
    EXPECT_EQ(serial.Process(query), pooled.Process(query))
        << "round " << round;
  }
}

TEST(SupergraphParityTest, EmptyAnswerShortcut) {
  // Dataset graphs are all larger than the queries, so no dataset graph can
  // be contained in them: supergraph answers are empty. After the first
  // query is cached, a subgraph of it must resolve through the §4.3
  // empty-answer shortcut with zero dataset isomorphism tests.
  GraphDatabase db = MakeDb(55, 10);
  FeatureCountSupergraphMethod method;
  method.Build(db);
  IgqOptions options;
  options.window_size = 1;  // flush after every query
  QueryEngine engine(db, &method, options);

  Rng rng(56);
  const Graph first = RandomConnectedGraph(rng, 8, 4, 3);
  QueryStats first_stats;
  const auto first_answer = engine.Process(first, &first_stats);
  ASSERT_TRUE(first_answer.empty()) << "test premise: empty answer";

  // A connected subgraph of the first query (one BFS hop smaller).
  const Graph smaller = BfsNeighborhoodQuery(first, 0, 3);
  QueryStats stats;
  const auto answer = engine.Process(smaller, &stats);
  EXPECT_TRUE(answer.empty());
  if (stats.isub_hits > 0) {
    EXPECT_EQ(stats.shortcut, ShortcutKind::kEmptyAnswerPruning);
    EXPECT_EQ(stats.iso_tests, 0u);
  }
}

TEST(SupergraphParityTest, GuaranteedAnswersPruneVerification) {
  // Supergraph role inversion: after a query g1 is cached, a supergraph
  // g2 ⊇ g1 inherits g1's answers as guaranteed (Gi ⊆ g1 ⊆ g2) and must
  // not re-verify them.
  GraphDatabase db;
  Rng rng(57);
  for (int i = 0; i < 15; ++i) {
    db.graphs.push_back(RandomConnectedGraph(rng, 6, 2, 2));
  }
  db.RefreshLabelCount();
  FeatureCountSupergraphMethod method;
  method.Build(db);
  IgqOptions options;
  options.window_size = 1;
  QueryEngine engine(db, &method, options);

  const Graph big = RandomConnectedGraph(rng, 30, 25, 2);
  const Graph small = BfsNeighborhoodQuery(big, 0, 18);

  QueryStats small_stats;
  const auto small_answer = engine.Process(small, &small_stats);
  QueryStats big_stats;
  const auto big_answer = engine.Process(big, &big_stats);
  EXPECT_EQ(big_answer, BruteForceSupergraphAnswer(db.graphs, big));
  if (big_stats.isuper_hits > 0 && !small_answer.empty() &&
      big_stats.shortcut == ShortcutKind::kNone) {
    // Every answer of the cached subgraph query is inherited, not retested.
    EXPECT_LT(big_stats.iso_tests, big_stats.candidates_initial);
    for (GraphId id : small_answer) {
      EXPECT_TRUE(
          std::binary_search(big_answer.begin(), big_answer.end(), id));
    }
  }
}

TEST(SupergraphParityTest, PreparedQueryAmortizesFeatureExtraction) {
  // The unified contract gives supergraph methods Prepare(): Filter must
  // consume the prepared features rather than re-extracting them.
  GraphDatabase db = MakeDb(58, 12);
  FeatureCountSupergraphMethod method;
  method.Build(db);
  Rng rng(59);
  const Graph query = RandomConnectedGraph(rng, 20, 12, 3);
  auto prepared = method.Prepare(query);
  const auto via_prepared = method.Filter(*prepared);
  std::vector<GraphId> verified;
  for (GraphId id : via_prepared) {
    if (method.Verify(*prepared, id)) verified.push_back(id);
  }
  std::sort(verified.begin(), verified.end());
  EXPECT_EQ(verified, BruteForceSupergraphAnswer(db.graphs, query));
}

}  // namespace
}  // namespace igq
