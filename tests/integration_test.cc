// End-to-end integration tests: realistic dataset profiles, paper-style
// workloads, full iGQ pipelines (both query types), serialization round
// trips through the query path, and cross-method answer agreement.
#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.h"
#include "datasets/profiles.h"
#include "graph/graph_io.h"
#include "igq/engine.h"
#include "methods/feature_count_index.h"
#include "methods/registry.h"
#include "tests/oracle/vf2.h"
#include "workload/query_generator.h"

namespace igq {
namespace {

// Reference answer using plain VF2 over the whole dataset (independent of
// any filtering logic).
std::vector<GraphId> Vf2Reference(const GraphDatabase& db, const Graph& query) {
  std::vector<GraphId> answer;
  for (GraphId i = 0; i < db.graphs.size(); ++i) {
    if (Vf2Matcher::FindEmbedding(query, db.graphs[i]).has_value()) {
      answer.push_back(i);
    }
  }
  return answer;
}

TEST(IntegrationTest, AidsProfileWorkloadThroughIgqGgsx) {
  const GraphDatabase db = MakeDataset("aids", 0.02, 123);  // 120 graphs
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  method->Build(db);
  IgqOptions options;
  options.cache_capacity = 30;
  options.window_size = 10;
  QueryEngine engine(db, method.get(), options);

  const WorkloadSpec spec = MakeWorkloadSpec("zipf-zipf", 1.4, 80, 9);
  const auto workload = GenerateWorkload(db.graphs, spec);
  size_t total_pruned = 0;
  for (const WorkloadQuery& wq : workload) {
    QueryStats stats;
    const auto answer = engine.Process(wq.graph, &stats);
    EXPECT_EQ(answer, Vf2Reference(db, wq.graph));
    total_pruned += stats.candidates_initial - stats.candidates_final;
  }
  // With a zipf-zipf workload the cache must prune a nonzero amount.
  EXPECT_GT(total_pruned, 0u);
}

TEST(IntegrationTest, AllMethodsAgreeOnAidsWorkload) {
  const GraphDatabase db = MakeDataset("aids", 0.01, 5);  // 60 graphs
  const WorkloadSpec spec = MakeWorkloadSpec("uni-uni", 1.4, 25, 31);
  const auto workload = GenerateWorkload(db.graphs, spec);

  std::vector<std::unique_ptr<Method>> methods;
  std::vector<std::unique_ptr<QueryEngine>> engines;
  for (const std::string& name :
       MethodRegistry::Known(QueryDirection::kSubgraph)) {
    methods.push_back(MethodRegistry::Create(QueryDirection::kSubgraph, name));
    methods.back()->Build(db);
    IgqOptions options;
    options.cache_capacity = 10;
    options.window_size = 5;
    engines.push_back(std::make_unique<QueryEngine>(
        db, methods.back().get(), options));
  }
  for (const WorkloadQuery& wq : workload) {
    const auto reference = engines[0]->Process(wq.graph);
    for (size_t m = 1; m < engines.size(); ++m) {
      EXPECT_EQ(engines[m]->Process(wq.graph), reference);
    }
  }
}

TEST(IntegrationTest, PdbsProfileVerificationDominates) {
  // The Fig. 1 premise: on large-graph datasets, verification time is the
  // bulk of query time. Validate the premise holds in this implementation.
  // (The zero-allocation matching core cut verification cost enough that a
  // 40-graph/20-query run is decided by noise; at this scale the premise
  // reasserts itself with a stable margin.)
  GraphDatabase db;
  PdbsLikeParams params;
  params.num_graphs = 200;
  params.avg_nodes = 500;
  db.graphs = MakePdbsLike(params, 77);
  db.RefreshLabelCount();
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  method->Build(db);
  IgqOptions options;
  options.enabled = false;
  QueryEngine engine(db, method.get(), options);

  const WorkloadSpec spec = MakeWorkloadSpec("uni-uni", 1.4, 60, 3);
  const auto workload = GenerateWorkload(db.graphs, spec);
  int64_t filter_total = 0, verify_total = 0;
  for (const WorkloadQuery& wq : workload) {
    QueryStats stats;
    engine.Process(wq.graph, &stats);
    filter_total += stats.filter_micros;
    verify_total += stats.verify_micros;
  }
  EXPECT_GT(verify_total, filter_total);
}

TEST(IntegrationTest, SupergraphPipelineOnAidsProfile) {
  const GraphDatabase small_db = MakeDataset("aids", 0.003, 42);  // 18 graphs
  FeatureCountSupergraphMethod method;
  method.Build(small_db);
  IgqOptions options;
  options.cache_capacity = 10;
  options.window_size = 4;
  QueryEngine engine(small_db, &method, options);

  // Supergraph queries: whole dataset graphs (guaranteed to contain
  // themselves) possibly repeated.
  Rng rng(11);
  for (int round = 0; round < 25; ++round) {
    const Graph& query = small_db.graphs[rng.Below(small_db.graphs.size())];
    std::vector<GraphId> expected;
    for (GraphId i = 0; i < small_db.graphs.size(); ++i) {
      if (Vf2Matcher::FindEmbedding(small_db.graphs[i], query).has_value()) {
        expected.push_back(i);
      }
    }
    EXPECT_EQ(engine.Process(query), expected) << "round " << round;
  }
}

TEST(IntegrationTest, DatasetSurvivesSerializationRoundTrip) {
  const GraphDatabase db = MakeDataset("aids", 0.005, 1);  // 30 graphs
  std::stringstream buffer;
  WriteGraphs(buffer, db.graphs);
  const auto loaded = ReadGraphs(buffer);
  ASSERT_TRUE(loaded.has_value());

  GraphDatabase db2;
  db2.graphs = *loaded;
  db2.RefreshLabelCount();
  EXPECT_EQ(db2.num_labels, db.num_labels);

  auto m1 = MethodRegistry::Create(QueryDirection::kSubgraph, "grapes");
  auto m2 = MethodRegistry::Create(QueryDirection::kSubgraph, "grapes");
  m1->Build(db);
  m2->Build(db2);
  const WorkloadSpec spec = MakeWorkloadSpec("uni-uni", 1.4, 10, 77);
  for (const WorkloadQuery& wq : GenerateWorkload(db.graphs, spec)) {
    auto p1 = m1->Prepare(wq.graph);
    auto p2 = m2->Prepare(wq.graph);
    EXPECT_EQ(m1->Filter(*p1), m2->Filter(*p2));
  }
}

TEST(IntegrationTest, CacheSizeSweepNeverChangesAnswers) {
  const GraphDatabase db = MakeDataset("aids", 0.008, 19);  // 48 graphs
  const WorkloadSpec spec = MakeWorkloadSpec("zipf-zipf", 2.0, 60, 13);
  const auto workload = GenerateWorkload(db.graphs, spec);

  std::vector<std::vector<std::vector<GraphId>>> all_answers;
  for (size_t capacity : {4u, 16u, 64u}) {
    auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
    method->Build(db);
    IgqOptions options;
    options.cache_capacity = capacity;
    options.window_size = std::max<size_t>(1, capacity / 4);
    QueryEngine engine(db, method.get(), options);
    std::vector<std::vector<GraphId>> answers;
    for (const WorkloadQuery& wq : workload) {
      answers.push_back(engine.Process(wq.graph));
    }
    all_answers.push_back(std::move(answers));
  }
  for (size_t c = 1; c < all_answers.size(); ++c) {
    EXPECT_EQ(all_answers[c], all_answers[0]) << "capacity sweep index " << c;
  }
}

}  // namespace
}  // namespace igq
