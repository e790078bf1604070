// Tests for the §5.1 replacement policies: the cost-aware utility policy
// and the ablation alternatives (popularity, LRU, FIFO) must each evict
// according to their metric, and none may affect answer correctness.
#include <gtest/gtest.h>

#include <functional>
#include <optional>

#include "igq/engine.h"
#include "igq/sharded_cache.h"
#include "methods/ggsx.h"
#include "tests/test_util.h"

namespace igq {
namespace {

using testing::BruteForceSubgraphAnswer;
using testing::PathGraph;
using testing::RandomConnectedGraph;

IgqOptions PolicyOptions(ReplacementPolicy policy, size_t capacity,
                         size_t window) {
  IgqOptions options;
  options.replacement_policy = policy;
  options.cache_capacity = capacity;
  options.window_size = window;
  options.cache_shards = 1;
  return options;
}

// Credits the cached entry isomorphic to `graph`, found by a probe, through
// the engines' own crediting path: H += 1, R += removed, C += cost.
void Credit(ShardedQueryCache& cache, const Graph& graph, uint64_t removed = 0,
            LogValue cost = LogValue::Zero()) {
  auto probe = cache.Probe(graph, cache.ExtractFeatures(graph));
  const std::optional<ShardedQueryCache::Hit> hit =
      testing::IsomorphHit(probe, graph);
  ASSERT_TRUE(hit.has_value());
  cache.CreditHit(*hit, removed, cost);
}

// Fills a capacity-2 cache with graphs a and b, gives them metadata via the
// credit interface, inserts c to force one eviction, and reports which of
// a/b survived.
struct EvictionOutcome {
  bool a_survived = false;
  bool b_survived = false;
};

EvictionOutcome RunEviction(
    ReplacementPolicy policy,
    const std::function<void(ShardedQueryCache&, const Graph& a,
                             const Graph& b)>& credit) {
  ShardedQueryCache cache(PolicyOptions(policy, 2, 1));
  const Graph a = PathGraph({1, 1});
  const Graph b = PathGraph({2, 2});
  cache.Insert(a, {});
  cache.Insert(b, {});
  credit(cache, a, b);
  cache.Insert(PathGraph({3, 3}), {});
  EvictionOutcome outcome;
  for (const CachedQuery& entry : cache.Entries()) {
    outcome.a_survived |= entry.graph == a;
    outcome.b_survived |= entry.graph == b;
  }
  return outcome;
}

TEST(ReplacementPolicyTest, UtilityKeepsCostSaver) {
  // b saved expensive tests; a was hit often but saved nothing.
  const EvictionOutcome outcome = RunEviction(
      ReplacementPolicy::kUtility,
      [](ShardedQueryCache& cache, const Graph& a, const Graph& b) {
        cache.RecordQueryProcessed();
        Credit(cache, a);
        Credit(cache, a);
        Credit(cache, b, 3, LogValue::FromLinear(1e9));
      });
  EXPECT_FALSE(outcome.a_survived);
  EXPECT_TRUE(outcome.b_survived);
}

TEST(ReplacementPolicyTest, PopularityKeepsFrequentlyHit) {
  // a is hit twice, b saved huge cost on one hit: popularity keeps a.
  const EvictionOutcome outcome = RunEviction(
      ReplacementPolicy::kPopularity,
      [](ShardedQueryCache& cache, const Graph& a, const Graph& b) {
        cache.RecordQueryProcessed();
        Credit(cache, a);
        Credit(cache, a);
        Credit(cache, b, 3, LogValue::FromLinear(1e9));
      });
  EXPECT_TRUE(outcome.a_survived);
  EXPECT_FALSE(outcome.b_survived);
}

TEST(ReplacementPolicyTest, LruKeepsRecentlyHit) {
  const EvictionOutcome outcome = RunEviction(
      ReplacementPolicy::kLru,
      [](ShardedQueryCache& cache, const Graph& a, const Graph& b) {
        cache.RecordQueryProcessed();
        Credit(cache, a);
        cache.RecordQueryProcessed();
        Credit(cache, b);  // b hit later
      });
  EXPECT_FALSE(outcome.a_survived);
  EXPECT_TRUE(outcome.b_survived);
}

TEST(ReplacementPolicyTest, FifoIgnoresMetadata) {
  // a is older; FIFO evicts it regardless of hits/cost.
  const EvictionOutcome outcome = RunEviction(
      ReplacementPolicy::kFifo,
      [](ShardedQueryCache& cache, const Graph& a, const Graph& b) {
        cache.RecordQueryProcessed();
        Credit(cache, a, 5, LogValue::FromLinear(1e9));
        (void)b;
      });
  EXPECT_FALSE(outcome.a_survived);
  EXPECT_TRUE(outcome.b_survived);
}

// Whatever the policy, iGQ answers must stay correct (the policy only
// affects *which* knowledge is retained, never its use).
class PolicyCorrectnessTest
    : public ::testing::TestWithParam<ReplacementPolicy> {};

TEST_P(PolicyCorrectnessTest, AnswersAlwaysCorrect) {
  Rng rng(314);
  GraphDatabase db;
  for (int i = 0; i < 25; ++i) {
    db.graphs.push_back(RandomConnectedGraph(rng, 12 + rng.Below(8), 6, 3));
  }
  db.RefreshLabelCount();
  GgsxMethod method;
  method.Build(db);
  QueryEngine engine(db, &method,
                           PolicyOptions(GetParam(), 6, 2));
  for (int round = 0; round < 40; ++round) {
    Graph query;
    if (round % 3 == 0) {
      query = RandomConnectedGraph(rng, 5, 2, 3);
    } else {
      query = testing::RandomSubgraphOf(
          rng, db.graphs[rng.Below(db.graphs.size())], 4 + (round % 3) * 4);
    }
    EXPECT_EQ(engine.Process(query), BruteForceSubgraphAnswer(db.graphs, query))
        << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyCorrectnessTest,
                         ::testing::Values(ReplacementPolicy::kUtility,
                                           ReplacementPolicy::kPopularity,
                                           ReplacementPolicy::kLru,
                                           ReplacementPolicy::kFifo));

}  // namespace
}  // namespace igq
