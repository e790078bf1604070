// Tests for concurrent serving (docs/CONCURRENCY.md): the sharded cache's
// placement/dedup invariants and key lookups racing flushes, the
// answer-equivalence and cache-content contracts of ConcurrentQueryEngine
// vs a one-stream QueryEngine, limited-vs-unlimited commit parity on one
// stream, multi-threaded stress under eviction pressure and under mutation
// churn on both engine configurations (the ThreadSanitizer CI target), the
// collect_stats=false fast path, and the sharded-cache snapshot round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>

#include "features/canonical.h"
#include "igq/concurrent_engine.h"
#include "igq/engine.h"
#include "igq/mutation.h"
#include "igq/sharded_cache.h"
#include "methods/registry.h"
#include "tests/state_diff.h"
#include "tests/test_util.h"

namespace igq {
namespace {

using testing::BruteForceSubgraphAnswer;
using testing::ExpectSameStats;
using testing::IsomorphHit;
using testing::RandomConnectedGraph;
using testing::RandomSubgraphOf;

GraphDatabase MakeDb(uint64_t seed, size_t num_graphs = 40) {
  Rng rng(seed);
  GraphDatabase db;
  for (size_t i = 0; i < num_graphs; ++i) {
    db.graphs.push_back(
        RandomConnectedGraph(rng, 14 + rng.Below(10), 6 + rng.Below(8), 3));
  }
  db.RefreshLabelCount();
  return db;
}

// Query stream with repeats and containment structure so all cache paths
// (exact hits, guarantee side, intersect side) actually fire.
std::vector<Graph> MakeWorkload(const GraphDatabase& db, uint64_t seed,
                                size_t count) {
  Rng rng(seed);
  std::vector<Graph> queries;
  queries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    if (!queries.empty() && rng.Below(4) == 0) {
      queries.push_back(queries[rng.Below(queries.size())]);  // repeat
    } else {
      const Graph& source = db.graphs[rng.Below(db.graphs.size())];
      queries.push_back(RandomSubgraphOf(rng, source, 4 + rng.Below(8)));
    }
  }
  return queries;
}

/// The graphs of every cache entry, flushed and window alike.
std::vector<Graph> CachedGraphs(const ShardedQueryCache& cache) {
  std::vector<Graph> graphs;
  for (const CachedQuery& entry : cache.Entries()) {
    graphs.push_back(entry.graph);
  }
  return graphs;
}

/// True iff the two collections hold structurally equal graphs, ignoring
/// order (Graph has no ordering, so match-and-erase).
bool SameGraphMultiset(std::vector<Graph> a, std::vector<Graph> b) {
  if (a.size() != b.size()) return false;
  for (const Graph& graph : a) {
    auto it = std::find(b.begin(), b.end(), graph);
    if (it == b.end()) return false;
    b.erase(it);
  }
  return true;
}

// ---- ShardedQueryCache invariants. ----

TEST(ShardedCacheTest, HashIsStructuralAndPlacementDeterministic) {
  Rng rng(7);
  const Graph g = RandomConnectedGraph(rng, 10, 6, 3);
  const Graph copy = g;
  EXPECT_EQ(GraphShardHash(g), GraphShardHash(copy));

  Graph relabeled = g;
  relabeled.set_label(0, g.label(0) + 1);
  EXPECT_NE(GraphShardHash(g), GraphShardHash(relabeled));
}

TEST(ShardedCacheTest, InsertDeduplicatesAcrossWindowAndEntries) {
  IgqOptions options;
  options.cache_capacity = 32;
  options.window_size = 4;
  options.cache_shards = 1;  // all graphs share one shard: dedup must hold
  ShardedQueryCache cache(ValidatedIgqOptions(options));

  Rng rng(11);
  const Graph g = RandomConnectedGraph(rng, 8, 4, 3);
  cache.Insert(g, {1, 2});
  cache.Insert(g, {1, 2});  // window duplicate
  EXPECT_EQ(cache.size() + cache.window_fill(), 1u);

  cache.FlushAll();
  EXPECT_EQ(cache.size(), 1u);
  cache.Insert(g, {1, 2});  // flushed-entry duplicate
  EXPECT_EQ(cache.size() + cache.window_fill(), 1u);
}

TEST(ShardedCacheTest, IsomorphsShareOneEntryAcrossShards) {
  // Vertex-permuted copies of one graph hash to different shards, but they
  // share one canonical key, so the cache keeps only the first copy — both
  // while it waits in a window and after its flush.
  IgqOptions options;
  options.cache_capacity = 64;
  options.window_size = 16;
  options.cache_shards = 4;
  ShardedQueryCache cache(ValidatedIgqOptions(options));

  Rng rng(67);
  const Graph g = RandomConnectedGraph(rng, 9, 5, 3);
  cache.Insert(g, {1});
  std::unordered_set<uint64_t> shards{GraphShardHash(g) % 4};
  for (int i = 0; i < 8; ++i) {
    if (i == 4) cache.FlushAll();
    const Graph copy = testing::PermuteVertices(rng, g);
    shards.insert(GraphShardHash(copy) % 4);
    cache.Insert(copy, {2});
  }
  ASSERT_GT(shards.size(), 1u) << "the copies must spread over shards";
  const std::vector<CachedQuery> entries = cache.Entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].graph, g);
  EXPECT_EQ(entries[0].answer.ToVector(), std::vector<GraphId>{1});
}

TEST(ShardedCacheTest, CachedKeyNeverMissesAcrossFlushes) {
  // One writer inserts fresh graphs and publishes each key once Insert
  // returns; three readers look up the newest keys until the writer stops.
  // Nothing is evicted, so every lookup must hit, although flushes (one
  // per 4 inserts into a shard) keep moving entries under the readers. Each
  // hit credits R += 1, and every credit must land on the cached entry.
  constexpr size_t kInserts = 300;
  for (size_t num_shards : {1u, 4u}) {
    IgqOptions options;
    options.cache_capacity = 4 * kInserts * num_shards;
    options.window_size = 4 * num_shards;
    options.cache_shards = num_shards;
    ShardedQueryCache cache(ValidatedIgqOptions(options));

    Rng rng(71);
    std::vector<Graph> graphs;
    std::vector<std::string> keys;
    for (size_t i = 0; i < kInserts; ++i) {
      graphs.push_back(
          RandomConnectedGraph(rng, 6 + rng.Below(6), 2 + rng.Below(4), 3));
      keys.push_back(GraphCanonicalCode(graphs.back()));
    }
    std::atomic<size_t> published{0};
    std::atomic<bool> done{false};
    std::atomic<size_t> lookups{0}, misses{0};
    auto reader = [&] {
      std::vector<GraphId> answer;
      auto credit_one = [](std::span<const GraphId>) {
        return ShardedQueryCache::Credit{1, LogValue::Zero()};
      };
      while (!done.load(std::memory_order_acquire)) {
        const size_t newest = published.load(std::memory_order_acquire);
        for (size_t i = newest > 8 ? newest - 8 : 0; i < newest; ++i) {
          lookups.fetch_add(1, std::memory_order_relaxed);
          if (!cache.TryExactHit(keys[i], credit_one, &answer)) {
            misses.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    };
    std::vector<std::thread> readers;
    for (int r = 0; r < 3; ++r) readers.emplace_back(reader);
    for (size_t i = 0; i < kInserts; ++i) {
      cache.Insert(graphs[i], {static_cast<GraphId>(i)}, keys[i],
                   cache.ExtractFeatures(graphs[i]));
      published.store(i + 1, std::memory_order_release);
    }
    done.store(true, std::memory_order_release);
    for (std::thread& thread : readers) thread.join();
    EXPECT_EQ(misses.load(), 0u)
        << num_shards << " shard(s), " << lookups.load() << " lookups";
    EXPECT_EQ(cache.window_fill() + cache.size(),
              std::unordered_set<std::string>(keys.begin(), keys.end())
                  .size());
    uint64_t hits = 0, removed = 0;
    for (const CachedQuery& entry : cache.Entries()) {
      hits += entry.meta.hits;
      removed += entry.meta.removed_candidates;
    }
    EXPECT_EQ(hits, lookups.load() - misses.load()) << num_shards;
    EXPECT_EQ(removed, hits) << num_shards;
  }
}

TEST(ShardedCacheTest, ProbeSeesFlushedEntriesOnly) {
  IgqOptions options;
  options.cache_capacity = 16;
  options.window_size = 8;
  options.cache_shards = 2;
  ShardedQueryCache cache(ValidatedIgqOptions(options));

  Rng rng(13);
  const Graph g = RandomConnectedGraph(rng, 8, 4, 3);
  cache.Insert(g, {0});
  {
    auto session = cache.Probe(g, cache.ExtractFeatures(g));
    EXPECT_FALSE(IsomorphHit(session, g).has_value());  // still in Itemp
  }
  cache.FlushAll();
  {
    auto session = cache.Probe(g, cache.ExtractFeatures(g));
    const std::optional<ShardedQueryCache::Hit> hit = IsomorphHit(session, g);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->entry->answer.ToVector(), std::vector<GraphId>{0});
  }
}

// ---- ConcurrentQueryEngine vs the sequential engine. ----

TEST(ConcurrentEngineTest, AnswersAndCacheContentsMatchSequentialReplay) {
  const GraphDatabase db = MakeDb(17);
  const std::vector<Graph> queries = MakeWorkload(db, 18, 120);

  IgqOptions options;
  options.cache_capacity = 500;  // no eviction: content equivalence is exact
  options.window_size = 20;
  options.cache_shards = 4;

  auto seq_method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  seq_method->Build(db);
  QueryEngine sequential(db, seq_method.get(), options);
  std::vector<std::vector<GraphId>> expected;
  expected.reserve(queries.size());
  for (const Graph& query : queries) {
    expected.push_back(sequential.Process(query));
  }

  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  method->Build(db);
  ConcurrentQueryEngine engine(db, method.get(), options);
  const auto results = engine.ProcessConcurrent(queries, /*streams=*/4);

  ASSERT_EQ(results.size(), queries.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].answer, expected[i]) << "query " << i;
  }

  // Below capacity no entry is ever evicted, so both engines must end up
  // caching exactly the distinct executed queries, flushed or pending.
  std::vector<Graph> distinct;
  for (const Graph& query : queries) {
    if (std::find(distinct.begin(), distinct.end(), query) == distinct.end()) {
      distinct.push_back(query);
    }
  }
  EXPECT_TRUE(SameGraphMultiset(CachedGraphs(engine.cache()), distinct));
  EXPECT_TRUE(SameGraphMultiset(CachedGraphs(sequential.cache()), distinct));
}

// The twin of LifecycleSequentialTest.BudgetedPipelineParityWithPlainProcess.
// A live cancel flag (never fired) makes every query limited: commits are
// buffered and the probe session is held until commit. On one stream that
// must leave the same answers, stats, and serialized cache state — §5.1
// metadata and the query clock included — as Process after every query.
TEST(ConcurrentEngineTest, BudgetedPipelineParityWithPlainProcess) {
  const GraphDatabase db = MakeDb(17);
  const std::vector<Graph> queries = MakeWorkload(db, 18, 120);

  IgqOptions options;
  options.cache_capacity = 24;
  options.window_size = 4;
  options.cache_shards = 2;

  auto method_a = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  auto method_b = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  method_a->Build(db);
  method_b->Build(db);
  ConcurrentQueryEngine budgeted(db, method_a.get(), options);
  ConcurrentQueryEngine plain(db, method_b.get(), options);

  serving::CancelSource never_fired;
  serving::QueryRequest request;
  request.cancel = &never_fired;
  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryResult via_budget =
        budgeted.ProcessWithBudget(queries[i], request, /*collect_stats=*/true);
    QueryStats plain_stats;
    const std::vector<GraphId> via_plain =
        plain.Process(queries[i], &plain_stats);
    EXPECT_EQ(via_budget.outcome.kind, serving::QueryOutcomeKind::kCompleted);
    EXPECT_EQ(via_budget.answer, via_plain) << "query " << i;
    ExpectSameStats(via_budget.stats, plain_stats, i);
    std::ostringstream budgeted_bytes, plain_bytes;
    ASSERT_TRUE(budgeted.SaveSnapshot(budgeted_bytes));
    ASSERT_TRUE(plain.SaveSnapshot(plain_bytes));
    ASSERT_TRUE(budgeted_bytes.str() == plain_bytes.str())
        << "snapshot bytes differ after query " << i;
  }
}

// Tiny capacity forces continuous flushes and evictions while six streams
// probe — the interleaving TSan verifies and answers must survive. Expected
// answers come from brute force, which no cache state can perturb. Run on
// both engine configurations: with one shard every stream contends on the
// same shard, and every query runs the host filter before the lookup.
template <typename Engine>
void ExpectExactUnderEvictionPressure() {
  const GraphDatabase db = MakeDb(23, 30);
  const std::vector<Graph> queries = MakeWorkload(db, 24, 160);

  std::vector<std::vector<GraphId>> expected;
  expected.reserve(queries.size());
  for (const Graph& query : queries) {
    expected.push_back(BruteForceSubgraphAnswer(db.graphs, query));
  }

  IgqOptions options;
  options.cache_capacity = 24;
  options.window_size = 8;
  options.cache_shards = 4;
  options.verify_threads = 2;  // exercise shared-pool borrowing too

  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  method->Build(db);
  Engine engine(db, method.get(), options);
  const auto results = engine.ProcessConcurrent(queries, /*streams=*/6);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].answer, expected[i]) << "query " << i;
  }
  EXPECT_LE(engine.cache().size(),
            engine.cache().num_shards() * engine.cache().shard_capacity());
}

TEST(ConcurrentEngineTest, StressUnderEvictionPressureStaysExact) {
  ExpectExactUnderEvictionPressure<ConcurrentQueryEngine>();
}

TEST(OneShardEngineTest, StressUnderEvictionPressureStaysExact) {
  ExpectExactUnderEvictionPressure<QueryEngine>();
}

TEST(ConcurrentEngineTest, SupergraphDirectionIsAnswerEquivalentToo) {
  const GraphDatabase db = MakeDb(29, 24);
  Rng rng(30);
  std::vector<Graph> queries;
  for (size_t i = 0; i < 60; ++i) {
    // Supergraph queries: dataset graphs contained in the (larger) query.
    queries.push_back(RandomConnectedGraph(rng, 18 + rng.Below(8),
                                           10 + rng.Below(6), 3));
  }

  IgqOptions options;
  options.cache_capacity = 40;
  options.window_size = 10;
  options.cache_shards = 3;

  auto seq_method =
      MethodRegistry::Create(QueryDirection::kSupergraph, "featurecount");
  seq_method->Build(db);
  QueryEngine sequential(db, seq_method.get(), options);
  auto method =
      MethodRegistry::Create(QueryDirection::kSupergraph, "featurecount");
  method->Build(db);
  ConcurrentQueryEngine engine(db, method.get(), options);

  const auto results = engine.ProcessConcurrent(queries, /*streams=*/3);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(results[i].answer, sequential.Process(queries[i]))
        << "query " << i;
  }
}

TEST(ConcurrentEngineTest, CollectStatsOffSkipsStatsButKeepsAnswers) {
  const GraphDatabase db = MakeDb(31, 20);
  const std::vector<Graph> queries = MakeWorkload(db, 32, 40);

  IgqOptions options;
  options.cache_capacity = 64;
  options.window_size = 8;
  options.cache_shards = 2;

  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  method->Build(db);

  // Concurrent path: answers unchanged, stats left value-initialized.
  ConcurrentQueryEngine engine(db, method.get(), options);
  const auto quiet =
      engine.ProcessConcurrent(queries, 2, {}, /*collect_stats=*/false);
  ConcurrentQueryEngine loud_engine(db, method.get(), options);
  const auto loud = loud_engine.ProcessConcurrent(queries, 2);
  ASSERT_EQ(quiet.size(), loud.size());
  size_t loud_candidates = 0;
  for (size_t i = 0; i < quiet.size(); ++i) {
    EXPECT_EQ(quiet[i].answer, loud[i].answer) << "query " << i;
    EXPECT_EQ(quiet[i].stats.iso_tests, 0u);
    EXPECT_EQ(quiet[i].stats.candidates_initial, 0u);
    EXPECT_EQ(quiet[i].stats.total_micros, 0);
    EXPECT_EQ(loud[i].stats.answer_size, loud[i].answer.size());
    loud_candidates += loud[i].stats.candidates_initial;
  }
  // The loud side must actually have collected stats, or the quiet-side
  // zeros above prove nothing.
  EXPECT_GT(loud_candidates, 0u);

  // A one-stream batch on the one-shard engine honors it identically.
  QueryEngine seq_quiet_engine(db, method.get(), options);
  const auto seq_quiet = seq_quiet_engine.ProcessConcurrent(
      queries, 1, {}, /*collect_stats=*/false);
  QueryEngine seq_loud_engine(db, method.get(), options);
  const auto seq_loud = seq_loud_engine.ProcessConcurrent(queries, 1);
  ASSERT_EQ(seq_quiet.size(), seq_loud.size());
  for (size_t i = 0; i < seq_quiet.size(); ++i) {
    EXPECT_EQ(seq_quiet[i].answer, seq_loud[i].answer) << "query " << i;
    EXPECT_EQ(seq_quiet[i].stats.iso_tests, 0u);
    EXPECT_EQ(seq_quiet[i].stats.total_micros, 0);
    EXPECT_EQ(seq_quiet[i].stats.answer_size, 0u);
  }
}

// ---- Sharded snapshot round trip. ----

TEST(ConcurrentEngineTest, ShardedSnapshotRoundTrips) {
  const GraphDatabase db = MakeDb(37, 30);
  const std::vector<Graph> warm = MakeWorkload(db, 38, 80);
  const std::vector<Graph> probe = MakeWorkload(db, 39, 40);

  IgqOptions options;
  options.cache_capacity = 60;
  options.window_size = 12;
  options.cache_shards = 4;

  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  method->Build(db);
  ConcurrentQueryEngine engine(db, method.get(), options);
  engine.ProcessConcurrent(warm, 4);

  std::stringstream snapshot;
  std::string error;
  ASSERT_TRUE(engine.SaveSnapshot(snapshot, &error)) << error;
  const std::string bytes = snapshot.str();

  // Restore into a fresh engine; cache contents and probe behavior must
  // match the producer exactly.
  auto restored_method =
      MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  ConcurrentQueryEngine restored(db, restored_method.get(), options);
  SnapshotLoadInfo info;
  std::istringstream in(bytes);
  ASSERT_TRUE(restored.LoadSnapshot(in, &error, &info)) << error;
  EXPECT_TRUE(info.method_index_restored);
  EXPECT_EQ(info.cached_queries, engine.cache().size());
  EXPECT_EQ(restored.cache().window_fill(), engine.cache().window_fill());
  EXPECT_TRUE(SameGraphMultiset(CachedGraphs(restored.cache()),
                                CachedGraphs(engine.cache())));

  for (const Graph& query : probe) {
    QueryStats original_stats, restored_stats;
    EXPECT_EQ(restored.Process(query, &restored_stats),
              engine.Process(query, &original_stats));
    EXPECT_EQ(restored_stats.iso_tests, original_stats.iso_tests);
  }

  // Geometry mismatches and corruption are rejected without side effects.
  IgqOptions other_shards = options;
  other_shards.cache_shards = 2;
  ConcurrentQueryEngine mismatched(db, restored_method.get(), other_shards);
  std::istringstream in2(bytes);
  EXPECT_FALSE(mismatched.LoadSnapshot(in2, &error));
  EXPECT_EQ(mismatched.cache().size(), 0u);

  std::istringstream truncated(bytes.substr(0, bytes.size() / 2));
  ConcurrentQueryEngine fresh(db, restored_method.get(), options);
  EXPECT_FALSE(fresh.LoadSnapshot(truncated, &error));
  EXPECT_EQ(fresh.cache().size(), 0u);

  // Both engines write the same cache section: a sequential snapshot (one
  // shard) loads into a one-shard concurrent engine with the same cache,
  // and this test's 4-shard engine rejects it, keeping an empty cache.
  auto seq_method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  seq_method->Build(db);
  QueryEngine sequential(db, seq_method.get(), options);
  for (const Graph& query : warm) sequential.Process(query);
  std::ostringstream seq_snapshot;
  ASSERT_TRUE(sequential.SaveSnapshot(seq_snapshot, &error)) << error;
  IgqOptions one_shard = options;
  one_shard.cache_shards = 1;
  ConcurrentQueryEngine one_shard_engine(db, restored_method.get(), one_shard);
  std::istringstream seq_in(seq_snapshot.str());
  ASSERT_TRUE(one_shard_engine.LoadSnapshot(seq_in, &error)) << error;
  EXPECT_EQ(one_shard_engine.cache().size(), sequential.cache().size());
  EXPECT_EQ(one_shard_engine.cache().window_fill(),
            sequential.cache().window_fill());
  EXPECT_TRUE(SameGraphMultiset(CachedGraphs(one_shard_engine.cache()),
                                CachedGraphs(sequential.cache())));
  ConcurrentQueryEngine four_shards(db, restored_method.get(), options);
  std::istringstream seq_in2(seq_snapshot.str());
  EXPECT_FALSE(four_shards.LoadSnapshot(seq_in2, &error));
  EXPECT_NE(error.find("cache section rejected"), std::string::npos) << error;
  EXPECT_EQ(four_shards.cache().size(), 0u);
  EXPECT_EQ(four_shards.cache().window_fill(), 0u);
}

// ---- Singleflight miss coalescing. ----

TEST(ConcurrentEngineTest, SingleflightRunsPipelineOncePerUniqueKey) {
  const GraphDatabase db = MakeDb(53, 30);

  // Duplicate-heavy workload: 24 base queries repeated across 320 slots, so
  // 16 streams constantly collide on the same canonical keys.
  Rng rng(54);
  std::vector<Graph> base;
  for (size_t i = 0; i < 24; ++i) {
    const Graph& source = db.graphs[rng.Below(db.graphs.size())];
    base.push_back(RandomSubgraphOf(rng, source, 4 + rng.Below(8)));
  }
  std::vector<Graph> queries;
  for (size_t i = 0; i < 320; ++i) {
    queries.push_back(base[rng.Below(base.size())]);
  }
  std::unordered_set<std::string> unique_keys;
  for (const Graph& query : queries) {
    unique_keys.insert(GraphCanonicalCode(query));
  }

  // No-flush geometry: the per-shard windows never fill, so canonical refs
  // never go stale and the exactly-once count below is exact, not a bound.
  IgqOptions options;
  options.cache_capacity = 512;
  options.window_size = 256;
  options.cache_shards = 4;

  // Sequential replay first: the coalesced answers must be bit-identical.
  auto seq_method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  seq_method->Build(db);
  QueryEngine sequential(db, seq_method.get(), options);
  std::vector<std::vector<GraphId>> expected;
  expected.reserve(queries.size());
  for (const Graph& query : queries) {
    expected.push_back(sequential.Process(query));
  }

  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  method->Build(db);
  ConcurrentQueryEngine engine(db, method.get(), options);
  const auto results = engine.ProcessConcurrent(queries, /*streams=*/16);

  ASSERT_EQ(results.size(), queries.size());
  size_t shortcut_hits = 0, coalesced = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].answer, expected[i]) << "query " << i;
    const ShortcutKind kind = results[i].stats.shortcut;
    if (kind == ShortcutKind::kExactHit ||
        kind == ShortcutKind::kCoalescedHit) {
      ++shortcut_hits;
      if (kind == ShortcutKind::kCoalescedHit) ++coalesced;
      // The fast path and coalescing both skip every isomorphism test.
      EXPECT_EQ(results[i].stats.iso_tests, 0u) << "query " << i;
      EXPECT_EQ(results[i].stats.probe_iso_tests, 0u) << "query " << i;
    }
  }

  // The contract under test: N streams missing on the same key run the
  // pipeline exactly once, no matter the interleaving — a duplicate either
  // parks on the in-flight record or fast-path-hits the inserted entry.
  EXPECT_EQ(engine.pipeline_executions(), unique_keys.size());
  EXPECT_EQ(shortcut_hits, queries.size() - unique_keys.size());
  EXPECT_EQ(engine.coalesced_hits(), coalesced);
}

TEST(ConcurrentEngineTest, SingleflightChurnStaysExactUnderMutation) {
  // The churn variant: ApplyMutation races in-flight singleflight leaders.
  // Every query holds the mutation gate shared for its whole lifetime —
  // including parked followers — so no in-flight record ever spans a
  // mutation; TSan (the CI job runs this file under it) checks the locking,
  // quiescent brute force checks the answers.
  auto db = std::make_unique<GraphDatabase>(MakeDb(59, 28));
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "grapes");
  method->Build(*db);
  IgqOptions options;
  options.cache_capacity = 48;
  options.window_size = 8;  // flushes + evictions interleave with coalescing
  options.cache_shards = 4;
  ConcurrentQueryEngine engine(*db, method.get(), options);

  // Heavier duplication than MakeWorkload: 12 base queries over 160 slots.
  Rng rng(60);
  std::vector<Graph> base;
  for (size_t i = 0; i < 12; ++i) {
    const Graph& source = db->graphs[rng.Below(db->graphs.size())];
    base.push_back(RandomSubgraphOf(rng, source, 4 + rng.Below(8)));
  }
  std::vector<Graph> queries;
  for (size_t i = 0; i < 160; ++i) {
    queries.push_back(base[rng.Below(base.size())]);
  }

  std::atomic<bool> done{false};
  std::thread writer([&] {
    Rng writer_rng(61);
    std::vector<GraphId> removable;
    for (GraphId i = 0; i < 28; ++i) removable.push_back(i);
    for (size_t op = 0; op < 80; ++op) {
      if (writer_rng.Chance(0.5) || removable.size() <= 10) {
        const MutationResult result = engine.ApplyMutation(
            *db, GraphMutation::Add(RandomConnectedGraph(
                     writer_rng, 10 + writer_rng.Below(8), 4, 3)));
        EXPECT_TRUE(result.applied);
        removable.push_back(result.id);
      } else {
        const size_t slot = writer_rng.Below(removable.size());
        EXPECT_TRUE(
            engine
                .ApplyMutation(*db, GraphMutation::Remove(removable[slot]))
                .applied);
        removable.erase(removable.begin() + static_cast<ptrdiff_t>(slot));
      }
      std::this_thread::yield();
    }
    done.store(true, std::memory_order_release);
  });

  size_t rounds = 0;
  do {
    const auto results = engine.ProcessConcurrent(queries, /*streams=*/8);
    ASSERT_EQ(results.size(), queries.size());
    ++rounds;
  } while (!done.load(std::memory_order_acquire) && rounds < 12);
  writer.join();

  const auto results = engine.ProcessConcurrent(queries, /*streams=*/8);
  for (size_t i = 0; i < queries.size(); ++i) {
    std::vector<GraphId> expected;
    for (GraphId id : BruteForceSubgraphAnswer(db->graphs, queries[i])) {
      if (db->IsLive(id)) expected.push_back(id);
    }
    EXPECT_EQ(results[i].answer, expected) << "query " << i;
  }
}

// ---- Online mutation: answer patching and churn stress. ----

TEST(ShardedCacheTest, RemovalPatchesFlushedAnswersAtOnce) {
  IgqOptions options;
  options.cache_capacity = 16;
  options.window_size = 2;  // two inserts trigger a flush
  options.cache_shards = 1;
  ShardedQueryCache cache(ValidatedIgqOptions(options));

  Rng rng(19);
  const Graph a = RandomConnectedGraph(rng, 8, 4, 3);
  const Graph b = RandomConnectedGraph(rng, 9, 4, 3);
  const Graph c = RandomConnectedGraph(rng, 8, 4, 3);
  cache.Insert(a, {0, 2, 5});
  cache.Insert(b, {1, 2});
  ASSERT_EQ(cache.size(), 2u);
  cache.Insert(c, {2, 3});  // stays in the window
  ASSERT_EQ(cache.window_fill(), 1u);

  // Removing dataset graph 2 drops it from every answer that held it, in
  // place: before any flush, the probe still finds `a` as an exact entry,
  // now with the patched answer, and the window entry is patched too.
  cache.ApplyGraphRemoved(2);
  ASSERT_EQ(cache.window_fill(), 1u);
  {
    auto session = cache.Probe(a, cache.ExtractFeatures(a));
    const std::optional<ShardedQueryCache::Hit> hit = IsomorphHit(session, a);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->entry->answer.ToVector(),
              (std::vector<GraphId>{0, 5}));
  }
  const std::vector<CachedQuery> entries = cache.Entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[1].answer.ToVector(), std::vector<GraphId>{1});
  EXPECT_EQ(entries[2].answer.ToVector(), std::vector<GraphId>{3});
}

TEST(ShardedCacheTest, AddedGraphJoinsFlushedAndWindowedAnswers) {
  IgqOptions options;
  options.cache_capacity = 16;
  options.window_size = 2;
  options.cache_shards = 1;
  ShardedQueryCache cache(ValidatedIgqOptions(options));

  Rng rng(23);
  const Graph q = RandomConnectedGraph(rng, 8, 4, 3);
  cache.Insert(q, {0});
  cache.Insert(RandomConnectedGraph(rng, 9, 4, 3), {1});  // flush
  ASSERT_EQ(cache.size(), 2u);

  // Subgraph direction: q ⊆ q, so adding q itself under id 7 must extend
  // the flushed answer of the cached query q.
  cache.ApplyGraphAdded(q, 7, QueryDirection::kSubgraph);
  {
    auto session = cache.Probe(q, cache.ExtractFeatures(q));
    const std::optional<ShardedQueryCache::Hit> hit = IsomorphHit(session, q);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->entry->answer.ToVector(),
              (std::vector<GraphId>{0, 7}));
  }

  // Window (Itemp) records are patched too: insert s, patch while it is
  // still pending, then flush and observe the patched answer.
  const Graph s = RandomConnectedGraph(rng, 8, 4, 3);
  cache.Insert(s, {3});
  cache.ApplyGraphAdded(s, 9, QueryDirection::kSubgraph);
  cache.Insert(RandomConnectedGraph(rng, 9, 4, 3), {});  // flush
  {
    auto session = cache.Probe(s, cache.ExtractFeatures(s));
    const std::optional<ShardedQueryCache::Hit> hit = IsomorphHit(session, s);
    ASSERT_TRUE(hit.has_value());
    const std::vector<GraphId> answer = hit->entry->answer.ToVector();
    EXPECT_TRUE(std::find(answer.begin(), answer.end(), 9) != answer.end())
        << "window record missed the added graph";
  }
}

TEST(ShardedCacheTest, SupergraphDirectionPatchesContainedGraphs) {
  IgqOptions options;
  options.cache_capacity = 8;
  options.window_size = 1;  // every insert flushes
  options.cache_shards = 1;
  ShardedQueryCache cache(ValidatedIgqOptions(options));

  // Supergraph answers hold the dataset graphs CONTAINED in the cached
  // query: adding a small path inside q must join; a labeled star that is
  // not a subgraph of q must not.
  const Graph q = testing::PathGraph({0, 1, 2, 3});
  cache.Insert(q, {0});
  cache.ApplyGraphAdded(testing::PathGraph({1, 2}), 5,
                        QueryDirection::kSupergraph);
  cache.ApplyGraphAdded(testing::StarGraph(7, {7, 7, 7}), 6,
                        QueryDirection::kSupergraph);
  auto session = cache.Probe(q, cache.ExtractFeatures(q));
  const std::optional<ShardedQueryCache::Hit> hit = IsomorphHit(session, q);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->entry->answer.ToVector(),
            (std::vector<GraphId>{0, 5}));
}

// Reader streams hammer the shared cache while one writer thread churns the
// dataset through the engine's mutation gate. Mid-churn answers race with
// the writer, so exactness is asserted at quiescence; the TSan CI job is
// what turns this into a lock-discipline proof. Run on both engine
// configurations.
template <typename Engine>
void ExpectExactUnderConcurrentMutation() {
  auto db = std::make_unique<GraphDatabase>(MakeDb(43, 32));
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "grapes");
  method->Build(*db);
  IgqOptions options;
  options.cache_capacity = 64;
  options.window_size = 8;
  options.cache_shards = 4;
  Engine engine(*db, method.get(), options);

  const std::vector<Graph> queries = MakeWorkload(*db, 44, 160);

  std::atomic<bool> done{false};
  std::thread writer([&] {
    Rng rng(45);
    std::vector<GraphId> removable;
    for (GraphId i = 0; i < 32; ++i) removable.push_back(i);
    for (size_t op = 0; op < 120; ++op) {
      if (rng.Chance(0.5) || removable.size() <= 12) {
        const MutationResult result = engine.ApplyMutation(
            *db, GraphMutation::Add(
                     RandomConnectedGraph(rng, 10 + rng.Below(8), 4, 3)));
        EXPECT_TRUE(result.applied);
        EXPECT_TRUE(result.incremental);  // grapes absorbs adds in place
        removable.push_back(result.id);
      } else {
        const size_t slot = rng.Below(removable.size());
        EXPECT_TRUE(
            engine
                .ApplyMutation(*db, GraphMutation::Remove(removable[slot]))
                .applied);
        removable.erase(removable.begin() + static_cast<ptrdiff_t>(slot));
      }
      std::this_thread::yield();
    }
    done.store(true, std::memory_order_release);
  });

  // Keep the streams running for the whole churn (bounded rounds so a slow
  // sanitizer build still terminates promptly).
  size_t rounds = 0;
  do {
    const auto results = engine.ProcessConcurrent(queries, /*streams=*/4);
    ASSERT_EQ(results.size(), queries.size());
    ++rounds;
  } while (!done.load(std::memory_order_acquire) && rounds < 12);
  writer.join();

  // Quiescent exactness: every answer equals brute force over the LIVE
  // graphs — removed graphs gone, added graphs present.
  const auto results = engine.ProcessConcurrent(queries, /*streams=*/4);
  for (size_t i = 0; i < queries.size(); ++i) {
    std::vector<GraphId> expected;
    for (GraphId id : BruteForceSubgraphAnswer(db->graphs, queries[i])) {
      if (db->IsLive(id)) expected.push_back(id);
    }
    EXPECT_EQ(results[i].answer, expected) << "query " << i;
  }
}

TEST(ConcurrentEngineTest, ChurnStressStaysExactUnderConcurrentMutation) {
  ExpectExactUnderConcurrentMutation<ConcurrentQueryEngine>();
}

TEST(OneShardEngineTest, ChurnStressStaysExactUnderConcurrentMutation) {
  ExpectExactUnderConcurrentMutation<QueryEngine>();
}

TEST(ConcurrentEngineTest, MutatedShardedSnapshotRoundTrips) {
  auto db = std::make_unique<GraphDatabase>(MakeDb(47, 24));
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "grapes");
  method->Build(*db);
  IgqOptions options;
  options.cache_capacity = 48;
  options.window_size = 8;
  options.cache_shards = 4;
  ConcurrentQueryEngine engine(*db, method.get(), options);

  const std::vector<Graph> warm = MakeWorkload(*db, 48, 60);
  const std::vector<Graph> probe = MakeWorkload(*db, 49, 30);
  engine.ProcessConcurrent(warm, 4);
  Rng rng(50);
  ASSERT_TRUE(engine.ApplyMutation(*db, GraphMutation::Remove(5)).applied);
  ASSERT_TRUE(
      engine
          .ApplyMutation(
              *db, GraphMutation::Add(RandomConnectedGraph(rng, 14, 6, 3)))
          .applied);

  std::stringstream snapshot;
  std::string error;
  ASSERT_TRUE(engine.SaveSnapshot(snapshot, &error)) << error;

  // Restores only at the exact mutation state: the snapshot stamps the
  // epoch + tombstones.
  auto restored_method =
      MethodRegistry::Create(QueryDirection::kSubgraph, "grapes");
  ConcurrentQueryEngine restored(*db, restored_method.get(), options);
  SnapshotLoadInfo info;
  ASSERT_TRUE(restored.LoadSnapshot(snapshot, &error, &info)) << error;
  EXPECT_EQ(info.mutation_epoch, db->mutation_epoch);
  EXPECT_EQ(info.tombstones, 1u);
  for (const Graph& query : probe) {
    EXPECT_EQ(restored.Process(query), engine.Process(query));
  }

  // A further mutation invalidates the snapshot for this database.
  ASSERT_TRUE(engine.ApplyMutation(*db, GraphMutation::Remove(7)).applied);
  auto stale_method =
      MethodRegistry::Create(QueryDirection::kSubgraph, "grapes");
  stale_method->Build(*db);
  ConcurrentQueryEngine stale(*db, stale_method.get(), options);
  std::stringstream replay(snapshot.str());
  EXPECT_FALSE(stale.LoadSnapshot(replay, &error));
  EXPECT_NE(error.find("different mutation state"), std::string::npos)
      << error;
  EXPECT_EQ(stale.cache().size(), 0u);
}

}  // namespace
}  // namespace igq
