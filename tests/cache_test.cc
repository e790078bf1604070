// Tests for the query cache run as one shard, the way QueryEngine runs it:
// window mechanics, utility-based replacement (§5.1), probe semantics,
// exact-match detection and its §5.1 credit (in both engine
// configurations), maintenance accounting.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "features/canonical.h"
#include "features/path_enumerator.h"
#include "igq/concurrent_engine.h"
#include "igq/engine.h"
#include "igq/probe_index.h"
#include "igq/sharded_cache.h"
#include "methods/registry.h"
#include "snapshot/serializer.h"
#include "tests/cache_payload.h"
#include "tests/oracle/vf2.h"
#include "tests/test_util.h"

namespace igq {
namespace {

using testing::IsomorphHit;
using testing::PathGraph;
using testing::PermuteVertices;
using testing::RandomConnectedGraph;
using testing::RandomSubgraphOf;

IgqOptions SmallOptions(size_t capacity, size_t window) {
  IgqOptions options;
  options.cache_capacity = capacity;
  options.window_size = window;
  options.cache_shards = 1;
  return options;
}

// An exact-hit lookup that credits nothing.
bool ExactHit(ShardedQueryCache& cache, const Graph& query,
              std::vector<GraphId>* answer) {
  return cache.TryExactHit(
      GraphCanonicalCode(query),
      [](std::span<const GraphId>) { return ShardedQueryCache::Credit{}; },
      answer);
}

TEST(QueryCacheTest, WindowHoldsUntilFull) {
  ShardedQueryCache cache(SmallOptions(10, 3));
  cache.Insert(PathGraph({0, 1}), {});
  cache.Insert(PathGraph({1, 2}), {});
  EXPECT_EQ(cache.size(), 0u);  // still in Itemp
  EXPECT_EQ(cache.window_fill(), 2u);
  cache.Insert(PathGraph({2, 3}), {});
  EXPECT_EQ(cache.size(), 3u);  // flushed
  EXPECT_EQ(cache.window_fill(), 0u);
}

TEST(QueryCacheTest, ProbeSeesOnlyFlushedEntries) {
  ShardedQueryCache cache(SmallOptions(10, 2));
  const Graph big = PathGraph({0, 1, 2, 3});
  cache.Insert(big, {5, 7});
  const Graph small = PathGraph({1, 2});
  {
    auto probe = cache.Probe(small, cache.ExtractFeatures(small));
    EXPECT_TRUE(probe.supergraph_hits().empty());  // big still in window
  }
  cache.Insert(PathGraph({8, 9}), {});  // triggers flush
  auto probe = cache.Probe(small, cache.ExtractFeatures(small));
  ASSERT_EQ(probe.supergraph_hits().size(), 1u);
  EXPECT_EQ(probe.supergraph_hits()[0].entry->graph, big);
}

TEST(QueryCacheTest, ProbeFindsSubgraphsToo) {
  ShardedQueryCache cache(SmallOptions(10, 1));
  const Graph small = PathGraph({1, 2});
  cache.Insert(small, {3});
  const Graph big = PathGraph({0, 1, 2, 3});
  auto probe = cache.Probe(big, cache.ExtractFeatures(big));
  ASSERT_EQ(probe.subgraph_hits().size(), 1u);
  EXPECT_TRUE(probe.supergraph_hits().empty());
}

// The probe reports the one cached graph, an isomorph of `query`, on both
// sides: it contains the query and is contained in it.
void ExpectCachedCopyOnBothSides(ShardedQueryCache& cache, const Graph& query,
                                 const Graph& cached) {
  auto probe = cache.Probe(query, cache.ExtractFeatures(query));
  const std::optional<ShardedQueryCache::Hit> hit = IsomorphHit(probe, query);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->entry->graph, cached);
  ASSERT_EQ(probe.supergraph_hits().size(), 1u);
  ASSERT_EQ(probe.subgraph_hits().size(), 1u);
  EXPECT_EQ(probe.subgraph_hits()[0].entry->graph, cached);
}

TEST(QueryCacheTest, ExactMatchDetected) {
  ShardedQueryCache cache(SmallOptions(10, 1));
  const Graph q = PathGraph({1, 2, 3});
  cache.Insert(q, {1});
  ExpectCachedCopyOnBothSides(cache, q, q);
}

TEST(QueryCacheTest, IsomorphicButDifferentOrderIsStillExact) {
  ShardedQueryCache cache(SmallOptions(10, 1));
  const Graph q = PathGraph({1, 2, 3});
  cache.Insert(q, {1});
  // Same path written from the other end: isomorphic, equal sizes, and a
  // containment holds — the §4.3 definition of "exactly the same".
  ExpectCachedCopyOnBothSides(cache, PathGraph({3, 2, 1}), q);
}

TEST(QueryCacheTest, WindowDeduplicatesEqualGraphs) {
  ShardedQueryCache cache(SmallOptions(10, 3));
  const Graph q = PathGraph({1, 2});
  cache.Insert(q, {1});
  cache.Insert(q, {1});
  EXPECT_EQ(cache.window_fill(), 1u);
}

TEST(QueryCacheTest, CapacityEnforcedAfterFlush) {
  ShardedQueryCache cache(SmallOptions(4, 2));
  for (int i = 0; i < 10; ++i) {
    Graph g = PathGraph({static_cast<Label>(i), static_cast<Label>(i + 1)});
    cache.Insert(g, {});
  }
  EXPECT_LE(cache.size(), 4u);
}

TEST(QueryCacheTest, LowestUtilityEvictedFirst) {
  ShardedQueryCache cache(SmallOptions(2, 1));
  const Graph a = PathGraph({1, 1});
  const Graph b = PathGraph({2, 2});
  cache.Insert(a, {});  // flushes immediately (W = 1)
  cache.Insert(b, {});
  ASSERT_EQ(cache.size(), 2u);

  // Give `b` utility; `a` stays at zero.
  cache.RecordQueryProcessed();
  {
    auto probe = cache.Probe(b, cache.ExtractFeatures(b));
    const std::optional<ShardedQueryCache::Hit> hit = IsomorphHit(probe, b);
    ASSERT_TRUE(hit.has_value());
    cache.CreditHit(*hit, 5, LogValue::FromLinear(1e6));
  }

  // Insert c: capacity 2 forces one eviction; it must be `a`.
  const Graph c = PathGraph({3, 3});
  cache.Insert(c, {});
  ASSERT_EQ(cache.size(), 2u);
  bool has_a = false, has_b = false, has_c = false;
  for (const CachedQuery& entry : cache.Entries()) {
    has_a |= entry.graph == a;
    has_b |= entry.graph == b;
    has_c |= entry.graph == c;
  }
  EXPECT_FALSE(has_a);
  EXPECT_TRUE(has_b);
  EXPECT_TRUE(has_c);

  // The eviction unregistered `a`'s key and only that key, so `a` can be
  // cached again (its flush then evicts zero-utility `c`).
  std::vector<GraphId> answer;
  EXPECT_FALSE(ExactHit(cache, a, &answer));
  EXPECT_TRUE(ExactHit(cache, b, &answer));
  cache.Insert(a, {});
  EXPECT_TRUE(ExactHit(cache, a, &answer));
  has_a = false;
  for (const CachedQuery& entry : cache.Entries()) has_a |= entry.graph == a;
  EXPECT_TRUE(has_a);
}

TEST(QueryCacheTest, CreditToAnEvictedEntryStaysWithIt) {
  // A hit outlives its probe session and its entry's eviction: crediting
  // it then touches only the evicted entry, which the hit keeps alive.
  ShardedQueryCache cache(SmallOptions(1, 1));
  const Graph a = PathGraph({1, 1});
  cache.Insert(a, {});
  std::optional<ShardedQueryCache::Hit> hit;
  {
    auto probe = cache.Probe(a, cache.ExtractFeatures(a));
    hit = IsomorphHit(probe, a);
  }
  ASSERT_TRUE(hit.has_value());
  const Graph b = PathGraph({2, 2});
  cache.Insert(b, {});  // capacity 1: evicts `a`
  const std::vector<CachedQuery> before = cache.Entries();
  ASSERT_EQ(before.size(), 1u);
  ASSERT_EQ(before[0].graph, b);

  cache.CreditHit(*hit, 7, LogValue::FromLinear(1e3));
  EXPECT_EQ(hit->entry->meta.hits, 1u);
  EXPECT_EQ(hit->entry->meta.removed_candidates, 7u);
  const std::vector<CachedQuery> after = cache.Entries();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].meta.hits, before[0].meta.hits);
  EXPECT_EQ(after[0].meta.removed_candidates,
            before[0].meta.removed_candidates);
  EXPECT_EQ(after[0].meta.cost_saved.log(), before[0].meta.cost_saved.log());
}

TEST(QueryCacheTest, TieBreakEvictsOlderEntry) {
  ShardedQueryCache cache(SmallOptions(2, 1));
  const Graph a = PathGraph({1, 1});
  const Graph b = PathGraph({2, 2});
  cache.Insert(a, {});
  cache.Insert(b, {});
  cache.Insert(PathGraph({3, 3}), {});  // both a and b have utility 0
  bool has_a = false;
  for (const CachedQuery& entry : cache.Entries()) has_a |= entry.graph == a;
  EXPECT_FALSE(has_a) << "older zero-utility entry should go first";
}

TEST(QueryCacheTest, MetadataClockAdvances) {
  ShardedQueryCache cache(SmallOptions(4, 1));
  cache.Insert(PathGraph({1, 2}), {});
  cache.RecordQueryProcessed();
  cache.RecordQueryProcessed();
  const QueryGraphMetadata meta = cache.Entries()[0].meta;
  EXPECT_EQ(meta.QueriesSinceInsertion(cache.queries_processed()), 2u);
}

TEST(QueryCacheTest, UtilityUsesCostOverM) {
  QueryGraphMetadata meta;
  meta.inserted_at = 0;
  meta.cost_saved = LogValue::FromLinear(100.0);
  EXPECT_NEAR(meta.Utility(4).ToLinear(), 25.0, 1e-9);
  // More elapsed queries, lower utility.
  EXPECT_TRUE(meta.Utility(10) < meta.Utility(4));
}

TEST(QueryCacheTest, MaintenanceTimeTracked) {
  ShardedQueryCache cache(SmallOptions(4, 1));
  cache.Insert(PathGraph({1, 2}), {});
  EXPECT_GE(cache.maintenance_micros(), 0);
}

TEST(QueryCacheTest, MemoryBytesGrowWithEntries) {
  ShardedQueryCache cache(SmallOptions(100, 1));
  const size_t before = cache.MemoryBytes();
  Rng rng(9);
  for (int i = 0; i < 10; ++i) {
    cache.Insert(RandomConnectedGraph(rng, 10, 5, 3), {1, 2, 3});
  }
  EXPECT_GT(cache.MemoryBytes(), before);
}

TEST(QueryCacheTest, MemoryBytesCountsTheWindow) {
  ShardedQueryCache cache(SmallOptions(100, 50));
  std::vector<GraphId> answer;
  for (GraphId id = 0; id < 200; ++id) answer.push_back(id);
  Rng rng(11);
  for (int i = 0; i < 49; ++i) {
    cache.Insert(RandomConnectedGraph(rng, 12, 6, 3), answer);
  }
  ASSERT_EQ(cache.size(), 0u);  // every entry still queued in the window
  size_t payload = 0;
  for (const CachedQuery& entry : cache.Entries()) {
    payload += entry.graph.MemoryBytes() + entry.answer.MemoryBytes();
  }
  EXPECT_GT(payload, 0u);
  EXPECT_GE(cache.MemoryBytes(), payload);
}

TEST(QueryCacheTest, AnswersStoredSorted) {
  ShardedQueryCache cache(SmallOptions(4, 1));
  cache.Insert(PathGraph({1, 2}), {9, 3, 7});
  const std::vector<GraphId> expected{3, 7, 9};
  EXPECT_EQ(cache.Entries()[0].answer.ToVector(), expected);
}

// ---- Canonical-key exact-hit fast path. ----

TEST(QueryCacheTest, CanonicalKeyLookupMatchesVf2BothWays) {
  // Parity with isomorphism: for any query, the canonical map hits iff VF2
  // finds a cached graph that contains the query and is contained in it,
  // and then returns that entry's answer (each cached graph has its own).
  // Permuted copies of cached graphs exercise the hit side, fresh random
  // graphs the (mostly) miss side.
  const Vf2Matcher vf2;
  ShardedQueryCache cache(SmallOptions(64, 4));
  Rng rng(21);
  std::vector<Graph> cached;
  for (int i = 0; i < 24; ++i) {
    cached.push_back(RandomConnectedGraph(rng, 5 + rng.Below(6),
                                          3 + rng.Below(4), 3));
    cache.Insert(cached.back(), {static_cast<GraphId>(i)});
  }
  cache.FlushAll();
  const std::vector<CachedQuery> entries = cache.Entries();
  size_t hits = 0;
  for (int i = 0; i < 200; ++i) {
    const Graph query =
        rng.Chance(0.5)
            ? PermuteVertices(rng, cached[rng.Below(cached.size())])
            : RandomConnectedGraph(rng, 5 + rng.Below(6), 3 + rng.Below(4),
                                   3);
    const CachedQuery* isomorph = nullptr;
    for (const CachedQuery& entry : entries) {
      if (vf2.Contains(query, entry.graph) &&
          vf2.Contains(entry.graph, query)) {
        isomorph = &entry;
        break;
      }
    }
    std::vector<GraphId> by_key;
    ASSERT_EQ(ExactHit(cache, query, &by_key), isomorph != nullptr);
    if (isomorph != nullptr) {
      EXPECT_EQ(by_key, isomorph->answer.ToVector());
      ++hits;
    }
  }
  EXPECT_GT(hits, 50u);  // the parity above must have covered real hits
}

TEST(QueryCacheTest, ExactHitSeesWindowEntries) {
  // The key is registered at Insert, so a window (Itemp) entry is hittable
  // before its flush, although the probe indexes do not see it yet.
  ShardedQueryCache cache(SmallOptions(10, 2));
  const Graph q = PathGraph({1, 2, 3});
  cache.Insert(q, {1});
  ASSERT_EQ(cache.window_fill(), 1u);  // still in Itemp
  std::vector<GraphId> answer;
  EXPECT_TRUE(ExactHit(cache, PathGraph({3, 2, 1}), &answer));
  EXPECT_EQ(answer, std::vector<GraphId>{1});
  cache.Insert(PathGraph({7, 8}), {});  // triggers flush
  EXPECT_TRUE(ExactHit(cache, q, &answer));
}

TEST(QueryCacheTest, TryExactHitCreditsOnce) {
  // A single exact hit ticks the query clock and moves H, R, C, and the LRU
  // clock exactly once — R and C come from the caller's credit, not from
  // the cached answer.
  ShardedQueryCache cache(SmallOptions(4, 1));
  const Graph q = PathGraph({1, 2, 3});
  cache.Insert(q, {1, 4});
  ASSERT_EQ(cache.size(), 1u);
  std::vector<GraphId> answer;
  ASSERT_TRUE(cache.TryExactHit(
      GraphCanonicalCode(q),
      [](std::span<const GraphId> ids) {
        EXPECT_EQ(ids.size(), 2u);
        return ShardedQueryCache::Credit{7, LogValue::FromLinear(100.0)};
      },
      &answer));
  EXPECT_EQ(answer, (std::vector<GraphId>{1, 4}));
  EXPECT_EQ(cache.queries_processed(), 1u);
  const QueryGraphMetadata meta = cache.Entries()[0].meta;
  EXPECT_EQ(meta.hits, 1u);
  EXPECT_EQ(meta.removed_candidates, 7u);
  EXPECT_EQ(meta.last_hit_at, 1u);
  EXPECT_NEAR(meta.cost_saved.ToLinear(), 100.0, 1e-6);
}

// The exact-hit credit scenario: twelve random graphs, a ggsx index, and a
// 3-vertex query with an isomorphic (vertex-permuted) repeat. With these
// seeds the query's filtered candidates outnumber its answer, so the two
// credit rules below give different R.
struct ExactHitScenario {
  GraphDatabase db;
  std::unique_ptr<Method> method;
  Graph query;
  Graph permuted;
  IgqOptions options;

  ExactHitScenario() {
    Rng rng(33);
    for (int i = 0; i < 12; ++i) {
      db.graphs.push_back(RandomConnectedGraph(rng, 12, 6, 3));
    }
    db.RefreshLabelCount();
    method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
    method->Build(db);
    query = RandomSubgraphOf(rng, db.graphs[0], 3);
    permuted = PermuteVertices(rng, query);
    options.cache_capacity = 16;
    options.window_size = 4;  // the repeats hit the entry while in Itemp
  }
};

TEST(QueryCacheTest, EngineExactHitRunsZeroIsomorphismTests) {
  ExactHitScenario s;
  QueryEngine engine(s.db, s.method.get(), s.options);

  QueryStats miss_stats, hit_stats;
  const std::vector<GraphId> answer = engine.Process(s.query, &miss_stats);
  EXPECT_EQ(miss_stats.shortcut, ShortcutKind::kNone);
  EXPECT_NE(miss_stats.candidates_initial, answer.size());

  // An isomorphic (vertex-permuted) repeat takes the canonical-key fast
  // path: same answer, and zero isomorphism tests of either kind — neither
  // verification (iso_tests) nor probe-side VF2 (probe_iso_tests).
  EXPECT_EQ(engine.Process(s.permuted, &hit_stats), answer);
  EXPECT_EQ(hit_stats.shortcut, ShortcutKind::kExactHit);
  EXPECT_EQ(hit_stats.iso_tests, 0u);
  EXPECT_EQ(hit_stats.probe_iso_tests, 0u);

  // Single counting, end to end: two exact hits leave H at exactly 2, and
  // each is credited with the filtered candidates it saved, not its answer.
  EXPECT_EQ(engine.Process(s.query), answer);
  const std::vector<CachedQuery> entries = engine.cache().Entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].canonical, GraphCanonicalCode(s.query));
  EXPECT_EQ(entries[0].meta.hits, 2u);
  EXPECT_EQ(entries[0].meta.removed_candidates,
            2 * miss_stats.candidates_initial);
}

TEST(QueryCacheTest, ConcurrentExactHitCreditsTheAnswer) {
  // The sharded configuration looks the key up before the host filter
  // runs, so each exact hit is credited with the cached answer instead.
  ExactHitScenario s;
  IgqOptions options = s.options;
  options.cache_shards = 2;
  ConcurrentQueryEngine engine(s.db, s.method.get(), options);

  QueryStats miss_stats, hit_stats;
  const std::vector<GraphId> answer = engine.Process(s.query, &miss_stats);
  EXPECT_NE(miss_stats.candidates_initial, answer.size());
  EXPECT_EQ(engine.Process(s.permuted, &hit_stats), answer);
  EXPECT_EQ(hit_stats.shortcut, ShortcutKind::kExactHit);
  EXPECT_EQ(hit_stats.iso_tests, 0u);
  EXPECT_EQ(engine.Process(s.query), answer);

  const std::vector<CachedQuery> entries = engine.cache().Entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].meta.hits, 2u);
  EXPECT_EQ(entries[0].meta.removed_candidates, 2 * answer.size());
}

// ---- Probe data: derived once per entry, shared across flushes. ----

// Every entry (flushed and windowed) must carry probe data equal to a fresh
// derivation from its graph: the path features, enumerated anew and put in
// key order, and a view and plan over the graph itself.
void ExpectProbeDataMatchesEnumeration(const ShardedQueryCache& cache,
                                       const IgqOptions& options,
                                       const std::string& where) {
  PathEnumeratorOptions enumerator;
  enumerator.max_edges = options.path_max_edges;
  enumerator.include_single_vertices = true;
  const std::vector<CachedQuery> entries = cache.Entries();
  ASSERT_GT(cache.size(), 0u) << where;
  ASSERT_GT(entries.size(), cache.size()) << where << ": no window entries";
  for (size_t i = 0; i < entries.size(); ++i) {
    const CachedQuery& entry = entries[i];
    ASSERT_NE(entry.probe, nullptr) << where << ", entry " << i;
    const PathFeatureCounts counts = CountPathFeatures(entry.graph, enumerator);
    const std::map<PathKey, uint32_t> ordered(counts.begin(), counts.end());
    const SortedPathFeatures expected(ordered.begin(), ordered.end());
    EXPECT_EQ(entry.probe->features, expected) << where << ", entry " << i;
    EXPECT_EQ(entry.probe->view.NumVertices(), entry.graph.NumVertices());
    EXPECT_EQ(entry.probe->view.NumEdges(), entry.graph.NumEdges());
    EXPECT_EQ(entry.probe->plan.num_vertices(), entry.graph.NumVertices());
    EXPECT_EQ(entry.probe->plan.num_edges(), entry.graph.NumEdges());
  }
}

TEST(QueryCacheTest, ProbeDataMatchesEnumeration) {
  // 14 inserts into 8 slots flush three times, the last one with
  // evictions, so survivors have moved when the check runs.
  const IgqOptions options = SmallOptions(8, 4);
  std::vector<Graph> graphs;
  Rng rng(31);
  for (int i = 0; i < 14; ++i) {
    graphs.push_back(RandomConnectedGraph(rng, 4 + rng.Below(6), 3, 3));
  }

  // Features passed in, as the engines do with the ones they probed with.
  {
    ShardedQueryCache cache(options);
    for (const Graph& g : graphs) {
      cache.Insert(g, {}, GraphCanonicalCode(g), cache.ExtractFeatures(g));
    }
    ExpectProbeDataMatchesEnumeration(cache, options, "features passed in");
  }
  // The two-argument Insert extracts them itself.
  {
    ShardedQueryCache cache(options);
    for (const Graph& g : graphs) cache.Insert(g, {});
    ExpectProbeDataMatchesEnumeration(cache, options, "two-argument Insert");
  }
  // Snapshot payloads carry no probe data; Load derives it from the graphs.
  {
    std::ostringstream payload;
    snapshot::BinaryWriter writer(payload);
    testing::WriteCacheHeader(writer, options, /*num_graphs=*/10,
                              /*dataset_crc=*/0x5eed,
                              /*queries_processed=*/20,
                              /*next_id=*/10);
    const std::vector<GraphId> answer{3};
    writer.WriteU64(8);  // flushed entries
    for (uint64_t i = 0; i < 10; ++i) {
      if (i == 8) writer.WriteU64(2);  // window (Itemp) entries
      testing::WriteRecord(writer, i, graphs[i], answer, {});
    }
    ASSERT_TRUE(writer.ok());
    ShardedQueryCache cache(options, /*universe=*/10);
    std::istringstream in(payload.str());
    snapshot::BinaryReader reader(in);
    ASSERT_TRUE(cache.Load(reader, 10, 0x5eed));
    ExpectProbeDataMatchesEnumeration(cache, options, "Load");
  }
}

TEST(QueryCacheTest, ProbeHitsMatchBruteForceAcrossFlushes) {
  // A one-shard cache under constant eviction. After every insert, a random
  // probe's hits must be exactly the flushed entries whose graph contains
  // the query (supergraph_hits) or is contained in it (subgraph_hits), in
  // position order, each pair checked with VF2. A survivor whose probe data
  // went stale across a flush would break this.
  const Vf2Matcher vf2;
  for (uint64_t seed : {41u, 42u, 43u}) {
    ShardedQueryCache cache(SmallOptions(24, 4));
    Rng rng(seed);
    // Most graphs are neighborhoods of one host, so containments abound;
    // every fourth is unrelated.
    const Graph host = RandomConnectedGraph(rng, 40, 25, 3);
    auto random_graph = [&] {
      if (rng.Below(4) == 0) {
        return RandomConnectedGraph(rng, 3 + rng.Below(6), rng.Below(3), 3);
      }
      return RandomSubgraphOf(rng, host, 2 + rng.Below(9));
    };
    size_t super_hits = 0, sub_hits = 0;
    for (int step = 0; step < 200; ++step) {
      cache.Insert(random_graph(), {});
      const Graph query = random_graph();
      // One shard: Entries() lists the flushed entries first, by position.
      const std::vector<CachedQuery> entries = cache.Entries();
      ASSERT_LE(cache.size(), 24u);
      std::vector<uint64_t> expected_super, expected_sub;
      for (size_t i = 0; i < cache.size(); ++i) {
        if (vf2.Contains(query, entries[i].graph)) {
          expected_super.push_back(entries[i].id);
        }
        if (vf2.Contains(entries[i].graph, query)) {
          expected_sub.push_back(entries[i].id);
        }
      }
      const auto session = cache.Probe(query, cache.ExtractFeatures(query));
      std::vector<uint64_t> got_super, got_sub;
      for (const ShardedQueryCache::Hit& hit : session.supergraph_hits()) {
        got_super.push_back(hit.entry->id);
      }
      for (const ShardedQueryCache::Hit& hit : session.subgraph_hits()) {
        got_sub.push_back(hit.entry->id);
      }
      ASSERT_EQ(got_super, expected_super) << "seed " << seed << ", step "
                                           << step;
      ASSERT_EQ(got_sub, expected_sub) << "seed " << seed << ", step " << step;
      super_hits += got_super.size();
      sub_hits += got_sub.size();
    }
    // The oracle must have had something to say in both directions.
    EXPECT_GT(super_hits, 100u) << "seed " << seed;
    EXPECT_GT(sub_hits, 100u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace igq
