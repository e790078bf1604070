// Tests for the host methods (GGSX, Grapes, CT-Index) and the shared path
// trie: no false negatives in filtering, end-to-end correctness against the
// Ullmann brute force, parallel build equivalence, memory accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <string>

#include "methods/ct_index.h"
#include "methods/feature_count_index.h"
#include "methods/ggsx.h"
#include "methods/grapes.h"
#include "methods/path_trie.h"
#include "methods/registry.h"
#include "serving/budget.h"
#include "snapshot/serializer.h"
#include "tests/test_util.h"

namespace igq {
namespace {

using testing::BruteForceSubgraphAnswer;
using testing::BruteForceSupergraphAnswer;
using testing::RandomConnectedGraph;
using testing::RandomSubgraphOf;

GraphDatabase MakeSmallDb(uint64_t seed, size_t num_graphs = 25) {
  Rng rng(seed);
  GraphDatabase db;
  for (size_t i = 0; i < num_graphs; ++i) {
    db.graphs.push_back(
        RandomConnectedGraph(rng, 10 + rng.Below(12), 4 + rng.Below(8), 3));
  }
  db.RefreshLabelCount();
  return db;
}

std::vector<GraphId> RunMethod(Method& method, const Graph& query) {
  auto prepared = method.Prepare(query);
  std::vector<GraphId> answer;
  for (GraphId id : method.Filter(*prepared)) {
    if (method.Verify(*prepared, id)) answer.push_back(id);
  }
  std::sort(answer.begin(), answer.end());
  return answer;
}

TEST(PathTrieTest, FindMissingReturnsNull) {
  PathTrie trie;
  EXPECT_EQ(trie.Find(PackPathKey({1, 2})), nullptr);
  trie.Add(PackPathKey({1, 2}), 0, 3);
  EXPECT_EQ(trie.Find(PackPathKey({1, 3})), nullptr);
  EXPECT_EQ(trie.Find(PackPathKey({1})), nullptr);  // prefix has no postings
}

TEST(PathTrieTest, PostingsStoredPerGraph) {
  // A posting is the 8-byte {graph_id, count} pair; a feature's postings
  // are one array, ascending by graph id.
  static_assert(sizeof(PathPosting) == 8);
  PathTrie trie;
  trie.Add(PackPathKey({1, 2}), 0, 3);
  trie.Add(PackPathKey({1, 2}), 4, 7);
  const auto* postings = trie.Find(PackPathKey({1, 2}));
  ASSERT_NE(postings, nullptr);
  ASSERT_EQ(postings->size(), 2u);
  EXPECT_EQ((*postings)[0].graph_id, 0u);
  EXPECT_EQ((*postings)[0].count, 3u);
  EXPECT_EQ((*postings)[1].graph_id, 4u);
  EXPECT_EQ((*postings)[1].count, 7u);
}

TEST(PathTrieTest, LocationsDedupedAndSorted) {
  PathTrie trie(/*store_locations=*/true);
  const PathKey key = PackPathKey({0, 0});
  std::vector<VertexId> locations{5, 2, 5, 1};
  trie.Add(key, 0, 4, &locations);
  std::vector<VertexId> more{9, 3, 3};
  trie.Add(key, 2, 3, &more);
  trie.Add(key, 5, 1);  // no locations given: an empty span
  // Each posting reads its own span of the node's one location array.
  const std::vector<VertexId> expected{1, 2, 5};
  const std::span<const VertexId> first = trie.Locations(key, 0);
  EXPECT_EQ(std::vector<VertexId>(first.begin(), first.end()), expected);
  const std::span<const VertexId> second = trie.Locations(key, 2);
  EXPECT_EQ(std::vector<VertexId>(second.begin(), second.end()),
            (std::vector<VertexId>{3, 9}));
  EXPECT_TRUE(trie.Locations(key, 5).empty());
  EXPECT_TRUE(trie.Locations(key, 1).empty());  // no posting for graph 1
  EXPECT_TRUE(trie.Locations(PackPathKey({0, 1}), 0).empty());  // absent key

  // A trie without location storage ignores them.
  PathTrie plain;
  plain.Add(key, 0, 4, &locations);
  EXPECT_TRUE(plain.Locations(key, 0).empty());
  EXPECT_NE(plain.Find(key), nullptr);
}

TEST(PathTrieTest, SharedPrefixesShareNodes) {
  PathTrie trie;
  trie.Add(PackPathKey({1, 2, 3}), 0, 1);
  const size_t nodes_before = trie.NumNodes();
  trie.Add(PackPathKey({1, 2, 4}), 0, 1);
  // Only one new node for the diverging last label.
  EXPECT_EQ(trie.NumNodes(), nodes_before + 1);
  EXPECT_EQ(trie.NumFeatures(), 2u);
}

TEST(PathTrieTest, MemoryBytesPositive) {
  PathTrie trie;
  const size_t empty_bytes = trie.MemoryBytes();
  trie.Add(PackPathKey({1, 2, 3}), 0, 1);
  EXPECT_GT(trie.MemoryBytes(), empty_bytes);
}

// Little-endian appenders for hand-written expected Save bytes, written
// without BinaryWriter so the pinned encoding is independent of it.
void AppendU32(std::string* out, uint32_t value) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(value >> (8 * i)));
}
void AppendU64(std::string* out, uint64_t value) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(value >> (8 * i)));
}

std::string SaveBytes(const PathTrie& trie) {
  std::ostringstream out;
  snapshot::BinaryWriter writer(out);
  trie.Save(writer);
  EXPECT_TRUE(writer.ok());
  return std::move(out).str();
}

TEST(PathTrieTest, LocationsSurviveSaveLoadInTheDocumentedEncoding) {
  PathTrie trie(/*store_locations=*/true);
  const std::vector<VertexId> a{2, 0, 2}, b{1}, c{1, 0};
  trie.Add(PackPathKey({3}), 0, 2, &c);     // node 1
  trie.Add(PackPathKey({3, 4}), 0, 3, &a);  // node 2
  trie.Add(PackPathKey({3, 4}), 2, 1, &b);
  const std::string bytes = SaveBytes(trie);

  // docs/FORMATS.md, "Trie encoding".
  std::string expected;
  expected.push_back(1);       // store_locations
  AppendU64(&expected, 3);     // root, [3], [3 4]
  for (uint32_t word : {1, 3, 1, 0}) {  // root: child 3 -> node 1; no postings
    AppendU32(&expected, word);
  }
  // [3]: child 4 -> node 2; posting (graph 0, count 2, locations {0, 1})
  for (uint32_t word : {1, 4, 2, 1, 0, 2, 2, 0, 1}) AppendU32(&expected, word);
  // [3 4]: no children; postings (0, 3, {0, 2}) and (2, 1, {1})
  for (uint32_t word : {0, 2, 0, 3, 2, 0, 2, 2, 1, 1, 1}) {
    AppendU32(&expected, word);
  }
  EXPECT_EQ(bytes, expected);

  const std::vector<Graph> graphs(3, testing::Triangle());
  PathTrie loaded;
  std::istringstream in(bytes);
  snapshot::BinaryReader reader(in);
  ASSERT_TRUE(loaded.Load(reader, 3, std::span<const Graph>(graphs)));
  EXPECT_TRUE(loaded.store_locations());
  EXPECT_EQ(loaded.NumFeatures(), 2u);
  auto locations = [&loaded](PathKey key, GraphId id) {
    const std::span<const VertexId> span = loaded.Locations(key, id);
    return std::vector<VertexId>(span.begin(), span.end());
  };
  EXPECT_EQ(locations(PackPathKey({3}), 0), (std::vector<VertexId>{0, 1}));
  EXPECT_EQ(locations(PackPathKey({3, 4}), 0), (std::vector<VertexId>{0, 2}));
  EXPECT_EQ(locations(PackPathKey({3, 4}), 2), (std::vector<VertexId>{1}));
  EXPECT_EQ(SaveBytes(loaded), bytes);
}

// ---- The containment kernel (PathTrie::FindContainingAll). ----

// Per-branch tallies of the kernel's rules, replayed on the brute-force
// running sets: a dense seed (IdSet::WantsBitmap) tallies every list;
// otherwise each later list is galloped when more than IdSet::kGallopSkew
// times longer than the running set and merge-walked when not.
struct KernelBranches {
  size_t tally = 0;
  size_t gallop = 0;
  size_t merge = 0;
  size_t absent = 0;
  size_t featureless = 0;
};

TEST(ContainmentKernelTest, MatchesBruteForceOnSkewedTries) {
  constexpr size_t kFeatures = 24;
  auto key_of = [](size_t f) {
    return PackPathKey({static_cast<Label>(f), 40});  // already canonical
  };
  const PathKey absent_key = PackPathKey({60, 60});
  KernelBranches reached;
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    const size_t universe = 1024 + rng.Below(1024);
    // Feature f is held by lengths[f] graphs, falling geometrically from
    // every graph to a handful and pairwise distinct, so the rarest list
    // of any query is unique; counts[f][g] is f's count in g (0: none).
    std::vector<size_t> lengths(kFeatures);
    std::vector<std::vector<uint32_t>> counts(
        kFeatures, std::vector<uint32_t>(universe, 0));
    std::vector<GraphId> ids(universe);
    for (size_t f = 0; f < kFeatures; ++f) {
      size_t length = std::max<size_t>(
          static_cast<size_t>(static_cast<double>(universe) * std::pow(0.7, f)),
          kFeatures - f);
      if (f > 0) length = std::min(length, lengths[f - 1] - 1);
      lengths[f] = length;
      for (size_t g = 0; g < universe; ++g) ids[g] = static_cast<GraphId>(g);
      for (size_t i = 0; i < length; ++i) {  // partial Fisher-Yates
        std::swap(ids[i], ids[i + rng.Below(universe - i)]);
        counts[f][ids[i]] = 1 + static_cast<uint32_t>(rng.Below(4));
      }
    }
    PathTrie trie;
    for (size_t g = 0; g < universe; ++g) {
      for (size_t f = 0; f < kFeatures; ++f) {
        if (counts[f][g] > 0) {
          trie.Add(key_of(f), static_cast<GraphId>(g), counts[f][g]);
        }
      }
    }

    // `terms` are (feature, min count) pairs; kFeatures stands for a
    // feature no graph holds.
    auto check = [&](const std::vector<std::pair<size_t, uint32_t>>& terms) {
      PathFeatureCounts query;
      bool absent = false;
      for (const auto& [f, q] : terms) {
        query[f == kFeatures ? absent_key : key_of(f)] = q;
        absent = absent || f == kFeatures;
      }
      std::vector<GraphId> expected;
      if (!terms.empty() && !absent) {
        for (size_t g = 0; g < universe; ++g) {
          bool all = true;
          for (const auto& [f, q] : terms) all = all && counts[f][g] >= q;
          if (all) expected.push_back(static_cast<GraphId>(g));
        }
      }
      std::vector<GraphId> got{7};  // stale contents must be cleared
      trie.FindContainingAll(query, universe, /*control=*/nullptr, &got);
      EXPECT_EQ(got, expected) << "seed " << seed;

      if (terms.empty()) {
        ++reached.featureless;
        return;
      }
      if (absent) {
        ++reached.absent;
        return;
      }
      std::vector<std::pair<size_t, uint32_t>> by_length = terms;
      std::sort(by_length.begin(), by_length.end(),
                [&lengths](const auto& x, const auto& y) {
                  return lengths[x.first] < lengths[y.first];
                });
      std::vector<GraphId> running;
      for (size_t g = 0; g < universe; ++g) {
        if (counts[by_length[0].first][g] >= std::max(1u, by_length[0].second)) {
          running.push_back(static_cast<GraphId>(g));
        }
      }
      if (IdSet::WantsBitmap(running.size(), universe)) {
        ++reached.tally;
        return;
      }
      for (size_t t = 1; t < by_length.size() && !running.empty(); ++t) {
        const auto [f, q] = by_length[t];
        if (lengths[f] > running.size() * IdSet::kGallopSkew) {
          ++reached.gallop;
        } else {
          ++reached.merge;
        }
        std::erase_if(running, [&, f = f, q = q](GraphId g) {
          return counts[f][g] < std::max(1u, q);
        });
      }
    };

    for (int round = 0; round < 200; ++round) {
      std::vector<std::pair<size_t, uint32_t>> terms;
      const size_t num_terms = 1 + rng.Below(5);
      for (size_t t = 0; t < num_terms; ++t) {
        const size_t f = rng.Below(kFeatures);
        bool repeated = false;
        for (const auto& term : terms) repeated = repeated || term.first == f;
        if (repeated) continue;
        const uint32_t q =
            rng.Below(4) == 0 ? 2 + static_cast<uint32_t>(rng.Below(3)) : 1;
        terms.emplace_back(f, q);
      }
      if (rng.Below(10) == 0) terms.emplace_back(kFeatures, 1);
      check(terms);
    }
    // One query per branch by construction: lengths[f] ~ universe * 0.7^f.
    check({{0, 1}, {1, 1}});    // seed ~70% of the universe: tally
    check({{12, 1}, {0, 1}});   // seed ~1.4%, next list ~70x longer: gallop
    check({{10, 1}, {11, 1}});  // ~2.8% vs ~2%: merge-walk
    check({{0, 1}, {kFeatures, 1}});
    check({});
  }
  EXPECT_GT(reached.tally, 0u);
  EXPECT_GT(reached.gallop, 0u);
  EXPECT_GT(reached.merge, 0u);
  EXPECT_GT(reached.absent, 0u);
  EXPECT_GT(reached.featureless, 0u);
}

TEST(ContainmentKernelTest, FeaturelessQueryPerCaller) {
  GraphDatabase db = MakeSmallDb(5, 6);
  // Isub: a featureless query has no cached supergraph candidates.
  FeatureCountIndex index;
  for (GraphId id = 0; id < db.graphs.size(); ++id) {
    index.AddGraph(id, db.graphs[id]);
  }
  std::vector<GraphId> isub{3};
  index.FindPotentialSupergraphsOf(PathFeatureCounts{}, &isub);
  EXPECT_TRUE(isub.empty());
  // The host filter: an empty query is contained in every live graph.
  ASSERT_TRUE(db.RemoveGraph(2));
  GgsxMethod ggsx;
  ggsx.Build(db);
  const auto prepared = ggsx.Prepare(Graph{});
  EXPECT_EQ(ggsx.Filter(*prepared), (std::vector<GraphId>{0, 1, 3, 4, 5}));
}

TEST(ContainmentKernelTest, CancelledControlEmptiesHostFilter) {
  GraphDatabase db = MakeSmallDb(42);
  GgsxMethod ggsx;
  ggsx.Build(db);
  Rng rng(3);
  const Graph query = RandomSubgraphOf(rng, db.graphs[0], 5);
  const auto prepared = ggsx.Prepare(query);
  serving::CancelSource cancel;
  serving::QueryControl control;
  control.Arm(serving::QueryBudget{}, cancel.flag());
  prepared->set_control(&control);
  EXPECT_FALSE(ggsx.Filter(*prepared).empty());  // armed, not yet cancelled
  cancel.RequestCancel();
  EXPECT_TRUE(ggsx.Filter(*prepared).empty());
}

// ---- Parameterized correctness over all registered methods. ----

class MethodCorrectnessTest : public ::testing::TestWithParam<std::string> {};

TEST_P(MethodCorrectnessTest, NoFalseNegativesInFilter) {
  GraphDatabase db = MakeSmallDb(42);
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, GetParam());
  ASSERT_NE(method, nullptr);
  method->Build(db);

  Rng rng(7);
  for (int round = 0; round < 15; ++round) {
    const Graph& source = db.graphs[rng.Below(db.graphs.size())];
    const Graph query = RandomSubgraphOf(rng, source, 4 + rng.Below(6));
    auto prepared = method->Prepare(query);
    std::vector<GraphId> candidates = method->Filter(*prepared);
    std::sort(candidates.begin(), candidates.end());
    for (GraphId truth : BruteForceSubgraphAnswer(db.graphs, query)) {
      EXPECT_TRUE(std::binary_search(candidates.begin(), candidates.end(),
                                     truth))
          << GetParam() << " dropped graph " << truth << " in round " << round;
    }
  }
}

TEST_P(MethodCorrectnessTest, FilterPlusVerifyMatchesBruteForce) {
  GraphDatabase db = MakeSmallDb(11);
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, GetParam());
  ASSERT_NE(method, nullptr);
  method->Build(db);

  Rng rng(13);
  for (int round = 0; round < 15; ++round) {
    // Mix guaranteed-positive and random queries.
    Graph query;
    if (round % 2 == 0) {
      const Graph& source = db.graphs[rng.Below(db.graphs.size())];
      query = RandomSubgraphOf(rng, source, 4 + rng.Below(8));
    } else {
      query = RandomConnectedGraph(rng, 5 + rng.Below(4), 2, 3);
    }
    EXPECT_EQ(RunMethod(*method, query),
              BruteForceSubgraphAnswer(db.graphs, query))
        << GetParam() << " round " << round;
  }
}

TEST_P(MethodCorrectnessTest, IndexMemoryAccounted) {
  GraphDatabase db = MakeSmallDb(3, 8);
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, GetParam());
  method->Build(db);
  EXPECT_GT(method->IndexMemoryBytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, MethodCorrectnessTest,
    ::testing::ValuesIn(MethodRegistry::Known(QueryDirection::kSubgraph)));

TEST(RegistryTest, UnknownNameYieldsNull) {
  EXPECT_EQ(MethodRegistry::Create(QueryDirection::kSubgraph, "nope"), nullptr);
}

TEST(RegistryTest, VerifyThreads) {
  const QueryDirection sub = QueryDirection::kSubgraph;
  EXPECT_EQ(MethodRegistry::Defaults(sub, "grapes6").verify_threads, 6u);
  EXPECT_EQ(MethodRegistry::Defaults(sub, "grapes").verify_threads, 1u);
  EXPECT_EQ(MethodRegistry::Defaults(sub, "ggsx").verify_threads, 1u);
}

TEST(GrapesTest, ParallelBuildEquivalentToSerial) {
  GraphDatabase db = MakeSmallDb(21);
  GrapesMethod serial(1);
  GrapesMethod parallel(6);
  serial.Build(db);
  parallel.Build(db);

  Rng rng(5);
  for (int round = 0; round < 10; ++round) {
    const Graph& source = db.graphs[rng.Below(db.graphs.size())];
    const Graph query = RandomSubgraphOf(rng, source, 6);
    auto prepared_s = serial.Prepare(query);
    auto prepared_p = parallel.Prepare(query);
    EXPECT_EQ(serial.Filter(*prepared_s), parallel.Filter(*prepared_p));
    for (GraphId id : serial.Filter(*prepared_s)) {
      EXPECT_EQ(serial.Verify(*prepared_s, id),
                parallel.Verify(*prepared_p, id));
    }
  }
}

TEST(GrapesTest, LocationRestrictedVerifyAgreesWithPlainVf2) {
  GraphDatabase db = MakeSmallDb(31);
  GrapesMethod grapes(1);
  GgsxMethod ggsx;
  grapes.Build(db);
  ggsx.Build(db);
  Rng rng(9);
  for (int round = 0; round < 20; ++round) {
    Graph query;
    if (round % 2 == 0) {
      query = RandomSubgraphOf(rng, db.graphs[rng.Below(db.graphs.size())], 6);
    } else {
      query = RandomConnectedGraph(rng, 6, 3, 3);
    }
    EXPECT_EQ(RunMethod(grapes, query), RunMethod(ggsx, query))
        << "round " << round;
  }
}

TEST(CtIndexTest, LargerConfigurationStillCorrect) {
  GraphDatabase db = MakeSmallDb(41, 12);
  CtIndexMethod::Options options;
  options.max_tree_vertices = 7;
  options.max_cycle_vertices = 9;
  options.fingerprint_bits = 8192;
  CtIndexMethod method(options);
  method.Build(db);
  Rng rng(2);
  for (int round = 0; round < 8; ++round) {
    const Graph query =
        RandomSubgraphOf(rng, db.graphs[rng.Below(db.graphs.size())], 5);
    EXPECT_EQ(RunMethod(method, query),
              BruteForceSubgraphAnswer(db.graphs, query));
  }
}

TEST(CtIndexTest, SaturatedGraphNeverFiltered) {
  GraphDatabase db;
  Rng rng(50);
  db.graphs.push_back(RandomConnectedGraph(rng, 20, 30, 2));  // dense
  db.graphs.push_back(RandomConnectedGraph(rng, 8, 2, 2));
  db.RefreshLabelCount();
  CtIndexMethod::Options options;
  options.max_instances_per_graph = 10;  // force saturation on graph 0
  CtIndexMethod method(options);
  method.Build(db);
  const Graph query = RandomSubgraphOf(rng, db.graphs[0], 6);
  auto prepared = method.Prepare(query);
  const std::vector<GraphId> candidates = method.Filter(*prepared);
  EXPECT_TRUE(std::find(candidates.begin(), candidates.end(), 0u) !=
              candidates.end());
}

// ---- FeatureCountIndex (Algorithms 1-2) and the supergraph baseline. ----

TEST(FeatureCountIndexTest, FindsAllTrueSubgraphs) {
  Rng rng(61);
  GraphDatabase db = MakeSmallDb(61, 20);
  FeatureCountIndex index;
  for (GraphId i = 0; i < db.graphs.size(); ++i) {
    index.AddGraph(i, db.graphs[i]);
  }
  for (int round = 0; round < 10; ++round) {
    // A supergraph query: one dataset graph with extra decoration would be
    // ideal; here we use a dataset graph itself (contains itself and maybe
    // others).
    const Graph& query = db.graphs[rng.Below(db.graphs.size())];
    std::vector<GraphId> candidates = index.FindPotentialSubgraphsOf(query);
    std::sort(candidates.begin(), candidates.end());
    for (GraphId truth : BruteForceSupergraphAnswer(db.graphs, query)) {
      EXPECT_TRUE(
          std::binary_search(candidates.begin(), candidates.end(), truth))
          << "missing " << truth << " in round " << round;
    }
  }
}

TEST(FeatureCountIndexTest, OccurrenceCountsPrune) {
  // Graph with two A-B edges vs. query with one: the count filter must
  // reject the 2-occurrence graph for a 1-occurrence query.
  Graph two_edges;  // A-B, A-B (a path B-A-B)
  two_edges.AddVertex(1);  // B
  two_edges.AddVertex(0);  // A
  two_edges.AddVertex(1);  // B
  two_edges.AddEdge(0, 1);
  two_edges.AddEdge(1, 2);
  Graph one_edge;
  one_edge.AddVertex(0);
  one_edge.AddVertex(1);
  one_edge.AddEdge(0, 1);

  FeatureCountIndex index;
  index.AddGraph(0, two_edges);
  index.AddGraph(1, one_edge);
  // Query = single A-B edge: graph 0 has feature counts exceeding the
  // query's, so only graph 1 qualifies.
  const std::vector<GraphId> candidates =
      index.FindPotentialSubgraphsOf(one_edge);
  EXPECT_EQ(candidates, std::vector<GraphId>{1});
}

TEST(SupergraphHostMethodTest, MatchesBruteForce) {
  GraphDatabase db = MakeSmallDb(71, 18);
  FeatureCountSupergraphMethod method;
  method.Build(db);
  Rng rng(8);
  for (int round = 0; round < 12; ++round) {
    // Supergraph queries: moderately large random graphs and dataset graphs.
    const Graph query =
        round % 2 == 0 ? db.graphs[rng.Below(db.graphs.size())]
                       : RandomConnectedGraph(rng, 18, 10, 3);
    auto prepared = method.Prepare(query);
    std::vector<GraphId> answer;
    for (GraphId id : method.Filter(*prepared)) {
      if (method.Verify(*prepared, id)) answer.push_back(id);
    }
    std::sort(answer.begin(), answer.end());
    EXPECT_EQ(answer, BruteForceSupergraphAnswer(db.graphs, query))
        << "round " << round;
  }
}

}  // namespace
}  // namespace igq
