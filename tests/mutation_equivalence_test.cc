// The mutate-vs-rebuild differential harness gating the online-mutation
// feature: randomized add/remove/query interleavings replay against two
// engines over independent database copies — (a) the incremental path
// (method hooks + in-place cache patching) and (b) a rebuild-from-scratch
// oracle whose method reports both hooks as unsupported, forcing
// ApplyMutation's full-Build fallback on every mutation. After every
// operation the two arms must agree bit-for-bit: query answers (also
// checked against the brute-force Ullmann oracle over the live graphs),
// host-method filter candidate sets, QueryStats counters, and the complete
// cache state including the §5.1 credit sequences (H/M/R/C metadata).
//
// Run with --smoke for the reduced CI subset (same coverage, fewer ops).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "igq/engine.h"
#include "igq/mutation.h"
#include "methods/method.h"
#include "methods/registry.h"
#include "tests/oracle/ullmann.h"
#include "tests/state_diff.h"
#include "tests/test_util.h"

namespace {
// Set by --smoke in main(); global scope so both the suites (inside
// namespace igq) and main() see it.
bool g_smoke = false;
}  // namespace

namespace igq {
namespace {

using testing::ExpectSameCacheState;
using testing::ExpectSameStats;
using testing::PermuteVertices;
using testing::RandomConnectedGraph;
using testing::RandomSubgraphOf;

/// Scales a full-mode op count down in --smoke mode.
size_t Ops(size_t full) { return g_smoke ? full / 8 : full; }

// ---------------------------------------------------------------------------
// The rebuild oracle arm.

/// Forwards everything to the wrapped method but inherits the default
/// (unsupported) incremental hooks, so the engine falls back to a full
/// Build() on every mutation — the rebuild-from-scratch oracle.
class RebuildOnlyMethod : public Method {
 public:
  explicit RebuildOnlyMethod(std::unique_ptr<Method> inner)
      : inner_(std::move(inner)) {}

  std::string Name() const override { return inner_->Name(); }
  QueryDirection Direction() const override { return inner_->Direction(); }
  void Build(const GraphDatabase& db) override { inner_->Build(db); }
  std::unique_ptr<PreparedQuery> Prepare(const Graph& query) const override {
    return inner_->Prepare(query);
  }
  std::vector<GraphId> Filter(const PreparedQuery& prepared) const override {
    return inner_->Filter(prepared);
  }
  bool Verify(const PreparedQuery& prepared, GraphId id) const override {
    return inner_->Verify(prepared, id);
  }
  size_t IndexMemoryBytes() const override {
    return inner_->IndexMemoryBytes();
  }

 private:
  std::unique_ptr<Method> inner_;
};

// ---------------------------------------------------------------------------
// Randomized op scripts.

struct Op {
  enum Kind { kAdd, kRemove, kQuery } kind;
  Graph graph;     // kAdd payload / kQuery query
  GraphId id = 0;  // kRemove target
};

Graph MakeDatasetGraph(Rng& rng, QueryDirection direction) {
  // Subgraph datasets carry larger graphs the queries are drawn from;
  // supergraph datasets carry small graphs the (large) queries contain.
  if (direction == QueryDirection::kSubgraph) {
    return RandomConnectedGraph(rng, 8 + rng.Below(5), 3, 4);
  }
  return RandomConnectedGraph(rng, 4 + rng.Below(3), 1, 3);
}

/// One query, given the script generator's mirror of the dataset: usually
/// related to a live graph (nonempty answers), sometimes fresh noise.
Graph MakeQueryGraph(Rng& rng, const std::vector<Graph>& pool,
                     const std::vector<GraphId>& live,
                     QueryDirection direction) {
  const Graph& base = pool[live[rng.Below(live.size())]];
  if (direction == QueryDirection::kSubgraph) {
    if (rng.Chance(0.2)) return RandomConnectedGraph(rng, 5, 2, 4);
    return RandomSubgraphOf(rng, base, 2 + rng.Below(5));
  }
  // Supergraph queries must be big enough to contain stored graphs: either
  // a fresh large graph or a permuted live graph (answer then holds it).
  if (rng.Chance(0.5)) return RandomConnectedGraph(rng, 9 + rng.Below(4), 4, 3);
  return PermuteVertices(rng, base);
}

/// Generates the shared op script and the shared seed dataset. Ids handed
/// out by AddGraph are deterministic (append order), so the generator can
/// mirror liveness without touching an engine.
std::vector<Op> MakeScript(QueryDirection direction, uint64_t seed,
                           size_t num_ops, size_t initial_graphs,
                           GraphDatabase* db) {
  Rng rng(seed);
  std::vector<Graph> pool;
  std::vector<GraphId> live;
  for (size_t i = 0; i < initial_graphs; ++i) {
    pool.push_back(MakeDatasetGraph(rng, direction));
    live.push_back(static_cast<GraphId>(i));
    db->graphs.push_back(pool.back());
  }
  db->RefreshLabelCount();

  std::vector<Op> script;
  std::vector<Graph> past_queries;
  script.reserve(num_ops);
  for (size_t i = 0; i < num_ops; ++i) {
    const double roll = rng.NextDouble();
    if (roll < 0.20) {
      Op op;
      op.kind = Op::kAdd;
      op.graph = MakeDatasetGraph(rng, direction);
      pool.push_back(op.graph);
      live.push_back(static_cast<GraphId>(pool.size() - 1));
      script.push_back(std::move(op));
    } else if (roll < 0.36 && live.size() > initial_graphs / 2) {
      const size_t slot = rng.Below(live.size());
      Op op;
      op.kind = Op::kRemove;
      op.id = live[slot];
      live.erase(live.begin() + static_cast<ptrdiff_t>(slot));
      script.push_back(std::move(op));
    } else {
      Op op;
      op.kind = Op::kQuery;
      // Replaying earlier queries is what drives cache hits — and hits on
      // exact matches return the PATCHED cached answer verbatim, so replays
      // after mutations are the sharpest probe of the patching logic.
      if (!past_queries.empty() && rng.Chance(0.3)) {
        op.graph = past_queries[rng.Below(past_queries.size())];
      } else {
        op.graph = MakeQueryGraph(rng, pool, live, direction);
        past_queries.push_back(op.graph);
      }
      script.push_back(std::move(op));
    }
  }
  return script;
}

// ---------------------------------------------------------------------------
// Oracles and equality checks.

/// Brute-force answer over the LIVE graphs only — removed graphs must never
/// resurface, added graphs must be visible immediately.
std::vector<GraphId> OracleAnswer(const GraphDatabase& db, const Graph& query,
                                  QueryDirection direction) {
  UllmannMatcher matcher;
  std::vector<GraphId> answer;
  for (GraphId i = 0; i < db.graphs.size(); ++i) {
    if (!db.IsLive(i)) continue;
    const bool related = direction == QueryDirection::kSubgraph
                             ? matcher.Contains(query, db.graphs[i])
                             : matcher.Contains(db.graphs[i], query);
    if (related) answer.push_back(i);
  }
  return answer;
}

// ExpectSameStats / ExpectSameCacheState moved to tests/state_diff.h so the
// crash-recovery sweep (recovery_test.cc) can hold recovered engines to the
// same bit-identity bar.

// ---------------------------------------------------------------------------
// The differential harness.

/// One engine arm owning its database copy. Heap-allocated so the engine's
/// interior pointers to the database stay valid.
struct Arm {
  GraphDatabase db;
  std::unique_ptr<Method> method;
  std::unique_ptr<QueryEngine> engine;
};

std::unique_ptr<Arm> MakeArm(const GraphDatabase& seed_db,
                             QueryDirection direction,
                             const std::string& method_name, bool rebuild_only,
                             const IgqOptions& options) {
  auto arm = std::make_unique<Arm>();
  arm->db = seed_db;
  arm->method = MethodRegistry::Create(direction, method_name);
  EXPECT_NE(arm->method, nullptr) << method_name;
  if (rebuild_only) {
    arm->method = std::make_unique<RebuildOnlyMethod>(std::move(arm->method));
  }
  arm->method->Build(arm->db);
  arm->engine =
      std::make_unique<QueryEngine>(arm->db, arm->method.get(), options);
  return arm;
}

/// Replays one script against both arms, asserting equivalence after every
/// op. `expect_incremental` pins whether the method under test actually has
/// incremental hooks (true) or is expected to fall back to Build (false).
void RunDifferential(QueryDirection direction, const std::string& method_name,
                     uint64_t seed, size_t num_ops, bool expect_incremental,
                     size_t initial_graphs = 36) {
  GraphDatabase seed_db;
  const std::vector<Op> script =
      MakeScript(direction, seed, num_ops, initial_graphs, &seed_db);

  IgqOptions options;
  options.cache_capacity = 48;  // small enough that evictions happen
  options.window_size = 16;

  auto incremental =
      MakeArm(seed_db, direction, method_name, /*rebuild_only=*/false, options);
  auto rebuild =
      MakeArm(seed_db, direction, method_name, /*rebuild_only=*/true, options);

  size_t mutations = 0;
  for (size_t i = 0; i < script.size(); ++i) {
    const Op& op = script[i];
    if (op.kind == Op::kQuery) {
      QueryStats stats_a, stats_b;
      const std::vector<GraphId> ans_a =
          incremental->engine->Process(op.graph, &stats_a);
      const std::vector<GraphId> ans_b =
          rebuild->engine->Process(op.graph, &stats_b);
      EXPECT_EQ(ans_a, ans_b) << "op " << i;
      EXPECT_EQ(ans_a, OracleAnswer(incremental->db, op.graph, direction))
          << "op " << i;
      ExpectSameStats(stats_a, stats_b, i);
    } else {
      const GraphMutation mutation = op.kind == Op::kAdd
                                         ? GraphMutation::Add(op.graph)
                                         : GraphMutation::Remove(op.id);
      const MutationResult ra =
          incremental->engine->ApplyMutation(incremental->db, mutation);
      const MutationResult rb =
          rebuild->engine->ApplyMutation(rebuild->db, mutation);
      ASSERT_TRUE(ra.applied) << "op " << i;
      ASSERT_TRUE(rb.applied) << "op " << i;
      EXPECT_EQ(ra.id, rb.id) << "op " << i;
      EXPECT_EQ(ra.epoch, rb.epoch) << "op " << i;
      EXPECT_FALSE(rb.incremental) << "op " << i;  // the oracle always rebuilds
      if (expect_incremental) {
        EXPECT_TRUE(ra.incremental) << "op " << i;
      }
      ++mutations;
      // The host-method filter stage must agree bit-for-bit right after the
      // mutation — the incremental index (possibly carrying garbage postings
      // for removed graphs, subtracted on the filter path) versus the index
      // rebuilt without the removed graphs at all.
      const Graph probe = script[i].kind == Op::kAdd
                              ? op.graph
                              : incremental->db.graphs[op.id];
      const std::vector<GraphId> filter_a =
          incremental->method->Filter(*incremental->method->Prepare(probe));
      const std::vector<GraphId> filter_b =
          rebuild->method->Filter(*rebuild->method->Prepare(probe));
      EXPECT_EQ(filter_a, filter_b) << "op " << i;
    }
    ExpectSameCacheState(incremental->engine->cache(),
                         rebuild->engine->cache(), i);
    if (::testing::Test::HasFailure()) {
      FAIL() << "differential divergence at op " << i << " (method "
             << method_name << ", seed " << seed << ")";
    }
  }
  EXPECT_GT(mutations, num_ops / 5) << "script degenerated (seed " << seed
                                    << ")";
}

// ---------------------------------------------------------------------------
// Randomized differential suites, one per host method. Grapes and GGSX share
// PathMethodBase's incremental hooks; the feature-count method has its own;
// CT-Index has none, so both arms rebuild — that run gates the
// tombstone-aware Filter and the Build() fallback path itself.

TEST(MutationEquivalence, GrapesDifferential) {
  RunDifferential(QueryDirection::kSubgraph, "grapes", /*seed=*/11,
                  Ops(560), /*expect_incremental=*/true);
  RunDifferential(QueryDirection::kSubgraph, "grapes", /*seed=*/12,
                  Ops(560), /*expect_incremental=*/true);
}

TEST(MutationEquivalence, GgsxDifferential) {
  RunDifferential(QueryDirection::kSubgraph, "ggsx", /*seed=*/21,
                  Ops(560), /*expect_incremental=*/true);
  RunDifferential(QueryDirection::kSubgraph, "ggsx", /*seed=*/22,
                  Ops(560), /*expect_incremental=*/true);
}

TEST(MutationEquivalence, FeatureCountDifferential) {
  RunDifferential(QueryDirection::kSupergraph, "featurecount", /*seed=*/31,
                  Ops(560), /*expect_incremental=*/true);
  RunDifferential(QueryDirection::kSupergraph, "featurecount", /*seed=*/32,
                  Ops(560), /*expect_incremental=*/true);
}

TEST(MutationEquivalence, CtIndexRebuildFallback) {
  RunDifferential(QueryDirection::kSubgraph, "ctindex", /*seed=*/41,
                  Ops(280), /*expect_incremental=*/false,
                  /*initial_graphs=*/24);
}

// ---------------------------------------------------------------------------
// Directed cases pinning the individual mutation behaviors.

GraphDatabase SmallDb(uint64_t seed, size_t n, QueryDirection direction) {
  Rng rng(seed);
  GraphDatabase db;
  for (size_t i = 0; i < n; ++i) {
    db.graphs.push_back(MakeDatasetGraph(rng, direction));
  }
  db.RefreshLabelCount();
  return db;
}

TEST(MutationEquivalence, RemovedGraphNeverResurfacesThroughExactHit) {
  Rng rng(7);
  auto db = std::make_unique<GraphDatabase>(
      SmallDb(7, 20, QueryDirection::kSubgraph));
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "grapes");
  method->Build(*db);
  IgqOptions options;
  options.window_size = 1;  // every query flushes straight into Igraphs
  QueryEngine engine(*db, method.get(), options);

  // Find a query with a nonempty answer and cache it.
  Graph query;
  std::vector<GraphId> answer;
  for (int attempt = 0; attempt < 50 && answer.empty(); ++attempt) {
    query = RandomSubgraphOf(rng, db->graphs[rng.Below(db->graphs.size())], 3);
    answer = engine.Process(query);
  }
  ASSERT_FALSE(answer.empty());

  const GraphId victim = answer.front();
  const MutationResult removed =
      engine.ApplyMutation(*db, GraphMutation::Remove(victim));
  ASSERT_TRUE(removed.applied);
  EXPECT_FALSE(db->IsLive(victim));

  // The replay takes the exact-hit shortcut, returning the cached answer
  // verbatim — which must have been patched.
  QueryStats stats;
  const std::vector<GraphId> replay = engine.Process(query, &stats);
  EXPECT_EQ(stats.shortcut, ShortcutKind::kExactHit);
  for (GraphId id : replay) EXPECT_NE(id, victim);
  EXPECT_EQ(replay, OracleAnswer(*db, query, QueryDirection::kSubgraph));
}

TEST(MutationEquivalence, AddedGraphJoinsCachedAnswerThroughExactHit) {
  Rng rng(9);
  auto db = std::make_unique<GraphDatabase>(
      SmallDb(9, 20, QueryDirection::kSubgraph));
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "grapes");
  method->Build(*db);
  IgqOptions options;
  options.window_size = 1;
  QueryEngine engine(*db, method.get(), options);

  Graph query;
  std::vector<GraphId> answer;
  for (int attempt = 0; attempt < 50 && answer.empty(); ++attempt) {
    query = RandomSubgraphOf(rng, db->graphs[rng.Below(db->graphs.size())], 3);
    answer = engine.Process(query);
  }
  ASSERT_FALSE(answer.empty());

  // A permuted copy of a graph the query matches is itself a match.
  const Graph newcomer = PermuteVertices(rng, db->graphs[answer.front()]);
  const MutationResult added =
      engine.ApplyMutation(*db, GraphMutation::Add(newcomer));
  ASSERT_TRUE(added.applied);
  EXPECT_TRUE(added.incremental);  // grapes has the PathMethodBase hooks

  QueryStats stats;
  const std::vector<GraphId> replay = engine.Process(query, &stats);
  EXPECT_EQ(stats.shortcut, ShortcutKind::kExactHit);
  EXPECT_TRUE(std::find(replay.begin(), replay.end(), added.id) !=
              replay.end())
      << "added graph missing from the patched cached answer";
  EXPECT_EQ(replay, OracleAnswer(*db, query, QueryDirection::kSubgraph));
}

TEST(MutationEquivalence, InvalidMutationsAreRejectedWithoutStateChange) {
  auto db = std::make_unique<GraphDatabase>(
      SmallDb(13, 8, QueryDirection::kSubgraph));
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "grapes");
  method->Build(*db);
  QueryEngine engine(*db, method.get(), IgqOptions{});

  // Out-of-range remove.
  MutationResult result =
      engine.ApplyMutation(*db, GraphMutation::Remove(1000));
  EXPECT_FALSE(result.applied);
  EXPECT_EQ(db->mutation_epoch, 0u);

  // Double remove.
  ASSERT_TRUE(engine.ApplyMutation(*db, GraphMutation::Remove(3)).applied);
  const uint64_t epoch = db->mutation_epoch;
  result = engine.ApplyMutation(*db, GraphMutation::Remove(3));
  EXPECT_FALSE(result.applied);
  EXPECT_EQ(db->mutation_epoch, epoch);

  // A foreign database is refused outright.
  GraphDatabase other = SmallDb(14, 4, QueryDirection::kSubgraph);
  result = engine.ApplyMutation(other, GraphMutation::Remove(0));
  EXPECT_FALSE(result.applied);
  EXPECT_EQ(other.mutation_epoch, 0u);
}

TEST(MutationEquivalence, EpochAdvancesAndIdsStayStable) {
  auto db = std::make_unique<GraphDatabase>(
      SmallDb(17, 6, QueryDirection::kSubgraph));
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "grapes");
  method->Build(*db);
  QueryEngine engine(*db, method.get(), IgqOptions{});

  Rng rng(17);
  const MutationResult add1 = engine.ApplyMutation(
      *db, GraphMutation::Add(RandomConnectedGraph(rng, 6, 2, 3)));
  EXPECT_EQ(add1.id, 6u);
  EXPECT_EQ(add1.epoch, 1u);

  ASSERT_TRUE(engine.ApplyMutation(*db, GraphMutation::Remove(2)).applied);
  EXPECT_EQ(db->mutation_epoch, 2u);

  // Ids are never reused: the next add gets a fresh id past the tombstone.
  const MutationResult add2 = engine.ApplyMutation(
      *db, GraphMutation::Add(RandomConnectedGraph(rng, 6, 2, 3)));
  EXPECT_EQ(add2.id, 7u);
  EXPECT_EQ(db->NumLive(), 7u);
  EXPECT_EQ(db->graphs.size(), 8u);
}

}  // namespace
}  // namespace igq

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") g_smoke = true;
  }
  return RUN_ALL_TESTS();
}
