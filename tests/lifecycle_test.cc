// Query-lifecycle matrix (ISSUE: robustness): budgets expiring during
// filter, prune, verify, singleflight-wait, and mutation-gate-wait; each
// path must return its typed QueryOutcome within a bounded wall-clock
// multiple of the deadline and leave cache/index state bit-identical to an
// engine that never saw the aborted query (tests/state_diff.h). Also the
// admission-control semantics (shed / expired-in-queue / oversized-runs-
// alone), the exact-hit bypass, the unbudgeted-parity pin for the
// amortized match-core checkpoint, and the cancellation-under-churn
// stress that runs in the ThreadSanitizer CI job.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "igq/concurrent_engine.h"
#include "igq/engine.h"
#include "igq/mutation.h"
#include "igq/pruning.h"
#include "methods/registry.h"
#include "serving/admission.h"
#include "serving/budget.h"
#include "tests/state_diff.h"
#include "tests/test_util.h"

namespace igq {
namespace {

using serving::AdmissionController;
using serving::CancelSource;
using serving::QueryBudget;
using serving::QueryControl;
using serving::QueryOutcomeKind;
using serving::QueryRequest;
using serving::QueryStage;
using serving::StopReason;
using testing::BruteForceSubgraphAnswer;
using testing::ExpectSameCacheState;
using testing::ExpectSameStats;
using testing::RandomConnectedGraph;
using testing::RandomSubgraphOf;

// The acceptance bound: a poison query cancels within 2x its deadline.
// Sanitizer builds slow every search state down, so the same amortized
// checkpoint cadence stretches; give them headroom without weakening the
// release-build pin.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define IGQ_SANITIZER_BUILD 1
#endif
#endif
#ifdef IGQ_SANITIZER_BUILD
constexpr int64_t kDeadlineSlack = 10;
#else
constexpr int64_t kDeadlineSlack = 2;
#endif

GraphDatabase MakeDb(uint64_t seed, size_t num_graphs = 20) {
  Rng rng(seed);
  GraphDatabase db;
  for (size_t i = 0; i < num_graphs; ++i) {
    db.graphs.push_back(
        RandomConnectedGraph(rng, 12 + rng.Below(8), 5 + rng.Below(6), 3));
  }
  db.RefreshLabelCount();
  return db;
}

// Uniform-label rows x cols grid: bipartite and label-symmetric, so an
// odd cycle has no embedding — but proving that exhausts an enormous
// self-avoiding-walk frontier. The poison shape from the ISSUE.
Graph GridGraph(size_t rows, size_t cols) {
  Graph g;
  for (size_t i = 0; i < rows * cols; ++i) g.AddVertex(0);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      const VertexId v = static_cast<VertexId>(r * cols + c);
      if (c + 1 < cols) g.AddEdge(v, v + 1);
      if (r + 1 < rows) g.AddEdge(v, static_cast<VertexId>(v + cols));
    }
  }
  return g;
}

// Uniform-label path: present in every connected uniform-label target of
// enough vertices — a well-behaved query with a distinct canonical form
// per length.
Graph PathGraph(size_t n) {
  Graph g;
  for (size_t i = 0; i < n; ++i) g.AddVertex(0);
  for (size_t i = 0; i + 1 < n; ++i) {
    g.AddEdge(static_cast<VertexId>(i), static_cast<VertexId>(i + 1));
  }
  return g;
}

// Uniform-label star K_{1,leaves}: canonically distinct from any path.
Graph StarGraph(size_t leaves) {
  Graph g;
  g.AddVertex(0);
  for (size_t i = 0; i < leaves; ++i) {
    g.AddVertex(0);
    g.AddEdge(0, static_cast<VertexId>(i + 1));
  }
  return g;
}

// Uniform-label odd cycle: absent from any bipartite target.
Graph OddCycle(size_t n) {
  Graph g;
  for (size_t i = 0; i < n; ++i) g.AddVertex(0);
  for (size_t i = 0; i < n; ++i) {
    g.AddEdge(static_cast<VertexId>(i), static_cast<VertexId>((i + 1) % n));
  }
  return g;
}

// Uniform-label complete bipartite K_{n,n}, optionally minus the perfect
// matching. Still bipartite (no odd cycle), but every level of the
// refutation search fans out to nearly n candidates — the heavyweight
// poison for tests that must outlive a deadline on any hardware.
Graph CompleteBipartite(size_t n, bool drop_matching) {
  Graph g;
  for (size_t i = 0; i < 2 * n; ++i) g.AddVertex(0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (drop_matching && i == j) continue;
      g.AddEdge(static_cast<VertexId>(i), static_cast<VertexId>(n + j));
    }
  }
  return g;
}

GraphDatabase MakeHeavyPoisonDb() {
  GraphDatabase db;
  db.graphs.push_back(CompleteBipartite(7, false));
  db.graphs.push_back(CompleteBipartite(7, true));
  db.RefreshLabelCount();
  return db;
}

GraphDatabase MakeGridDb(size_t grids, size_t rows, size_t cols) {
  GraphDatabase db;
  for (size_t i = 0; i < grids; ++i) {
    db.graphs.push_back(GridGraph(rows, cols + i));
  }
  db.RefreshLabelCount();
  return db;
}

std::vector<Graph> MakeQueries(const GraphDatabase& db, uint64_t seed,
                               size_t count, size_t size = 6) {
  Rng rng(seed);
  std::vector<Graph> queries;
  queries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const Graph& source = db.graphs[rng.Below(db.graphs.size())];
    queries.push_back(RandomSubgraphOf(rng, source, 3 + rng.Below(size)));
  }
  return queries;
}

// ---- QueryControl unit semantics. ----

TEST(QueryControlTest, DeadlineLatchesWithStageAndStaysSticky) {
  QueryControl control;
  QueryBudget budget;
  budget.deadline_micros = 1000;
  CancelSource cancel;
  control.Arm(budget, cancel.flag());
  ASSERT_TRUE(control.limited());
  ASSERT_TRUE(control.has_deadline());
  control.set_stage(QueryStage::kVerify);
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  EXPECT_TRUE(control.CheckNow());
  EXPECT_EQ(control.reason(), StopReason::kDeadline);
  EXPECT_EQ(control.stage_at_stop(), QueryStage::kVerify);
  // Sticky: a later cancel does not overwrite the first latch.
  cancel.RequestCancel();
  EXPECT_TRUE(control.CheckNow());
  EXPECT_EQ(control.reason(), StopReason::kDeadline);
}

TEST(QueryControlTest, StateCapLatches) {
  QueryControl states;
  QueryBudget budget;
  budget.max_states = 1024;
  states.Arm(budget, nullptr);
  EXPECT_TRUE(states.ChargeStates(4096));
  EXPECT_EQ(states.reason(), StopReason::kStateCap);
}

TEST(QueryControlTest, StoppedOutcomeMapsReasonsToKinds) {
  QueryControl cancelled;
  CancelSource cancel;
  cancel.RequestCancel();
  cancelled.Arm(QueryBudget{}, cancel.flag());
  EXPECT_TRUE(cancelled.CheckNow());
  EXPECT_EQ(serving::MakeStoppedOutcome(cancelled, false).kind,
            QueryOutcomeKind::kCancelled);

  QueryControl capped;
  QueryBudget budget;
  budget.max_states = 1024;
  capped.Arm(budget, nullptr);
  capped.ChargeStates(4096);
  EXPECT_EQ(serving::MakeStoppedOutcome(capped, false).kind,
            QueryOutcomeKind::kDeadlineExpired);
  // The degradation ladder upgrades a budget-stop that salvaged an answer.
  EXPECT_EQ(serving::MakeStoppedOutcome(capped, true).kind,
            QueryOutcomeKind::kPartial);
}

// ---- Admission-control unit semantics. ----

TEST(AdmissionTest, WatermarkOversizedAndShedSemantics) {
  AdmissionController admission(10, /*max_waiters=*/0);
  QueryControl control;
  control.Arm(QueryBudget{}, nullptr);
  EXPECT_EQ(admission.Admit(6, control), AdmissionController::Result::kAdmitted);
  EXPECT_EQ(admission.Admit(4, control), AdmissionController::Result::kAdmitted);
  // 10 units in flight, zero queue slots: the next query sheds immediately
  // instead of waiting.
  EXPECT_EQ(admission.Admit(1, control), AdmissionController::Result::kShed);
  admission.Release(10);
  // A query whose cost alone exceeds the watermark runs once it is alone.
  EXPECT_EQ(admission.Admit(100, control),
            AdmissionController::Result::kAdmitted);
  admission.Release(100);
  const AdmissionController::Stats stats = admission.snapshot();
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.inflight_cost, 0u);
}

TEST(AdmissionTest, DeadlineExpiresInQueue) {
  AdmissionController admission(10, /*max_waiters=*/4);
  QueryControl filler;
  filler.Arm(QueryBudget{}, nullptr);
  ASSERT_EQ(admission.Admit(9, filler), AdmissionController::Result::kAdmitted);

  QueryControl control;
  QueryBudget budget;
  budget.deadline_micros = 2000;
  control.Arm(budget, nullptr);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(admission.Admit(5, control),
            AdmissionController::Result::kStopped);
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_LT(waited, std::chrono::seconds(5));  // bounded, not hung
  EXPECT_TRUE(control.stopped());
  EXPECT_EQ(control.reason(), StopReason::kDeadline);
  EXPECT_EQ(admission.snapshot().expired_in_queue, 1u);
  EXPECT_EQ(admission.snapshot().cancelled_in_queue, 0u);
  admission.Release(9);
}

// ---- Budget expiring during prune (between cached entries). ----

TEST(LifecycleUnitTest, PruneStopsBetweenCachedEntries) {
  CachedQuery first, second;
  first.id = 1;
  first.answer = IdSet::FromIds({0, 1}, 10);
  second.id = 2;
  second.answer = IdSet::FromIds({2, 3}, 10);
  const std::vector<const CachedQuery*> guarantee{&first, &second};
  const std::vector<const CachedQuery*> intersect;
  const std::vector<GraphId> candidates{0, 1, 2, 3, 4, 5};

  CancelSource cancel;
  QueryControl control;
  control.Arm(QueryBudget{}, cancel.flag());
  control.set_stage(QueryStage::kProbe);
  PruneScratch scratch;
  size_t credited_entries = 0;
  const PruneOutcome& outcome = PruneCandidates(
      candidates, guarantee, intersect,
      [&](PruneSide, size_t, std::span<const GraphId>) {
        ++credited_entries;
        cancel.RequestCancel();  // budget dies while pruning
      },
      scratch, &control);

  EXPECT_TRUE(control.stopped());
  EXPECT_EQ(control.reason(), StopReason::kCancelled);
  EXPECT_EQ(control.stage_at_stop(), QueryStage::kProbe);
  // Only the first entry was consulted: it earned its credit and its
  // guarantees still hold (true facts), the second earned nothing.
  EXPECT_EQ(credited_entries, 1u);
  EXPECT_EQ(outcome.guaranteed.size(), 2u);
  EXPECT_TRUE(outcome.guaranteed.contains(0));
  EXPECT_TRUE(outcome.guaranteed.contains(1));
}

// ---- Sequential engine: parity and state-untouched aborts. ----

TEST(LifecycleSequentialTest, BudgetedPipelineParityWithPlainProcess) {
  const GraphDatabase db = MakeDb(101);
  auto method_a = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  auto method_b = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  method_a->Build(db);
  method_b->Build(db);
  IgqOptions options;
  options.cache_capacity = 32;
  options.window_size = 4;
  options.verify_threads = 2;  // the pool path must hold parity too
  QueryEngine budgeted(db, method_a.get(), options);
  QueryEngine plain(db, method_b.get(), options);

  // A live cancel flag (never fired) forces the full budgeted pipeline —
  // deferred tick/credits/insert — which must replay to a bit-identical
  // cache trajectory and identical per-query stats.
  CancelSource never_fired;
  QueryRequest request;
  request.cancel = &never_fired;
  const std::vector<Graph> queries = MakeQueries(db, 103, 40);
  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryResult via_budget =
        budgeted.ProcessWithBudget(queries[i], request, /*collect_stats=*/true);
    QueryStats plain_stats;
    const std::vector<GraphId> via_plain =
        plain.Process(queries[i], &plain_stats);
    EXPECT_EQ(via_budget.outcome.kind, QueryOutcomeKind::kCompleted);
    EXPECT_EQ(via_budget.answer, via_plain) << "query " << i;
    ExpectSameStats(via_budget.stats, plain_stats, i);
    ExpectSameCacheState(budgeted.cache(), plain.cache(), i);
  }
}

TEST(LifecycleSequentialTest, CancelledQueryLeavesStateBitIdentical) {
  const GraphDatabase db = MakeDb(107);
  auto method_a = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  auto method_b = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  method_a->Build(db);
  method_b->Build(db);
  IgqOptions options;
  options.cache_capacity = 16;
  options.window_size = 2;
  QueryEngine engine(db, method_a.get(), options);
  QueryEngine twin(db, method_b.get(), options);

  const std::vector<Graph> warm = MakeQueries(db, 109, 12);
  for (const Graph& q : warm) {
    engine.Process(q);
    twin.Process(q);
  }

  CancelSource cancel;
  cancel.RequestCancel();  // dead on arrival
  QueryRequest request;
  request.cancel = &cancel;
  const QueryResult result = engine.ProcessWithBudget(warm[0], request);
  EXPECT_EQ(result.outcome.kind, QueryOutcomeKind::kCancelled);
  EXPECT_EQ(result.outcome.reason, StopReason::kCancelled);
  EXPECT_FALSE(result.outcome.answer_usable());
  EXPECT_TRUE(result.answer.empty());
  // The twin never saw the cancelled query; the engine must be
  // indistinguishable from it — no tick, no credits, no insertion.
  EXPECT_EQ(engine.cache().queries_processed(),
            twin.cache().queries_processed());
  ExpectSameCacheState(engine.cache(), twin.cache(), 999);
}

TEST(LifecycleSequentialTest, StateCapStopsPoisonAndLeavesStateUntouched) {
  const GraphDatabase db = MakeGridDb(3, 8, 8);
  auto method_a = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  auto method_b = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  method_a->Build(db);
  method_b->Build(db);
  IgqOptions options;
  options.cache_capacity = 16;
  options.window_size = 2;
  QueryEngine engine(db, method_a.get(), options);
  QueryEngine twin(db, method_b.get(), options);

  const std::vector<Graph> warm = MakeQueries(db, 113, 6, 3);
  for (const Graph& q : warm) {
    engine.Process(q);
    twin.Process(q);
  }

  QueryRequest request;
  request.budget.max_states = 2048;
  const QueryResult result = engine.ProcessWithBudget(OddCycle(9), request);
  EXPECT_EQ(result.outcome.reason, StopReason::kStateCap);
  EXPECT_TRUE(result.outcome.kind == QueryOutcomeKind::kDeadlineExpired ||
              result.outcome.kind == QueryOutcomeKind::kPartial)
      << static_cast<int>(result.outcome.kind);
  // A partial answer is a true subset: nothing in it may be wrong, and for
  // an odd cycle against bipartite grids the full answer is empty.
  EXPECT_TRUE(result.answer.empty());
  ExpectSameCacheState(engine.cache(), twin.cache(), 998);
}

// The acceptance pin: a poison query — label-symmetric near-regular
// grids, tens of millions of search states — budgeted at 50ms returns its
// typed outcome within kDeadlineSlack x the deadline.
TEST(LifecycleSequentialTest, PoisonQueryCancelsWithinDeadlineBound) {
  const GraphDatabase db = MakeHeavyPoisonDb();
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  method->Build(db);
  IgqOptions options;
  QueryEngine engine(db, method.get(), options);

  constexpr int64_t kDeadlineMicros = 50'000;
  QueryRequest request;
  request.budget.deadline_micros = kDeadlineMicros;
  const auto start = std::chrono::steady_clock::now();
  const QueryResult result = engine.ProcessWithBudget(OddCycle(13), request);
  const int64_t wall_micros =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(result.outcome.reason, StopReason::kDeadline);
  EXPECT_TRUE(result.outcome.kind == QueryOutcomeKind::kDeadlineExpired ||
              result.outcome.kind == QueryOutcomeKind::kPartial);
  EXPECT_TRUE(result.answer.empty());
  EXPECT_LE(wall_micros, kDeadlineMicros * kDeadlineSlack)
      << "poison query overran its deadline bound";
}

TEST(LifecycleSequentialTest, BudgetedBatchReportsOutcomes) {
  const GraphDatabase db = MakeDb(127);
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  method->Build(db);
  QueryEngine engine(db, method.get(), IgqOptions{});

  const std::vector<Graph> queries = MakeQueries(db, 131, 10);
  QueryRequest request;
  request.budget.deadline_micros = 10'000'000;  // generous: everything lands
  const std::vector<QueryResult> results =
      engine.ProcessConcurrent(queries, /*streams=*/1, request);
  ASSERT_EQ(results.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(results[i].outcome.kind, QueryOutcomeKind::kCompleted);
    EXPECT_EQ(results[i].answer, BruteForceSubgraphAnswer(db.graphs, queries[i]))
        << "query " << i;
  }
  const serving::OutcomeCounters counters = engine.serving_counters();
  EXPECT_EQ(counters.completed, queries.size());
  EXPECT_EQ(counters.total(), queries.size());
}

// QueryEngine filters before its exact-hit lookup, so a query waiting for
// admission holds candidates filtered before it dropped the writer gate.
// Mutations applied meanwhile must not leak stale candidates into what it
// answers and caches: once quiet, every query — now an exact hit on its
// cached answer — matches brute force over the live graphs.
TEST(LifecycleSequentialTest, AdmissionWaitUnderChurnStaysExact) {
  auto db = std::make_unique<GraphDatabase>(MakeDb(223, 16));
  const std::vector<Graph> originals = db->graphs;
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "grapes");
  method->Build(*db);
  IgqOptions options;
  options.cache_capacity = 512;  // no eviction: every answer stays cached
  options.window_size = 8;
  options.serving.admission_watermark = 1;  // one query runs at a time
  options.serving.admission_max_waiters = 64;
  QueryEngine engine(*db, method.get(), options);
  const std::vector<Graph> queries = MakeQueries(*db, 227, 192);

  // Copies of the source graphs join the answers of the queries drawn from
  // them; removals drop ids from them.
  std::atomic<bool> done{false};
  std::thread writer([&] {
    Rng rng(229);
    std::vector<GraphId> live;
    for (GraphId id = 0; id < originals.size(); ++id) live.push_back(id);
    for (int op = 0; op < 1000 && !done.load(std::memory_order_acquire);
         ++op) {
      if (rng.Chance(0.6) || live.size() <= 8) {
        const MutationResult added = engine.ApplyMutation(
            *db, GraphMutation::Add(originals[rng.Below(originals.size())]));
        EXPECT_TRUE(added.applied);
        live.push_back(added.id);
      } else {
        const size_t slot = rng.Below(live.size());
        EXPECT_TRUE(
            engine.ApplyMutation(*db, GraphMutation::Remove(live[slot]))
                .applied);
        live.erase(live.begin() + static_cast<ptrdiff_t>(slot));
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  QueryRequest request;
  request.budget.deadline_micros = 60'000'000;  // limited, so admission runs
  for (const QueryResult& result :
       engine.ProcessConcurrent(queries, /*streams=*/4, request)) {
    EXPECT_EQ(result.outcome.kind, QueryOutcomeKind::kCompleted);
  }
  done.store(true, std::memory_order_release);
  writer.join();
  EXPECT_GT(engine.admission_stats().admitted, 0u);

  for (size_t i = 0; i < queries.size(); ++i) {
    std::vector<GraphId> expected;
    for (GraphId id : BruteForceSubgraphAnswer(db->graphs, queries[i])) {
      if (db->IsLive(id)) expected.push_back(id);
    }
    EXPECT_EQ(engine.Process(queries[i]), expected) << "query " << i;
  }
}

// ---- Concurrent engine: gate-wait, singleflight, admission, churn. ----

IgqOptions ConcurrentOptions() {
  IgqOptions options;
  options.cache_capacity = 32;
  options.window_size = 4;
  options.cache_shards = 2;
  return options;
}

TEST(LifecycleConcurrentTest, GateWaitDeadlineExpiresWhileMutationHolds) {
  const GraphDatabase db = MakeDb(137);
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  method->Build(db);
  ConcurrentQueryEngine engine(db, method.get(), ConcurrentOptions());
  const Graph query = MakeQueries(db, 139, 1)[0];

  auto gate = engine.LockWriterGate();  // a mutation is "in flight"
  QueryResult result;
  std::thread stream([&] {
    QueryRequest request;
    request.budget.deadline_micros = 20'000;
    result = engine.ProcessWithBudget(query, request);
  });
  stream.join();
  gate.unlock();

  EXPECT_EQ(result.outcome.kind, QueryOutcomeKind::kDeadlineExpired);
  EXPECT_EQ(result.outcome.reason, StopReason::kDeadline);
  EXPECT_EQ(result.outcome.stage, QueryStage::kGateWait);
  EXPECT_TRUE(result.answer.empty());
  // Bounded: the gate wait is a timed lock, not a hang.
  EXPECT_LT(result.outcome.elapsed_micros, 20'000 * 50);
  // The engine still serves once the writer releases.
  EXPECT_EQ(engine.Process(query), BruteForceSubgraphAnswer(db.graphs, query));
}

TEST(LifecycleConcurrentTest, GateWaitCancellationObservedAfterAcquire) {
  const GraphDatabase db = MakeDb(149);
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  method->Build(db);
  ConcurrentQueryEngine engine(db, method.get(), ConcurrentOptions());
  const Graph query = MakeQueries(db, 151, 1)[0];

  CancelSource cancel;
  cancel.RequestCancel();
  auto gate = engine.LockWriterGate();
  QueryResult result;
  std::thread stream([&] {
    QueryRequest request;  // no deadline: blocks until the writer finishes
    request.cancel = &cancel;
    result = engine.ProcessWithBudget(query, request);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  gate.unlock();  // writer done; the stream acquires, then sees the cancel
  stream.join();

  EXPECT_EQ(result.outcome.kind, QueryOutcomeKind::kCancelled);
  EXPECT_EQ(result.outcome.stage, QueryStage::kGateWait);
  EXPECT_TRUE(result.answer.empty());
}

TEST(LifecycleConcurrentTest, FollowerDeadlineExpiresInSingleflightWait) {
  const GraphDatabase db = MakeHeavyPoisonDb();
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  method->Build(db);
  ConcurrentQueryEngine engine(db, method.get(), ConcurrentOptions());
  const Graph poison = OddCycle(13);

  CancelSource leader_cancel;
  QueryResult leader_result;
  std::thread leader([&] {
    QueryRequest request;
    request.budget.deadline_micros = 20'000'000;  // effectively forever
    request.cancel = &leader_cancel;
    leader_result = engine.ProcessWithBudget(poison, request);
  });
  // Give the leader time to register as the in-flight computation.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  QueryRequest follower_request;
  follower_request.budget.deadline_micros = 50'000;
  const auto start = std::chrono::steady_clock::now();
  const QueryResult follower = engine.ProcessWithBudget(poison, follower_request);
  const int64_t wall_micros =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  leader_cancel.RequestCancel();
  leader.join();

  EXPECT_EQ(follower.outcome.kind, QueryOutcomeKind::kDeadlineExpired);
  EXPECT_EQ(follower.outcome.reason, StopReason::kDeadline);
  EXPECT_EQ(follower.outcome.stage, QueryStage::kSingleflightWait);
  EXPECT_LE(wall_micros, 50'000 * kDeadlineSlack);
  // The cancelled leader reports a typed stop; the degradation ladder may
  // upgrade it to kPartial when the stop salvaged a (possibly empty)
  // cache-composed answer, but the reason stays kCancelled.
  EXPECT_NE(leader_result.outcome.kind, QueryOutcomeKind::kCompleted);
  EXPECT_EQ(leader_result.outcome.reason, StopReason::kCancelled);
  // Exactly one pipeline execution: the follower never ran it.
  EXPECT_EQ(engine.pipeline_executions(), 1u);
}

// A parked query notices its cancel flag within one poll interval however
// far away its own deadline is: the singleflight follower and the admission
// queue both wait through QueryControl::Wait. Each case parks a query with
// a 3-second deadline behind a poison query that runs until its own
// 3-second deadline, then cancels it.
TEST(LifecycleConcurrentTest, CancelReachesParkedQueriesBeforeTheirDeadline) {
  const GraphDatabase db = MakeHeavyPoisonDb();
  const Graph poison = OddCycle(13);
  constexpr int64_t kDeadlineMicros = 3'000'000;
  for (const bool admission : {false, true}) {
    SCOPED_TRACE(admission ? "admission queue" : "singleflight follower");
    auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
    method->Build(db);
    IgqOptions options = ConcurrentOptions();
    // Any real query fills the engine, so the second one queues.
    if (admission) options.serving.admission_watermark = 1;
    ConcurrentQueryEngine engine(db, method.get(), options);

    CancelSource leader_cancel;
    std::thread leader([&] {
      QueryRequest request;
      request.budget.deadline_micros = kDeadlineMicros;
      request.cancel = &leader_cancel;
      engine.ProcessWithBudget(poison, request);
    });
    // The poison query is past admission and singleflight registration.
    for (int i = 0; i < 2000 && engine.pipeline_executions() == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(engine.pipeline_executions(), 1u);

    CancelSource cancel;
    QueryResult parked;
    std::thread waiter([&] {
      QueryRequest request;
      request.budget.deadline_micros = kDeadlineMicros;
      request.cancel = &cancel;
      // The same key coalesces onto the poison query; a distinct one queues.
      parked = engine.ProcessWithBudget(admission ? StarGraph(4) : poison,
                                        request);
    });
    if (admission) {
      for (int i = 0; i < 2000 && engine.admission_stats().waiters == 0; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      EXPECT_EQ(engine.admission_stats().waiters, 1u);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const auto fired = std::chrono::steady_clock::now();
    cancel.RequestCancel();
    waiter.join();
    const auto latency = std::chrono::steady_clock::now() - fired;
    leader_cancel.RequestCancel();
    leader.join();

    EXPECT_EQ(parked.outcome.kind, QueryOutcomeKind::kCancelled);
    EXPECT_EQ(parked.outcome.reason, StopReason::kCancelled);
    EXPECT_EQ(parked.outcome.stage, admission ? QueryStage::kAdmission
                                              : QueryStage::kSingleflightWait);
    EXPECT_LT(latency, std::chrono::seconds(1));
    EXPECT_TRUE(parked.answer.empty());
    // The parked query never ran the pipeline.
    EXPECT_EQ(engine.pipeline_executions(), 1u);
    if (admission) {
      // Counted as what stopped it: a cancellation, not an expiry.
      EXPECT_EQ(engine.admission_stats().cancelled_in_queue, 1u);
      EXPECT_EQ(engine.admission_stats().expired_in_queue, 0u);
    }
  }
}

TEST(LifecycleConcurrentTest, LeaderAbortWakesFollowerWithTypedOutcome) {
  // Moderate poison (~200ms of refutation on current hardware): heavy
  // enough that the leader's 25ms deadline reliably expires first, light
  // enough that the follower can then finish the query itself.
  GraphDatabase db;
  db.graphs.push_back(CompleteBipartite(7, true));
  const Graph poison = OddCycle(11);
  db.RefreshLabelCount();
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  method->Build(db);
  ConcurrentQueryEngine engine(db, method.get(), ConcurrentOptions());

  QueryResult leader_result;
  std::thread leader([&] {
    QueryRequest request;
    request.budget.deadline_micros = 25'000;
    leader_result = engine.ProcessWithBudget(poison, request);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  // Budgeted but effectively unlimited: after the leader aborts, the
  // follower must wake (typed, not hung) and finish the query itself.
  CancelSource never_fired;
  QueryRequest follower_request;
  follower_request.cancel = &never_fired;
  const QueryResult follower = engine.ProcessWithBudget(poison, follower_request);
  leader.join();

  EXPECT_NE(leader_result.outcome.kind, QueryOutcomeKind::kCompleted);
  EXPECT_EQ(follower.outcome.kind, QueryOutcomeKind::kCompleted);
  EXPECT_EQ(follower.answer, BruteForceSubgraphAnswer(db.graphs, poison));
}

TEST(LifecycleConcurrentTest, OverloadShedsButAdmitsExactHits) {
  const GraphDatabase db = MakeHeavyPoisonDb();
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  method->Build(db);
  IgqOptions options = ConcurrentOptions();
  options.serving.admission_watermark = 1;  // any real query fills the engine
  options.serving.admission_max_waiters = 1;
  ConcurrentQueryEngine engine(db, method.get(), options);

  // Warm an exact-hit entry while the engine is idle, and flush it so the
  // canonical fast path can see it. The well-behaved queries below use
  // canonically distinct shapes (path vs star) so none of them
  // accidentally rides this entry's fast path.
  const Graph cached_query = PathGraph(3);
  const std::vector<GraphId> cached_answer = engine.Process(cached_query);
  engine.mutable_cache().FlushAll();

  CancelSource poison_cancel;
  QueryResult poison_result;
  std::thread poison_stream([&] {
    QueryRequest request;
    request.budget.deadline_micros = 20'000'000;
    request.cancel = &poison_cancel;
    poison_result = engine.ProcessWithBudget(OddCycle(11), request);
  });
  // Wait until the poison query holds its admission cost.
  for (int i = 0; i < 2000 && engine.admission_stats().inflight_cost == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(engine.admission_stats().inflight_cost, 0u);

  // One well-behaved query occupies the single queue slot.
  QueryResult queued_result;
  std::thread queued_stream([&] {
    QueryRequest request;
    request.budget.deadline_micros = 20'000'000;
    queued_result = engine.ProcessWithBudget(StarGraph(4), request);
  });
  for (int i = 0; i < 2000 && engine.admission_stats().waiters == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(engine.admission_stats().waiters, 1u);

  // The queue is full: the next expensive query is shed, typed, instantly.
  QueryRequest shed_request;
  shed_request.budget.deadline_micros = 20'000'000;
  const QueryResult shed = engine.ProcessWithBudget(PathGraph(5), shed_request);
  EXPECT_EQ(shed.outcome.kind, QueryOutcomeKind::kShed);
  EXPECT_EQ(shed.outcome.stage, QueryStage::kAdmission);
  EXPECT_TRUE(shed.answer.empty());
  EXPECT_GE(engine.admission_stats().shed, 1u);

  // But the exact-hit fast path bypasses admission even under overload.
  QueryRequest hit_request;
  hit_request.budget.deadline_micros = 1'000'000;
  const QueryResult hit = engine.ProcessWithBudget(cached_query, hit_request);
  EXPECT_EQ(hit.outcome.kind, QueryOutcomeKind::kCompleted);
  EXPECT_EQ(hit.answer, cached_answer);

  poison_cancel.RequestCancel();
  poison_stream.join();
  queued_stream.join();
  EXPECT_NE(poison_result.outcome.kind, QueryOutcomeKind::kCompleted);
  EXPECT_EQ(poison_result.outcome.reason, StopReason::kCancelled);
  // Once the poison released its cost, the queued query ran to completion.
  EXPECT_EQ(queued_result.outcome.kind, QueryOutcomeKind::kCompleted);

  const serving::OutcomeCounters counters = engine.serving_counters();
  EXPECT_GE(counters.shed, 1u);
  EXPECT_GE(counters.cancelled + counters.partial, 1u);
  EXPECT_GE(counters.completed, 2u);
}

// The ThreadSanitizer target: concurrent budgeted streams, cross-thread
// cancellation mid-flight, and dataset mutations churning the writer gate,
// all at once. Afterwards the engine must still answer correctly.
TEST(LifecycleConcurrentTest, CancellationUnderChurn) {
  GraphDatabase db = MakeDb(173, 16);
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  method->Build(db);
  IgqOptions options = ConcurrentOptions();
  options.cache_shards = 4;
  options.verify_threads = 2;
  ConcurrentQueryEngine engine(db, method.get(), options);

  constexpr size_t kStreams = 4;
  constexpr size_t kPerStream = 20;
  std::vector<CancelSource> cancels(kStreams * kPerStream);
  std::atomic<uint64_t> issued{0};

  std::vector<std::thread> streams;
  streams.reserve(kStreams);
  for (size_t s = 0; s < kStreams; ++s) {
    streams.emplace_back([&, s] {
      const std::vector<Graph> queries =
          MakeQueries(db, 1000 + s, kPerStream);
      for (size_t i = 0; i < kPerStream; ++i) {
        QueryRequest request;
        request.cancel = &cancels[s * kPerStream + i];
        if (i % 3 == 0) request.budget.deadline_micros = 1'000;
        const QueryResult result = engine.ProcessWithBudget(queries[i], request);
        EXPECT_TRUE(result.outcome.kind == QueryOutcomeKind::kCompleted ||
                    result.outcome.kind == QueryOutcomeKind::kPartial ||
                    result.outcome.kind == QueryOutcomeKind::kDeadlineExpired ||
                    result.outcome.kind == QueryOutcomeKind::kCancelled);
        issued.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Cross-thread cancellation storm: fire every source while queries run.
  std::thread canceller([&] {
    Rng rng(179);
    for (size_t i = 0; i < cancels.size(); ++i) {
      cancels[rng.Below(cancels.size())].RequestCancel();
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });

  // Writer-gate churn: dataset mutations interleave with the streams.
  std::thread mutator([&] {
    Rng rng(181);
    for (int i = 0; i < 4; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      engine.ApplyMutation(
          db, GraphMutation::Add(RandomConnectedGraph(rng, 10, 5, 3)));
    }
  });

  for (std::thread& t : streams) t.join();
  canceller.join();
  mutator.join();

  EXPECT_EQ(engine.serving_counters().total(), issued.load());
  EXPECT_EQ(engine.admission_stats().inflight_cost, 0u);
  // Quiesced: the engine answers a fresh query correctly on the final db.
  const Graph probe = MakeQueries(db, 191, 1)[0];
  EXPECT_EQ(engine.Process(probe), BruteForceSubgraphAnswer(db.graphs, probe));
}

TEST(LifecycleConcurrentTest, AbortedQueryLeavesSharedCacheUntouched) {
  const GraphDatabase db = MakeGridDb(3, 8, 8);
  auto method_a = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  auto method_b = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  method_a->Build(db);
  method_b->Build(db);
  ConcurrentQueryEngine engine(db, method_a.get(), ConcurrentOptions());
  ConcurrentQueryEngine twin(db, method_b.get(), ConcurrentOptions());

  const std::vector<Graph> warm = MakeQueries(db, 193, 8, 3);
  for (const Graph& q : warm) {
    engine.Process(q);
    twin.Process(q);
  }

  QueryRequest request;
  request.budget.max_states = 2048;
  const QueryResult result = engine.ProcessWithBudget(OddCycle(9), request);
  EXPECT_FALSE(result.outcome.kind == QueryOutcomeKind::kCompleted);
  EXPECT_EQ(engine.cache().queries_processed(),
            twin.cache().queries_processed());
  EXPECT_EQ(engine.cache().size(), twin.cache().size());
  EXPECT_EQ(engine.cache().window_fill(), twin.cache().window_fill());
  // Replay equivalence: both engines keep answering identically.
  const std::vector<Graph> after = MakeQueries(db, 197, 6, 3);
  for (const Graph& q : after) {
    EXPECT_EQ(engine.Process(q), twin.Process(q));
  }
}

TEST(LifecycleConcurrentTest, BudgetedConcurrentBatchCompletes) {
  const GraphDatabase db = MakeDb(199);
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  method->Build(db);
  ConcurrentQueryEngine engine(db, method.get(), ConcurrentOptions());

  const std::vector<Graph> queries = MakeQueries(db, 211, 24);
  QueryRequest request;
  request.budget.deadline_micros = 10'000'000;
  const std::vector<QueryResult> results =
      engine.ProcessConcurrent(queries, /*streams=*/3, request);
  ASSERT_EQ(results.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(results[i].outcome.kind, QueryOutcomeKind::kCompleted);
    EXPECT_EQ(results[i].answer, BruteForceSubgraphAnswer(db.graphs, queries[i]))
        << "query " << i;
  }
}

}  // namespace
}  // namespace igq
