#include "igq/engine.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>
#include <utility>

#include "common/timer.h"
#include "features/canonical.h"
#include "igq/pruning.h"

#if defined(__SANITIZE_THREAD__)
#define IGQ_TSAN_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define IGQ_TSAN_ACTIVE 1
#endif
#endif

namespace igq {
namespace {

// The engine's options: validated, with one cache shard unless sharded.
IgqOptions EngineOptions(const IgqOptions& options, bool sharded) {
  IgqOptions validated = ValidatedIgqOptions(options);
  if (!sharded) validated.cache_shards = 1;
  return validated;
}

// One §5.1 prune credit, buffered until the query commits; the hit keeps
// its entry alive until then.
struct PendingCredit {
  ShardedQueryCache::Hit hit;
  uint64_t removed;
  LogValue cost;
};

// Deadline-bounded shared acquisition of the writer gate. libstdc++ lowers
// try_lock_until with a steady_clock deadline to pthread_rwlock_clockrdlock,
// which ThreadSanitizer (through at least GCC 12's libtsan) does not
// intercept — a successful acquisition is then invisible to TSan and every
// read behind the gate is reported as a false race against ApplyMutation's
// exclusive hold. Under TSan only, poll the intercepted try-lock path
// instead; production builds keep the blocking timed wait.
bool LockSharedUntil(std::shared_lock<std::shared_timed_mutex>& gate,
                     std::chrono::steady_clock::time_point deadline) {
#ifdef IGQ_TSAN_ACTIVE
  while (!gate.try_lock()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
#else
  return gate.try_lock_until(deadline);
#endif
}

// While admission is on, a request without a deadline gets this one. It
// makes a budget-less request limited, which is what sends it through
// admission at all, and it bounds how long an admitted query holds its cost
// (and a queued one its thread).
constexpr int64_t kAdmissionDeadlineMicros = 30'000'000;

// Takes the writer gate's shared side for a query. Without a deadline the
// wait is plain — cancellation is then noticed right after acquisition
// (mutations are short; the latency is bounded by one mutation). With one,
// a query that cannot get past an in-flight mutation in time latches
// kDeadline at kGateWait instead of blocking unboundedly. Returns false
// when the query has stopped.
bool AcquireGate(std::shared_lock<std::shared_timed_mutex>& gate,
                 serving::QueryControl& control) {
  control.set_stage(serving::QueryStage::kGateWait);
  if (!control.has_deadline()) {
    gate.lock();
  } else if (!LockSharedUntil(gate, control.deadline())) {
    control.CheckNow();  // latches kDeadline (or kCancelled) at kGateWait
    return false;
  }
  return !control.CheckNow();
}

}  // namespace

QueryEngine::QueryEngine(const GraphDatabase& db, Method* method,
                         const IgqOptions& options)
    : QueryEngine(db, method, options, /*sharded=*/false) {}

QueryEngine::QueryEngine(const GraphDatabase& db, Method* method,
                         const IgqOptions& options, bool sharded)
    : db_(&db),
      method_(method),
      options_(EngineOptions(options, sharded)),
      filter_first_(!sharded),
      cache_(std::make_unique<ShardedQueryCache>(options_, db.graphs.size())),
      pool_(options_.verify_threads),
      admission_(options_.serving.admission_watermark,
                 options_.serving.admission_max_waiters) {}

QueryEngine::~QueryEngine() = default;

std::vector<GraphId> QueryEngine::RunVerification(
    const std::vector<GraphId>& candidates, const PreparedQuery& prepared,
    serving::QueryControl* control) {
  auto verify = [this, &prepared](GraphId id) {
    return method_->Verify(prepared, id);
  };
  // Borrow the shared pool only when it has workers, is free, AND the
  // candidate set is big enough for it to split (its own inline
  // threshold); a busy pool means another stream is verifying — running
  // inline then is the point of stream-level parallelism, never a stall.
  if (pool_.threads() > 1 && candidates.size() >= 2 * pool_.threads()) {
    std::unique_lock<std::mutex> borrow(pool_mutex_, std::try_to_lock);
    if (borrow.owns_lock()) return pool_.Run(candidates, verify, control);
  }
  return VerifyInline(candidates, verify, control);
}

std::vector<GraphId> QueryEngine::Process(const Graph& query,
                                          QueryStats* stats) {
  // A never-armed control is unlimited and reads no clock.
  serving::QueryControl unlimited;
  QueryResult result;
  Execute(query, unlimited, stats != nullptr, &result);
  if (stats != nullptr) *stats = result.stats;
  return std::move(result.answer);
}

QueryResult QueryEngine::ProcessWithBudget(const Graph& query,
                                           const serving::QueryRequest& request,
                                           bool collect_stats) {
  serving::QueryBudget budget = request.budget;
  if (admission_.enabled() && budget.deadline_micros <= 0) {
    budget.deadline_micros = kAdmissionDeadlineMicros;
  }
  serving::QueryControl control;
  control.Arm(budget, request.cancel != nullptr ? request.cancel->flag()
                                                : nullptr);
  QueryResult result;
  Execute(query, control, collect_stats, &result);
  result.outcome.elapsed_micros = control.ElapsedMicros();
  outcomes_.Record(result.outcome);
  return result;
}

void QueryEngine::Execute(const Graph& query, serving::QueryControl& control,
                          bool collect_stats, QueryResult* result) {
  // Without collect_stats every stat write below is skipped and every
  // ScopedTimer gets a null sink, which skips its clock reads entirely.
  QueryStats* const stats = collect_stats ? &result->stats : nullptr;
  int64_t* const filter_sink =
      stats != nullptr ? &stats->filter_micros : nullptr;
  int64_t* const probe_sink = stats != nullptr ? &stats->probe_micros : nullptr;
  int64_t* const verify_sink =
      stats != nullptr ? &stats->verify_micros : nullptr;
  ScopedTimer total_timer(stats != nullptr ? &stats->total_micros : nullptr);

  // Only a limited control reaches the searches and admission. An
  // unlimited query's searches never poll it, and its stage checkpoints
  // below never fire.
  serving::QueryControl* const limit = control.limited() ? &control : nullptr;

  // A stopped query has committed nothing to the cache, so it leaves the
  // cache bit-identical to one that never saw it. A stop during or after
  // the prune stage degrades to a cache-composed partial answer.
  auto stop = [&](bool partial, std::vector<GraphId> partial_answer) {
    result->outcome = serving::MakeStoppedOutcome(control, partial);
    result->answer =
        partial ? std::move(partial_answer) : std::vector<GraphId>{};
    if (stats != nullptr) stats->answer_size = result->answer.size();
  };

  // Stage: the mutation gate's shared side, held for the query's whole
  // lifetime so the database, method index, and cache never shift
  // underneath it. Queries never block each other here — only an
  // in-flight ApplyMutation does.
  std::shared_lock<std::shared_timed_mutex> mutation_gate(mutation_mutex_,
                                                          std::defer_lock);
  if (!AcquireGate(mutation_gate, control)) return stop(false, {});
  // This thread runs the probe searches and its share of verification;
  // VerifyPool installs the control on its borrowed workers itself.
  ScopedSearchControl search_guard(MatchContext::ThreadLocal(), limit);

  // Stage 1 (Fig. 6): host-method filtering — before the exact-hit lookup
  // in the filter-first configuration, else after a lookup miss. Returns
  // false when the query stopped. `filtered_epoch` is the database state
  // the candidates belong to. Like the probe it runs on this stream's
  // thread: a serving thread that spawned helpers per query would
  // oversubscribe the machine under load.
  std::unique_ptr<PreparedQuery> prepared;
  std::vector<GraphId> candidates;
  uint64_t filtered_epoch = 0;
  auto filter = [&] {
    prepared = method_->Prepare(query);
    prepared->set_control(limit);
    control.set_stage(serving::QueryStage::kFilter);
    {
      ScopedTimer filter_timer(filter_sink);
      candidates = method_->Filter(*prepared);
    }
    filtered_epoch = db_->mutation_epoch;
    if (control.CheckNow()) return false;
    if (stats != nullptr) stats->candidates_initial = candidates.size();
    return true;
  };
  if (filter_first_ && !filter()) return stop(false, {});

  // Stage: the exact-hit fast path (§4.3 case 1). An isomorphic cached
  // query — flushed or still in a window — is found by one canonicalization
  // plus one hash lookup, so a hit runs no isomorphism test, and
  // TryExactHit commits it (clock tick, then credit) at once. The hit is
  // credited (§5.1 R and C) with the verification it saved: the filtered
  // candidates when the filter has run, else the cached answer.
  const size_t query_nodes = query.NumVertices();
  const QueryDirection direction = method_->Direction();
  std::string canonical;
  auto exact_hit = [&] {
    auto credit_of = [&](std::span<const GraphId> answer) {
      const std::span<const GraphId> saved =
          prepared != nullptr ? std::span<const GraphId>(candidates) : answer;
      return ShardedQueryCache::Credit{
          saved.size(),
          SumIsomorphismCosts(*db_, direction, query_nodes, saved)};
    };
    if (!cache_->TryExactHit(canonical, credit_of, &result->answer)) {
      return false;
    }
    if (stats != nullptr) {
      stats->shortcut = ShortcutKind::kExactHit;
      stats->answer_size = result->answer.size();
    }
    return true;
  };
  if (options_.enabled) {
    control.set_stage(serving::QueryStage::kFastPath);
    ScopedTimer probe_timer(probe_sink);
    canonical = GraphCanonicalCode(query);
    if (exact_hit()) return;
  }

  // Stage: admission, for limited fast-path misses only — exact hits are
  // always admitted, so cache hits stay cheap under overload (the shed
  // watermark protects the expensive miss pipeline, not the O(1) lookup).
  // The gate is DROPPED while queued: a query parked in the admission
  // queue must not block mutations for up to its whole deadline.
  serving::AdmissionTicket ticket;
  if (limit != nullptr && admission_.enabled()) {
    mutation_gate.unlock();
    control.set_stage(serving::QueryStage::kAdmission);
    // Cost: query size in vertices + edges, a cheap proxy for the expected
    // filter/verify work.
    const uint64_t cost =
        static_cast<uint64_t>(query.NumVertices()) + query.NumEdges();
    switch (admission_.Admit(cost, control)) {
      case serving::AdmissionController::Result::kShed:
        result->outcome.kind = serving::QueryOutcomeKind::kShed;
        result->outcome.stage = serving::QueryStage::kAdmission;
        return;
      case serving::AdmissionController::Result::kStopped:
        return stop(false, {});
      case serving::AdmissionController::Result::kAdmitted:
        break;
    }
    ticket = serving::AdmissionTicket(&admission_, cost);
    if (!AcquireGate(mutation_gate, control)) return stop(false, {});
    // A mutation applied while the gate was down leaves candidates
    // filtered before the queue stale: filter again below.
    if (filtered_epoch != db_->mutation_epoch) prepared.reset();
  }

  // Stage: singleflight. Concurrent streams missing on the same canonical
  // key coalesce onto one in-flight record: the first to register (the
  // leader) runs the pipeline, the rest park on the record — each only
  // until its own query stops — and share the published answer. A parked
  // stream whose leader unwound without publishing re-checks its own
  // budget, then runs the pipeline itself, unregistered — correctness over
  // coalescing. A lone stream always leads.
  std::shared_ptr<InFlightQuery> inflight;
  bool leader = false;
  if (options_.enabled) {
    control.set_stage(serving::QueryStage::kSingleflightWait);
    {
      std::lock_guard<std::mutex> lock(inflight_mutex_);
      auto [it, inserted] = inflight_.try_emplace(canonical);
      if (inserted) it->second = std::make_shared<InFlightQuery>();
      leader = inserted;
      inflight = it->second;
    }
    if (!leader) {
      std::unique_lock<std::mutex> wait_lock(inflight->mutex);
      control.Wait(wait_lock, inflight->cv, [&] { return inflight->done; });
      if (inflight->done && !inflight->failed) {
        result->answer = inflight->answer;
        wait_lock.unlock();
        // A coalesced query completes here: tick its clock.
        cache_->RecordQueryProcessed();
        coalesced_hits_.fetch_add(1, std::memory_order_relaxed);
        if (stats != nullptr) {
          stats->shortcut = ShortcutKind::kCoalescedHit;
          stats->answer_size = result->answer.size();
        }
        return;
      }
      wait_lock.unlock();
      if (control.CheckNow()) return stop(false, {});
    }
  }

  // Leader-side publish guard: on every exit — completed, stopped, or
  // unwinding — wake the parked followers (with the answer, or failed),
  // then unregister the key. Unregistration comes last and AFTER Insert has
  // registered the key in the cache's canonical map, so a stream arriving
  // in any interleaving either coalesces, or hits the key — at its fast
  // path, or at the re-check below when it registers only after this
  // leader unregistered; it never re-runs a completed pipeline. Partial
  // answers are leader-private (a follower coalescing one would mistake a
  // subset for the full answer), so a stopped leader publishes nothing.
  struct PublishGuard {
    QueryEngine* engine;
    const std::string* key;  // null: not a leader, guard is a no-op
    InFlightQuery* record;
    bool published = false;
    std::vector<GraphId> answer{};

    void Publish(const std::vector<GraphId>& result) {
      if (key == nullptr) return;
      answer = result;
      published = true;
    }
    ~PublishGuard() {
      if (key == nullptr) return;
      {
        std::lock_guard<std::mutex> lock(record->mutex);
        record->failed = !published;
        if (published) record->answer = std::move(answer);
        record->done = true;
      }
      record->cv.notify_all();
      std::lock_guard<std::mutex> lock(engine->inflight_mutex_);
      engine->inflight_.erase(*key);
    }
  };
  PublishGuard publish{this, leader ? &canonical : nullptr, inflight.get()};

  // A leader of this key may have inserted and unregistered between this
  // stream's fast-path miss and its registration: look the key up once
  // more before running the pipeline a second time.
  if (leader && exact_hit()) {
    publish.Publish(result->answer);
    return;
  }

  pipeline_executions_.fetch_add(1, std::memory_order_relaxed);
  if (prepared == nullptr && !filter()) return stop(false, {});

  // Stage 2 (Fig. 6): probe + prune. The probe session holds shared locks
  // on every shard while prune reads the entries in place, and is dropped
  // right after, so no shard lock is held through verification, the long
  // stage. The §5.1 credits are buffered, each holding its entry, and commit
  // after verification, so a stop anywhere leaves no trace. With the cache
  // disabled there is no session: every candidate goes on to verification
  // and nothing commits.
  std::optional<ShardedQueryCache::ProbeSession> session;
  std::vector<PendingCredit> pending_credits;
  std::span<const ShardedQueryCache::Hit> guarantee_hits, intersect_hits;
  std::vector<const CachedQuery*> guarantee, intersect;
  PathFeatureCounts features;  // extracted for the probe, reused by Insert
  if (options_.enabled) {
    control.set_stage(serving::QueryStage::kProbe);
    {
      ScopedTimer probe_timer(probe_sink);
      features = cache_->ExtractFeatures(query);
      session.emplace(cache_->Probe(query, features));
    }
    // A stop during the probe makes its results garbage (an interrupted
    // containment search aliases to a hit/miss) — abort without facts.
    if (control.CheckNow()) return stop(false, {});
    if (stats != nullptr) {
      stats->probe_iso_tests = session->probe_iso_tests();
      stats->isub_hits = session->supergraph_hits().size();
      stats->isuper_hits = session->subgraph_hits().size();
    }

    // The §4.4 role inversion. For subgraph queries, cached *supergraphs*
    // of g yield guaranteed answers (formulas (3)/(4)) and cached
    // *subgraphs* intersect the candidate set (formula (5)). For supergraph
    // queries the roles swap: cached subgraphs G ⊆ g guarantee
    // (Gi ⊆ G ⊆ g), cached supergraphs g ⊆ G intersect (Gi ⊆ g implies
    // Gi ⊆ G). The §4.3 exact match needs no case here: the key lookups
    // above never miss a cached isomorph, so one reaches the probe only in
    // a budgeted race (followers of a failed leader run unregistered). It
    // is then a hit on both sides, and prune returns its answer with zero
    // verification tests.
    const bool subgraph_query = direction == QueryDirection::kSubgraph;
    guarantee_hits =
        subgraph_query ? session->supergraph_hits() : session->subgraph_hits();
    intersect_hits =
        subgraph_query ? session->subgraph_hits() : session->supergraph_hits();
    guarantee.reserve(guarantee_hits.size());
    for (const ShardedQueryCache::Hit& hit : guarantee_hits) {
      guarantee.push_back(hit.entry.get());
    }
    intersect.reserve(intersect_hits.size());
    for (const ShardedQueryCache::Hit& hit : intersect_hits) {
      intersect.push_back(hit.entry.get());
    }
  }
  // This thread's prune scratch; the outcome inside stays valid through
  // verification and answer assembly (each stream thread has its own).
  PruneScratch& prune_scratch = PruneScratch::ThreadLocal();
  {
    ScopedTimer prune_timer(probe_sink);
    PruneCandidates(
        candidates, guarantee, intersect,
        [&](PruneSide side, size_t index, std::span<const GraphId> removed) {
          // Costs are computed here: the removed span is only scratch-valid
          // inside the callback.
          pending_credits.push_back(
              {side == PruneSide::kGuarantee ? guarantee_hits[index]
                                             : intersect_hits[index],
               removed.size(),
               SumIsomorphismCosts(*db_, direction, query_nodes, removed)});
        },
        prune_scratch, limit);
  }
  const PruneOutcome& pruned = prune_scratch.outcome;
  if (stats != nullptr) {
    stats->candidates_final = pruned.remaining.size();
    if (pruned.empty_answer_shortcut) {
      stats->shortcut = ShortcutKind::kEmptyAnswerPruning;
    }
  }
  session.reset();  // shard locks released before verification
  // A stop during prune: the entries consulted so far yielded true facts,
  // so the guaranteed set is a valid partial answer (§4.3 composition).
  if (control.stopped()) {
    std::vector<GraphId> partial;
    AssembleAnswer(pruned, {}, prune_scratch, &partial);
    return stop(true, std::move(partial));
  }

  // Stages 3-5 (Fig. 6): verification, then formula (4): Answer(g) =
  // verified ∪ (pruned guaranteed answers).
  control.set_stage(serving::QueryStage::kVerify);
  std::vector<GraphId> verified;
  {
    ScopedTimer verify_timer(verify_sink);
    verified = RunVerification(pruned.remaining, *prepared, limit);
  }
  if (stats != nullptr) stats->iso_tests = pruned.remaining.size();
  AssembleAnswer(pruned, verified, prune_scratch, &result->answer);
  if (stats != nullptr) stats->answer_size = result->answer.size();
  // Verified ids are the trusted subset (RunVerification contract), so
  // guaranteed ∪ verified is still a true partial answer. Never cached.
  if (control.stopped()) return stop(true, std::move(result->answer));

  // Stages 6-8 (Fig. 6): the one commit — clock tick, the credits in
  // consultation order, insertion. Insert (which registers the canonical
  // key in the cache) runs strictly before the publish guard unregisters
  // the in-flight record — see PublishGuard. An insertion that fills its
  // shard's window runs the flush here, on this stream's thread and inside
  // its query's time.
  if (!options_.enabled) return;
  cache_->RecordQueryProcessed();
  for (const PendingCredit& credit : pending_credits) {
    cache_->CreditHit(credit.hit, credit.removed, credit.cost);
  }
  cache_->Insert(query, result->answer, canonical, features);
  publish.Publish(result->answer);
}

std::vector<QueryResult> QueryEngine::ProcessConcurrent(
    std::span<const Graph> queries, size_t streams,
    const serving::QueryRequest& request, bool collect_stats) {
  std::vector<QueryResult> results(queries.size());
  if (queries.empty()) return results;
  streams = std::clamp<size_t>(streams, 1, queries.size());

  // Dynamic claiming: streams pull the next unprocessed query, so a stream
  // stuck on an expensive query does not strand its share of the batch.
  std::atomic<size_t> cursor{0};
  auto stream_loop = [&] {
    for (;;) {
      const size_t index = cursor.fetch_add(1, std::memory_order_relaxed);
      if (index >= queries.size()) break;
      results[index] = ProcessWithBudget(queries[index], request, collect_stats);
    }
  };
  std::vector<std::thread> workers;
  workers.reserve(streams - 1);
  for (size_t t = 1; t < streams; ++t) workers.emplace_back(stream_loop);
  stream_loop();  // the caller is stream 0
  for (std::thread& worker : workers) worker.join();
  return results;
}

}  // namespace igq
