// ConcurrentQueryEngine — iGQ serving for many concurrent client streams
// over one *shared* cache. The sequential QueryEngine is a single logical
// query stream, so concurrent clients would each need a private engine and
// therefore a private cache; this engine multiplexes any number of streams
// over a ShardedQueryCache (sharded_cache.h), so a query cached by one
// stream prunes every stream's candidates — the sharing that makes the iGQ
// cache pay off under real traffic (§4.2, §7).
//
// Threading model (docs/CONCURRENCY.md is the authoritative write-up):
//
//   * Process() is thread-safe; call it from as many threads as you like.
//     ProcessConcurrent() is the convenience driver that spawns the stream
//     threads for you.
//   * Verification runs on one shared VerifyPool. A stream whose pruned
//     candidate set is large enough to split tries to borrow the pool; if
//     another stream holds it, verification simply runs inline — streams
//     never block each other on the pool.
//   * Exact hits take a canonical-key fast path (one canonicalization +
//     one hash lookup, no filter, no isomorphism test), and concurrent
//     misses on the same key coalesce: one leader runs the pipeline, the
//     other streams park and share its published answer (singleflight).
//   * Snapshot calls require quiescence (no in-flight queries).
//
// Equivalence: answers are identical to the sequential engine's, query for
// query — pruning only ever uses verified containment facts, so any cache
// content yields exact answers. Hit/miss *sequences* may differ under
// concurrency (they depend on flush interleaving); tests/concurrency_test.cc
// pins the contract.
#ifndef IGQ_IGQ_CONCURRENT_ENGINE_H_
#define IGQ_IGQ_CONCURRENT_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "igq/engine.h"
#include "igq/options.h"
#include "igq/sharded_cache.h"
#include "igq/verify_pool.h"
#include "methods/method.h"
#include "serving/admission.h"
#include "serving/budget.h"

namespace igq {

/// iGQ over any host Method, shared by M concurrent client streams.
class ConcurrentQueryEngine {
 public:
  /// `db` and `method` must outlive the engine; `method` must be
  /// Build()-ed on `db` — or restored via LoadSnapshot() — before the
  /// first query, and its Filter/Verify must be thread-safe for
  /// concurrent queries (true of all registry methods: they only read the
  /// index after Build). `options` is validated (ValidatedIgqOptions).
  ConcurrentQueryEngine(const GraphDatabase& db, Method* method,
                        const IgqOptions& options);
  ~ConcurrentQueryEngine();

  ConcurrentQueryEngine(const ConcurrentQueryEngine&) = delete;
  ConcurrentQueryEngine& operator=(const ConcurrentQueryEngine&) = delete;

  /// Executes one query end-to-end against the shared cache as an unlimited
  /// request (no admission) and returns the sorted ids of all related
  /// dataset graphs. Thread-safe — this is the per-stream entry point. A
  /// null `stats` skips stats collection entirely, as in
  /// QueryEngine::Process.
  std::vector<GraphId> Process(const Graph& query, QueryStats* stats = nullptr);

  /// Budgeted execution under the serving lifecycle (serving/budget.h):
  /// the engine's one pipeline with deadline-aware writer-gate and
  /// singleflight waits, admission control (when
  /// IgqOptions::ServingOptions::admission_watermark is nonzero),
  /// cooperative cancellation through every stage, and the degradation
  /// ladder — full answer, cache-composed partial answer (kPartial, a true
  /// subset, never cached), or a typed rejection. Exact-hit fast-path
  /// lookups bypass admission entirely, so cache hits stay cheap under
  /// overload. A limited query defers its commits to completion, so one
  /// stopped mid-pipeline commits NOTHING to the shared cache; a request
  /// left unlimited behaves exactly like Process and reports kCompleted.
  /// Thread-safe like Process.
  QueryResult ProcessWithBudget(const Graph& query,
                                const serving::QueryRequest& request,
                                bool collect_stats = false);

  /// Lifecycle outcome counters since construction. Snapshot-independent:
  /// never serialized, a restored engine starts its overload history fresh.
  serving::OutcomeCounters serving_counters() const {
    return outcomes_.Snapshot();
  }
  /// Admission-queue counters (all zero while admission is disabled).
  serving::AdmissionController::Stats admission_stats() const {
    return admission_.snapshot();
  }

  /// Multiplexes `queries` over `streams` concurrently executing client
  /// streams (the calling thread participates, so `streams` is the total;
  /// clamped to [1, queries.size()]), each query a ProcessWithBudget
  /// request carrying the batch's budget and cancel flag. Queries are
  /// claimed dynamically, so uneven query costs still balance. Results
  /// arrive in input order; completed answers are identical to processing
  /// the batch on the sequential engine. Reentrant — but nested calls share
  /// the same cache and pool.
  std::vector<BatchResult> ProcessConcurrent(std::span<const Graph> queries,
                                             size_t streams,
                                             const BatchOptions& batch = {});

  /// Writes a warm-start snapshot: the cache state — the same section the
  /// sequential engine writes, so with cache_shards = 1 either engine loads
  /// the other's snapshot — and the method index when the method supports
  /// persistence. Requires quiescence: no concurrent Process calls.
  bool SaveSnapshot(std::ostream& out, std::string* error = nullptr) const;

  /// Restores a snapshot produced by SaveSnapshot() under the same
  /// IgqOptions (including cache_shards) and method configuration; every
  /// failure leaves the engine untouched. Requires quiescence. When the
  /// snapshot carries a method index, this substitutes for Build() — see
  /// `info->method_index_restored`.
  bool LoadSnapshot(std::istream& in, std::string* error = nullptr,
                    SnapshotLoadInfo* info = nullptr);

  /// Applies one dataset mutation while queries keep flowing: safe to call
  /// concurrently with Process from other threads. The engine-level
  /// writer gate (mutation_mutex_: every Process holds it shared for the
  /// query's whole lifetime, ApplyMutation holds it exclusive) is what
  /// makes mutating `db.graphs` — a vector whose growth reallocates —
  /// safe under concurrent readers. Behind the gate: database first, then
  /// the method (incremental hooks, full Build fallback), then the sharded
  /// cache, patched rather than flushed — removed graphs leave the cached
  /// answers that held them, added graphs join the cached answers they
  /// belong to. See QueryEngine::ApplyMutation and docs/CONCURRENCY.md.
  MutationResult ApplyMutation(GraphDatabase& db,
                               const GraphMutation& mutation);

  /// Attaches a write-ahead log (durability/wal.h): every ApplyMutation
  /// then appends its record inside the exclusive mutation_mutex_ section —
  /// the writer gate serializes WAL appends, so record order on disk is
  /// apply order — before touching the database, and refuses the mutation
  /// (MutationResult::wal_failed) when the append fails. Pass nullptr to
  /// detach. Call while quiescent on the mutation side (no concurrent
  /// ApplyMutation); the writer must outlive the attachment and be
  /// Open()-ed at the database's current epoch.
  void AttachWal(durability::WalWriter* wal) { wal_ = wal; }
  durability::WalWriter* wal() const { return wal_; }

  QueryDirection direction() const { return method_->Direction(); }
  const ShardedQueryCache& cache() const { return *cache_; }
  ShardedQueryCache& mutable_cache() { return *cache_; }
  const IgqOptions& options() const { return options_; }

  /// Times the full miss pipeline (Prepare/Filter/probe/verify/Insert) ran,
  /// across all streams. With singleflight, N streams missing concurrently
  /// on the same canonical key add 1 here, not N —
  /// tests/concurrency_test.cc pins exactly-one-execution per unique key.
  uint64_t pipeline_executions() const {
    return pipeline_executions_.load(std::memory_order_relaxed);
  }
  /// Queries answered by parking on another stream's in-flight record
  /// (ShortcutKind::kCoalescedHit).
  uint64_t coalesced_hits() const {
    return coalesced_hits_.load(std::memory_order_relaxed);
  }

  /// Acquires the writer gate exclusively, blocking queries exactly like an
  /// in-flight mutation holding it would. Maintenance/testing hook: the
  /// lifecycle tests use it to pin deadline behavior of queries stuck at
  /// the gate (serving::QueryStage::kGateWait). Do not call from a thread
  /// that is processing queries.
  std::unique_lock<std::shared_timed_mutex> LockWriterGate() {
    return std::unique_lock<std::shared_timed_mutex>(mutation_mutex_);
  }

 private:
  /// Singleflight record for one canonical key being computed. The leader —
  /// the stream that inserted the record — runs the pipeline and publishes
  /// its answer here; followers park on `cv`. `failed` marks a leader that
  /// stopped or unwound without publishing: followers are woken all the
  /// same — they never hang on a dead leader — re-check their own budget,
  /// and either stop or run the pipeline themselves, unregistered.
  struct InFlightQuery {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    bool failed = false;
    std::vector<GraphId> answer;
  };

  /// Verification over `candidates`: borrows the shared pool when it has
  /// workers, is free, and the set is big enough to split, else runs
  /// inline. `control` (null for an unlimited query) propagates
  /// cancellation into the workers; on a stopped control the result is the
  /// trusted subset (VerifyPool::Run contract).
  std::vector<GraphId> RunVerification(const std::vector<GraphId>& candidates,
                                       const PreparedQuery& prepared,
                                       serving::QueryControl* control);

  /// The query pipeline behind every entry point: writer gate, exact-hit
  /// fast path, admission, singleflight, filter, probe + prune, verify,
  /// commit, with a stage checkpoint after each stage and the degradation
  /// ladder on a stop. `control` may be unlimited (never armed, as for
  /// Process, or armed from an unlimited request): no checkpoint fires,
  /// admission is skipped, and the commit is applied as the query goes.
  /// Fills `result`'s answer, outcome (except elapsed time), and — with
  /// `collect_stats` — stats.
  void Execute(const Graph& query, serving::QueryControl& control,
               bool collect_stats, QueryResult* result);

  const GraphDatabase* db_;
  Method* method_;
  IgqOptions options_;
  std::unique_ptr<ShardedQueryCache> cache_;
  VerifyPool pool_;        // no workers when verify_threads == 1
  std::mutex pool_mutex_;  // arbitrates pool borrowing
  /// Singleflight table: canonical key -> in-flight record. A key is
  /// present only while its leader runs; the leader erases it after
  /// publishing, and by then the key is already hittable in the cache
  /// (Insert registers it before the leader returns), so late arrivals
  /// take the fast path instead. Guarded by inflight_mutex_ (a leaf lock:
  /// never held while waiting or while holding any cache lock).
  std::unordered_map<std::string, std::shared_ptr<InFlightQuery>> inflight_;
  std::mutex inflight_mutex_;
  std::atomic<uint64_t> pipeline_executions_{0};
  std::atomic<uint64_t> coalesced_hits_{0};
  /// The mutation writer gate: shared by every Process for the query's
  /// whole lifetime, exclusive in ApplyMutation. Queries therefore never
  /// observe a half-applied mutation, and the database/method/cache reads
  /// all over the query path need no per-access synchronization. A *timed*
  /// shared mutex so a query with a deadline can bound its wait
  /// (try_lock_shared_until against the query deadline) and report a typed
  /// kGateWait timeout instead of blocking behind a long mutation.
  std::shared_timed_mutex mutation_mutex_;
  /// Bounded admission queue with load shedding (serving/admission.h);
  /// disabled (watermark 0) unless ServingOptions asks for it.
  serving::AdmissionController admission_;
  serving::OutcomeAccumulator outcomes_;
  /// Not owned; see AttachWal. Only touched under the exclusive side of
  /// mutation_mutex_ (and by AttachWal, which requires mutation quiescence).
  durability::WalWriter* wal_ = nullptr;
};

}  // namespace igq

#endif  // IGQ_IGQ_CONCURRENT_ENGINE_H_
