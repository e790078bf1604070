// The iGQ query engine (§4.2, §4.4, §6.3): wraps a host Method with the
// query cache, prunes its candidate set using formulas (3)-(5), applies the
// §4.3 shortcut optimizations, runs the verification stage on a persistent
// worker pool, assembles the final answer, and maintains the cache.
//
// One engine, one pipeline, for both query directions and any number of
// client streams. The method's Direction() decides which cache probe sets
// act as guaranteed-answer sources and which as intersection pruners — the
// §4.4 union/intersection role inversion is an internal detail, not a
// separate class. Two configurations differ only in two decisions, both
// fixed by the class constructed:
//
//   * QueryEngine runs the cache as one shard and calls the host filter
//     before the exact-hit lookup, so every query — exact hits included —
//     runs Prepare/Filter, and a hit is credited with the filtered
//     candidates it saved verifying.
//   * ConcurrentQueryEngine (concurrent_engine.h) runs
//     IgqOptions::cache_shards shards and calls the filter only after a
//     lookup miss, so a hit costs one canonicalization and one hash lookup
//     and is credited with its cached answer.
#ifndef IGQ_IGQ_ENGINE_H_
#define IGQ_IGQ_ENGINE_H_

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

#include "igq/mutation.h"
#include "igq/options.h"
#include "igq/sharded_cache.h"
#include "igq/verify_pool.h"
#include "methods/method.h"
#include "serving/admission.h"
#include "serving/budget.h"
#include "snapshot/snapshot.h"

namespace igq {

namespace durability {
class WalWriter;
}  // namespace durability

/// How a query was resolved (§4.3 shortcuts).
enum class ShortcutKind {
  kNone,                // full pipeline ran
  kExactHit,            // identical previous query: cached answer returned
  kEmptyAnswerPruning,  // a cached relation proved the answer empty
  /// This stream missed on a canonical key another stream was already
  /// computing, parked on the in-flight record, and returned the leader's
  /// published answer (singleflight coalescing; needs concurrent streams).
  kCoalescedHit
};

/// Per-query measurements, the raw material of every figure in §7.
struct QueryStats {
  int64_t filter_micros = 0;   // host-method filtering stage
  int64_t probe_micros = 0;    // iGQ index probing + candidate pruning
  int64_t verify_micros = 0;   // verification stage
  /// End-to-end. Includes the cache flush when this query's insertion
  /// filled a window: the flush runs on the inserting query's thread.
  int64_t total_micros = 0;

  size_t candidates_initial = 0;  // |CS(g)| from the host method
  size_t candidates_final = 0;    // |CS_igq(g)| actually verified
  size_t iso_tests = 0;           // verification tests against dataset graphs
  size_t probe_iso_tests = 0;     // tests against cached (small) query graphs
  size_t answer_size = 0;
  size_t isub_hits = 0;    // |Isub(g)|
  size_t isuper_hits = 0;  // |Isuper(g)|
  ShortcutKind shortcut = ShortcutKind::kNone;
};

/// Result of one query run as a request (ProcessWithBudget, and each query
/// of a batch): `answer` is the full answer (kCompleted — always, for an
/// unlimited request), a cache-composed partial answer flagged by the
/// outcome (kPartial — a true subset of the full answer), or empty for the
/// rejection outcomes.
struct QueryResult {
  std::vector<GraphId> answer;
  serving::QueryOutcome outcome;
  QueryStats stats;
};

/// What LoadSnapshot actually restored.
struct SnapshotLoadInfo {
  /// True when the snapshot carried a method-index section and the
  /// engine's method accepted it — Build() is then unnecessary.
  bool method_index_restored = false;
  /// Cached queries (Igraphs) restored, excluding pending window entries.
  size_t cached_queries = 0;
  /// Mutation state the snapshot was validated against: the database's
  /// mutation epoch and tombstone count at save time (both 0 for a
  /// snapshot of a never-mutated dataset, which carries no mutation
  /// section).
  uint64_t mutation_epoch = 0;
  size_t tombstones = 0;
  /// Why LoadSnapshot failed, when it did (kNone after a successful load):
  /// corrupt bytes, a format version skew, or a snapshot that belongs to a
  /// different dataset/configuration. Callers branch on this (igq_tool maps
  /// it to exit codes; recovery's ladder reports it).
  snapshot::SnapshotErrorKind error_kind = snapshot::SnapshotErrorKind::kNone;
};

/// iGQ on top of any host Method, subgraph or supergraph, shared by any
/// number of client streams (docs/CONCURRENCY.md is the authoritative
/// write-up of the threading model):
///
///   * Process and ProcessWithBudget are thread-safe; call them from as many
///     threads as you like. ProcessConcurrent spawns the stream threads for
///     you; with one stream it runs the queries in order on the calling
///     thread.
///   * Verification runs on one shared VerifyPool. A stream whose pruned
///     candidate set is large enough to split tries to borrow the pool; if
///     another stream holds it, verification runs inline — streams never
///     block each other on the pool.
///   * Exact repeats take a canonical-key fast path (one canonicalization
///     plus one hash lookup, no isomorphism test), and concurrent misses on
///     the same key coalesce: one leader runs the pipeline, the other
///     streams park and share its published answer (singleflight).
///   * ApplyMutation may run while queries flow: the writer gate serializes
///     it against them. Snapshot calls require quiescence.
///
/// Answers are exact under any interleaving: pruning only ever uses
/// verified containment facts, so any cache content yields the exact
/// answer. Hit/miss sequences, and so per-query stats, depend on the
/// configuration and, with many streams, on flush interleaving;
/// tests/concurrency_test.cc pins the contract.
class QueryEngine {
 public:
  /// The one-shard, filter-first configuration. `db` and `method` must
  /// outlive the engine; `method` must be Build()-ed on `db` — or restored
  /// via LoadSnapshot() — before the first query, and its Filter/Verify
  /// must be thread-safe when queries run concurrently (true of all
  /// registry methods: they only read the index after Build). `options` is
  /// validated (see ValidatedIgqOptions) and cache_shards set to 1; the
  /// resulting values are visible through options().
  QueryEngine(const GraphDatabase& db, Method* method,
              const IgqOptions& options);
  virtual ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Executes one query end-to-end as an unlimited request (no admission)
  /// and returns the ids of all dataset graphs related to `query` in the
  /// method's direction (sorted). Fills `stats` if non-null; a null `stats`
  /// skips stats collection entirely (no clock reads, no counter writes),
  /// not just the copy-out.
  std::vector<GraphId> Process(const Graph& query, QueryStats* stats = nullptr);

  /// Budgeted execution (serving/budget.h): runs the engine's one pipeline
  /// under `request`'s deadline/state cap/cancellation — with a
  /// deadline-aware writer gate, singleflight and admission waits that
  /// notice cancellation (QueryControl::Wait), and admission control when
  /// IgqOptions::ServingOptions::admission_watermark is nonzero — and
  /// returns the typed outcome. The request is the only source of the
  /// query's limits, with one rule: while admission is on, a request
  /// without a deadline gets a 30-second one. A request left unlimited
  /// behaves exactly like Process (bit-identical cache trajectory) and
  /// reports kCompleted. Exact hits bypass admission, so cache hits stay
  /// cheap under overload. Every completed query commits once, after
  /// verification — query-clock tick, §5.1 credits in consultation order,
  /// insertion — so one stopped mid-pipeline commits NOTHING and the cache
  /// stays bit-identical to an engine that never saw the query; a stop
  /// during or after the prune stage degrades to a cache-composed partial
  /// answer (§4.3 guaranteed set ∪ verified-so-far, flagged kPartial, never
  /// cached). `collect_stats` fills QueryResult::stats (same contract as
  /// Process's null-stats mode when false).
  QueryResult ProcessWithBudget(const Graph& query,
                                const serving::QueryRequest& request,
                                bool collect_stats = false);

  /// Lifecycle outcome counters since construction (snapshot-independent:
  /// never serialized, a restored engine starts fresh).
  serving::OutcomeCounters serving_counters() const {
    return outcomes_.Snapshot();
  }
  /// Admission-queue counters (all zero while admission is disabled).
  serving::AdmissionController::Stats admission_stats() const {
    return admission_.snapshot();
  }

  /// Multiplexes `queries` over `streams` concurrently executing client
  /// streams (the calling thread participates, so `streams` is the total;
  /// clamped to [1, queries.size()]), each query run as
  /// ProcessWithBudget(query, request, collect_stats), all reusing the
  /// engine's verification pool. Queries are claimed dynamically, so uneven
  /// query costs still balance; results arrive in input order. With one
  /// stream the queries run in order on the calling thread, and an
  /// unlimited batch then answers identically to calling Process() per
  /// query on a same-state engine. `collect_stats` = false skips stats
  /// gathering entirely (Process's null-stats mode), leaving every
  /// QueryResult::stats value-initialized. Reentrant — nested calls share
  /// the same cache and pool.
  std::vector<QueryResult> ProcessConcurrent(
      std::span<const Graph> queries, size_t streams,
      const serving::QueryRequest& request = {}, bool collect_stats = true);

  /// Writes a warm-start snapshot (docs/FORMATS.md): the full cache state
  /// and, when the method supports persistence (Method::SaveIndex), its
  /// index. Returns false on stream failure, filling `error` if non-null.
  /// Requires quiescence: no concurrent queries or mutations.
  bool SaveSnapshot(std::ostream& out, std::string* error = nullptr) const;

  /// Restores a snapshot produced by SaveSnapshot() of an engine with the
  /// same IgqOptions — cache_shards included, so either class loads the
  /// other's snapshot when both run one shard — and method configuration
  /// (docs/FORMATS.md). Cache geometry/policy and index configuration
  /// mismatches are rejected; after a successful load a single stream is
  /// answered identically (same answers, hit/miss sequence, and replacement
  /// victims) to the producing engine. When the snapshot carries a method
  /// index, this substitutes for Method::Build() — see
  /// `info->method_index_restored`. Corrupt, truncated, wrong-dataset, or
  /// version-mismatched snapshots — every file an older format version
  /// wrote — are rejected with `error` set and the engine — cache and
  /// method alike — left exactly as it was. Requires quiescence.
  bool LoadSnapshot(std::istream& in, std::string* error = nullptr,
                    SnapshotLoadInfo* info = nullptr);

  /// Applies one dataset mutation end-to-end: the database first
  /// (AddGraph/RemoveGraph), then the method — through its incremental
  /// hooks when it has them, with a full Build() fallback otherwise — then
  /// the cache, whose answers are PATCHED in place (an added graph joins
  /// the cached answers it belongs to, a removed graph is dropped from
  /// them) so hit rate and §5.1 metadata survive the mutation; nothing is
  /// flushed. `db` must be the database this engine was constructed over —
  /// the engine holds it const, so the caller, who owns the mutable
  /// database, passes it back in explicitly. Safe to call while queries
  /// run: every query holds the writer gate (mutation_mutex_) shared for
  /// its whole lifetime and this call holds it exclusive, which is what
  /// makes mutating `db.graphs` — a vector whose growth reallocates — safe
  /// under concurrent readers (docs/CONCURRENCY.md).
  MutationResult ApplyMutation(GraphDatabase& db,
                               const GraphMutation& mutation);

  /// Attaches a write-ahead log (durability/wal.h): from now on every
  /// ApplyMutation appends its record — and makes it durable per the
  /// writer's sync policy — inside the writer gate's exclusive section,
  /// BEFORE touching the database, so record order on disk is apply order;
  /// a failed append refuses the mutation (MutationResult::wal_failed).
  /// Pass nullptr to detach. Call while no ApplyMutation runs; the writer
  /// must outlive the attachment and must already be Open()-ed at the
  /// database's current epoch. The engine does not own it.
  void AttachWal(durability::WalWriter* wal) { wal_ = wal; }
  durability::WalWriter* wal() const { return wal_; }

  QueryDirection direction() const { return method_->Direction(); }
  const ShardedQueryCache& cache() const { return *cache_; }
  ShardedQueryCache& mutable_cache() { return *cache_; }
  const IgqOptions& options() const { return options_; }

  /// Times the full miss pipeline (probe, prune, verify, Insert) ran,
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

 protected:
  /// `sharded` selects the configuration ConcurrentQueryEngine runs: the
  /// cache keeps options.cache_shards shards, and the host filter runs only
  /// after an exact-hit lookup misses. Otherwise as the public constructor.
  QueryEngine(const GraphDatabase& db, Method* method,
              const IgqOptions& options, bool sharded);

 private:
  /// Singleflight record for one canonical key being computed. The leader —
  /// the stream that inserted the record — runs the pipeline and publishes
  /// its answer here; followers park on `cv` (through QueryControl::Wait). `failed` marks a leader that
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

  /// The query pipeline behind every entry point: writer gate, host filter
  /// (here when filter_first_), exact-hit fast path, admission,
  /// singleflight, host filter (here otherwise), probe + prune, verify,
  /// commit, with a stage checkpoint after each stage and the degradation
  /// ladder on a stop. `control` may be unlimited (never armed, as for
  /// Process, or armed from an unlimited request): no checkpoint fires and
  /// admission is skipped.
  /// Fills `result`'s answer, outcome (except elapsed time), and — with
  /// `collect_stats` — stats.
  void Execute(const Graph& query, serving::QueryControl& control,
               bool collect_stats, QueryResult* result);

  const GraphDatabase* db_;
  Method* method_;
  IgqOptions options_;
  /// The host filter runs before the exact-hit lookup (QueryEngine), so
  /// every query runs Prepare/Filter and an exact hit is credited with the
  /// filtered candidates; otherwise only a lookup miss filters, and a hit
  /// is credited with its cached answer.
  const bool filter_first_;
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
  /// The mutation writer gate: shared by every query for its whole
  /// lifetime, exclusive in ApplyMutation. Queries therefore never observe
  /// a half-applied mutation, and the database/method/cache reads all over
  /// the query path need no per-access synchronization. A *timed* shared
  /// mutex so a query with a deadline can bound its wait
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

#endif  // IGQ_IGQ_ENGINE_H_
