// The iGQ query engine (§4.2, §4.4, §6.3): wraps a host Method with the
// query cache, prunes its candidate set using formulas (3)-(5), applies the
// §4.3 shortcut optimizations, runs the verification stage on a persistent
// worker pool, assembles the final answer, and maintains the cache.
//
// One engine serves both query directions. The method's Direction() decides
// which cache probe sets act as guaranteed-answer sources and which as
// intersection pruners — the §4.4 union/intersection role inversion is an
// internal detail, not a separate class.
#ifndef IGQ_IGQ_ENGINE_H_
#define IGQ_IGQ_ENGINE_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "igq/mutation.h"
#include "igq/options.h"
#include "igq/sharded_cache.h"
#include "igq/verify_pool.h"
#include "methods/method.h"
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
  /// Concurrent engine only: this stream missed on a canonical key another
  /// stream was already computing, parked on the in-flight record, and
  /// returned the leader's published answer (singleflight coalescing).
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

/// Knobs for ProcessBatch.
struct BatchOptions {
  /// Fill BatchResult::stats for every query (on by default). When false
  /// the engine skips stats gathering entirely — no per-stage clock reads
  /// and no QueryStats writes anywhere on the query path, not merely a
  /// discarded copy — so throughput-oriented batch serving pays nothing
  /// for the measurement plumbing; every BatchResult::stats stays
  /// value-initialized. Answers and cache maintenance are unaffected.
  bool collect_stats = true;

  /// Per-query budget applied to every query of the batch (serving/budget.h):
  /// each query runs as a ProcessWithBudget request, so zero fields fall
  /// back to the engine's IgqOptions::ServingOptions defaults. With those
  /// at their zero defaults, a default-constructed budget is unlimited and
  /// the batch's cache trajectory is bit-identical to Process per query.
  serving::QueryBudget budget;

  /// Optional external cancellation flag shared by the whole batch; may be
  /// flipped from any thread. Null = not cancellable. Not owned.
  const serving::CancelSource* cancel = nullptr;
};

/// Result of one query run as a request (ProcessWithBudget, and each query
/// of a batch): `answer` is the full answer (kCompleted), a cache-composed
/// partial answer flagged by the outcome (kPartial — a true subset of the
/// full answer), or empty for the rejection outcomes.
struct QueryResult {
  std::vector<GraphId> answer;
  serving::QueryOutcome outcome;
  QueryStats stats;
};

/// Per-query outcome of a batch run (always kCompleted for an unlimited
/// query).
using BatchResult = QueryResult;

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

/// iGQ on top of any host Method, subgraph or supergraph.
///
/// Thread-safety: an engine is a single logical query stream. Process,
/// ProcessBatch, and the snapshot calls must not run concurrently with
/// each other on the same engine — parallelism lives *inside* a query
/// (the verification pool, which requires Method::Verify to be
/// thread-safe). To serve many concurrent streams over one *shared*
/// cache, use ConcurrentQueryEngine (concurrent_engine.h); giving each
/// stream its own QueryEngine also works but keeps the caches private, so
/// streams never share hits. See docs/CONCURRENCY.md.
class QueryEngine {
 public:
  /// `db` and `method` must outlive the engine; `method` must be
  /// Build()-ed on `db` — or restored via LoadSnapshot() — before the
  /// first query. `options` is validated (see ValidatedIgqOptions) and
  /// cache_shards set to 1 — the engine runs the cache as one shard; the
  /// resulting values are visible through options().
  QueryEngine(const GraphDatabase& db, Method* method,
              const IgqOptions& options);
  ~QueryEngine();

  /// Executes one query end-to-end as an unlimited request and returns the
  /// ids of all dataset graphs related to `query` in the method's direction
  /// (sorted). Fills `stats` if non-null; a null `stats` skips stats
  /// collection entirely (no clock reads, no counter writes), not just the
  /// copy-out.
  std::vector<GraphId> Process(const Graph& query, QueryStats* stats = nullptr);

  /// Budgeted execution (serving/budget.h): runs the engine's one pipeline
  /// under `request`'s deadline/caps/cancellation and returns the typed
  /// outcome. Budget fields left at zero fall back to the engine's
  /// IgqOptions::ServingOptions defaults; a request left unlimited behaves
  /// exactly like Process (bit-identical cache trajectory) and reports
  /// kCompleted. Every completed query commits once — query-clock tick,
  /// §5.1 credits in consultation order, insertion — and a query stopped
  /// mid-pipeline commits NOTHING, so the cache state stays bit-identical
  /// to an engine that never saw the query; a stop during or after the
  /// prune stage degrades to a cache-composed partial answer (§4.3
  /// guaranteed set ∪ verified-so-far, flagged kPartial, never cached) when
  /// ServingOptions::degrade_to_partial is on. `collect_stats` fills
  /// QueryResult::stats (same contract as Process's null-stats mode when
  /// false).
  QueryResult ProcessWithBudget(const Graph& query,
                                const serving::QueryRequest& request,
                                bool collect_stats = false);

  /// Lifecycle outcome counters since construction (snapshot-independent:
  /// never serialized, a restored engine starts fresh).
  serving::OutcomeCounters serving_counters() const {
    return outcomes_.Snapshot();
  }

  /// Executes the queries in order against the same cache, each as a
  /// ProcessWithBudget request carrying the batch's budget and cancel flag,
  /// reusing the engine's verification pool across the whole batch. An
  /// unlimited batch answers identically to calling Process() per query on
  /// a same-state engine. Not reentrant: one batch (or Process call) at a
  /// time per engine.
  std::vector<BatchResult> ProcessBatch(std::span<const Graph> queries,
                                        const BatchOptions& batch = {});

  /// Writes a warm-start snapshot (docs/FORMATS.md): the full cache state
  /// and, when the method supports persistence (Method::SaveIndex), its
  /// index. Returns false on stream failure, filling `error` if non-null.
  /// Not thread-safe against concurrent Process/ProcessBatch calls.
  bool SaveSnapshot(std::ostream& out, std::string* error = nullptr) const;

  /// Restores a snapshot produced by SaveSnapshot() — or by a
  /// ConcurrentQueryEngine running one cache shard, or an older build's
  /// sequential engine (docs/FORMATS.md). The engine must use the same
  /// IgqOptions and method configuration as the producer — cache
  /// geometry/policy and index configuration mismatches are rejected;
  /// after a successful load it answers a query stream identically (same
  /// answers, hit/miss sequence, and replacement victims) to the
  /// producing engine.
  /// When the snapshot carries a method index, this substitutes for
  /// Method::Build() — see `info->method_index_restored`. Corrupt,
  /// truncated, version-mismatched, or wrong-dataset snapshots are
  /// rejected with `error` set and the engine — cache and method alike —
  /// left exactly as it was.
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
  /// database, passes it back in explicitly. Not thread-safe against
  /// concurrent Process/ProcessBatch (single-stream contract; the
  /// concurrent variant lives on ConcurrentQueryEngine).
  MutationResult ApplyMutation(GraphDatabase& db,
                               const GraphMutation& mutation);

  /// Attaches a write-ahead log (durability/wal.h): from now on every
  /// ApplyMutation appends its record — and makes it durable per the
  /// writer's sync policy — BEFORE touching the database, and refuses the
  /// mutation (MutationResult::wal_failed) when the append fails. Pass
  /// nullptr to detach. The writer must outlive the attachment and must
  /// already be Open()-ed at the database's current epoch; the engine does
  /// not own it. Follows the single-stream contract like ApplyMutation.
  void AttachWal(durability::WalWriter* wal) { wal_ = wal; }
  durability::WalWriter* wal() const { return wal_; }

  QueryDirection direction() const { return method_->Direction(); }
  const ShardedQueryCache& cache() const { return *cache_; }
  ShardedQueryCache& mutable_cache() { return *cache_; }
  const IgqOptions& options() const { return options_; }

 private:
  /// The query pipeline behind every entry point: filter, cache lookup,
  /// prune, verify, commit, with a stage checkpoint after each stage and
  /// the degradation ladder on a stop. `control` may be unlimited (never
  /// armed, as for Process, or armed from an unlimited request), in which
  /// case no checkpoint fires. Fills `result`'s answer, outcome (except
  /// elapsed time), and — with `collect_stats` — stats.
  void Execute(const Graph& query, serving::QueryControl& control,
               bool collect_stats, QueryResult* result);

  const GraphDatabase* db_;
  Method* method_;
  IgqOptions options_;
  std::unique_ptr<ShardedQueryCache> cache_;
  VerifyPool pool_;  // no workers when verify_threads == 1: runs inline
  durability::WalWriter* wal_ = nullptr;  // not owned; see AttachWal
  serving::OutcomeAccumulator outcomes_;
};

}  // namespace igq

#endif  // IGQ_IGQ_ENGINE_H_
