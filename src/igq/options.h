// Configuration of the iGQ framework (cache geometry per §5.2, verification
// parallelism per §6.3).
#ifndef IGQ_IGQ_OPTIONS_H_
#define IGQ_IGQ_OPTIONS_H_

#include <cstddef>
#include <cstdint>

namespace igq {

/// Which metric the cache evicts by. kUtility is the paper's §5.1 policy;
/// the others exist for the ablation benchmark (bench_ablation_replacement)
/// that justifies the design choice.
enum class ReplacementPolicy {
  kUtility,     // U(g) = C(g)/M(g): cost-aware (the paper's policy)
  kPopularity,  // H(g)/M(g): hit rate only, ignores test costs
  kLru,         // least-recently-hit
  kFifo         // insertion order
};

struct IgqOptions {
  /// Master switch: false degrades the engine to the plain host method M
  /// (used as the baseline in every speedup experiment).
  bool enabled = true;

  /// Cache size C: maximum number of cached query graphs (paper default 500).
  size_t cache_capacity = 500;

  /// Query window size W (paper default 100; must be <= cache_capacity —
  /// the engine enforces this at construction, see ValidatedIgqOptions).
  size_t window_size = 100;

  /// Maximum path-feature length (edges) used by Isub/Isuper (paper: 4).
  /// Also the snapshot-compatibility key: QueryEngine::LoadSnapshot
  /// rejects snapshots taken under a different value (docs/FORMATS.md).
  size_t path_max_edges = 4;

  /// Worker threads for the verification stage (Grapes(6) configs use 6).
  size_t verify_threads = 1;

  /// Shard count of the query cache under ConcurrentQueryEngine
  /// (QueryEngine always runs one shard). Cached queries partition by
  /// structural graph hash into this many independently-locked shards;
  /// capacity and window divide evenly across them (each shard gets the
  /// ceiling share, at least 1). More shards mean
  /// less writer contention and smaller per-flush rebuilds; probes always
  /// consult every shard, so past ~2× the stream count the returns flatten.
  /// Clamped to [1, cache_capacity] — see docs/CONCURRENCY.md.
  size_t cache_shards = 8;

  /// Eviction policy (§5.1); kUtility unless running the ablation.
  ReplacementPolicy replacement_policy = ReplacementPolicy::kUtility;

  /// Query-lifecycle defaults (serving/budget.h, serving/admission.h). All
  /// zeros = budgets and admission fully off: a query is then unlimited
  /// unless its own request carries a budget or cancel flag.
  struct ServingOptions {
    /// Default wall-clock deadline applied to budgeted queries that do not
    /// carry their own (ProcessWithBudget with a zero-deadline request).
    /// 0 = no default deadline.
    int64_t default_deadline_micros = 0;

    /// Default recursion-state cap for budgeted queries. 0 = unlimited.
    /// Nonzero values below kBudgetCheckInterval (1024) are rounded up to
    /// it — the amortized checkpoint cannot enforce a finer grain.
    uint64_t default_max_states = 0;

    /// Admission watermark: total in-flight query cost (vertices + edges
    /// of each admitted query) beyond which new non-fast-path queries queue
    /// and, past the queue bound, are shed. 0 = admission control off.
    uint64_t admission_watermark = 0;

    /// Bound on the admission queue; queries arriving beyond it are shed
    /// immediately with QueryOutcomeKind::kShed.
    size_t admission_max_waiters = 64;
  };
  ServingOptions serving;
};

/// Clamps `options` to the documented invariants: cache_capacity >= 1,
/// 1 <= window_size <= cache_capacity, verify_threads >= 1,
/// 1 <= cache_shards <= cache_capacity. The engines apply this at
/// construction so they never run with an invalid geometry.
inline IgqOptions ValidatedIgqOptions(IgqOptions options) {
  if (options.cache_capacity == 0) options.cache_capacity = 1;
  if (options.window_size == 0) options.window_size = 1;
  if (options.window_size > options.cache_capacity) {
    options.window_size = options.cache_capacity;
  }
  if (options.verify_threads == 0) options.verify_threads = 1;
  if (options.cache_shards == 0) options.cache_shards = 1;
  if (options.cache_shards > options.cache_capacity) {
    options.cache_shards = options.cache_capacity;
  }
  // Serving knobs. Negative deadlines are nonsense, not "expired": clamp to
  // "no deadline" so a sign bug cannot silently reject every query.
  if (options.serving.default_deadline_micros < 0) {
    options.serving.default_deadline_micros = 0;
  }
  // The amortized checkpoint polls every 1024 states (kBudgetCheckInterval
  // in isomorphism/match_core.h); a finer cap cannot be enforced.
  if (options.serving.default_max_states != 0 &&
      options.serving.default_max_states < 1024) {
    options.serving.default_max_states = 1024;
  }
  if (options.serving.admission_watermark > 0) {
    // Admission with a zero-length queue would shed every query that ever
    // finds the engine busy; keep at least one waiter slot.
    if (options.serving.admission_max_waiters == 0) {
      options.serving.admission_max_waiters = 1;
    }
    // Admission with no deadline at all is the nonsensical combination the
    // subsystem exists to prevent: an admitted query could hold its slot
    // (and queued queries their threads) unboundedly. Back-stop with a
    // 30-second default deadline.
    if (options.serving.default_deadline_micros == 0) {
      options.serving.default_deadline_micros = 30'000'000;
    }
  }
  return options;
}

}  // namespace igq

#endif  // IGQ_IGQ_OPTIONS_H_
