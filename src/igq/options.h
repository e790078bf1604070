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

  /// Engine-wide overload policy (serving/admission.h). A query's own
  /// limits come only from its request (serving::QueryRequest).
  struct ServingOptions {
    /// Admission watermark: total in-flight query cost (vertices + edges
    /// of each admitted query) beyond which new non-fast-path queries queue
    /// and, past the queue bound, are shed. 0 = admission control off.
    /// While it is on, a request without a deadline gets a 30-second one
    /// (QueryEngine::ProcessWithBudget), so it, too, passes admission.
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
  // Admission with a zero-length queue would shed every query that ever
  // finds the engine busy; keep at least one waiter slot.
  if (options.serving.admission_watermark > 0 &&
      options.serving.admission_max_waiters == 0) {
    options.serving.admission_max_waiters = 1;
  }
  return options;
}

}  // namespace igq

#endif  // IGQ_IGQ_OPTIONS_H_
