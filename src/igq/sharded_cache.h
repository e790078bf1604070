// ShardedQueryCache — the iGQ query cache (§4.2, §5) behind both engines:
// Igraphs (cached query graphs + answers), the Isub + Isuper probe index,
// the §5.1 metadata, and the Itemp window, partitioned by structural graph
// hash into N independently-locked shards so probes from many client
// streams proceed in parallel. QueryEngine runs it with one shard;
// ConcurrentQueryEngine with IgqOptions::cache_shards.
//
// Identity: a cached query is its canonical key (GraphCanonicalCode). One
// cache-wide map from key to entry decides both exact hits (TryExactHit)
// and duplicates (Insert drops a query whose key is registered), so an
// isomorph is cached or queued at most once across all shards.
//
// Address: each cached query is one heap object, shared-owned from Insert
// (or Load) until its eviction. The shard's entries and window, the key
// map and every probe Hit point at that object, so a flush moves pointers,
// a §5.1 credit lands on the object wherever it sits, and no reference to
// an entry ever goes stale.
//
// Concurrency design (docs/CONCURRENCY.md has the full model):
//
//   * Every shard guards its entries/window/index with a reader–writer
//     lock. Probes take shared locks on all shards, so any number of
//     streams probe simultaneously; they block only for the microseconds a
//     flush needs to swap freshly built state in.
//   * Metadata credits (§5.1 H/R/C updates) take only a tiny per-shard
//     credit mutex, so probing is never serialized by bookkeeping.
//   * Maintenance (window flush: §5.1 eviction + §5.2 shadow rebuild) is a
//     deferred single-writer path, run on the thread whose Insert filled the
//     window. It stages the survivors' and the window slice's pointers and
//     files their stored features (each entry's ProbeData, built once at
//     Insert or Load; nothing is derived at a flush) into a fresh probe
//     index outside any structure lock, then swaps the new state in and
//     unregisters the victims' keys under a brief exclusive lock. Readers
//     never wait on eviction or index building — only on the swap.
//
// Equivalence: any cache content yields exact answers (pruning only uses
// verified containment facts), so ConcurrentQueryEngine answers match the
// one-shard QueryEngine's query for query. Eviction victims are chosen by
// the §5.1 score over a metadata snapshot taken when the flush begins.
#ifndef IGQ_IGQ_SHARDED_CACHE_H_
#define IGQ_IGQ_SHARDED_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/function_ref.h"
#include "features/feature_set.h"
#include "features/path_enumerator.h"
#include "igq/options.h"
#include "igq/probe_index.h"
#include "igq/query_record.h"
#include "snapshot/snapshot.h"

namespace igq {
namespace snapshot {
class BinaryReader;
class BinaryWriter;
}  // namespace snapshot

/// Structural hash of a graph (labels + sorted adjacency, id order); it
/// places a query's entry in a shard. Equal graphs (Graph::operator==) hash
/// equally, so placement is deterministic. Duplicates are decided by the
/// cache-wide key map, not by placement, so isomorphic but unequal copies
/// may hash to different shards. Placing by canonical key instead was
/// measured: it raised the iso tests per query of perfbench `aids-hot`
/// (docs/CONCURRENCY.md, "Shard and lock design", has the numbers).
uint64_t GraphShardHash(const Graph& graph);

/// Sharded Igraphs + probe index with reader–writer locking and deferred
/// single-writer maintenance. All public members are thread-safe unless
/// noted; Load and the destructor require external quiescence.
class ShardedQueryCache {
 public:
  /// A cached entry and the shard that holds it. The pointer keeps the
  /// entry alive, so a hit stays valid after its session is gone and after
  /// the entry's eviction; read the entry only while the session that
  /// produced the hit lives, and credit it through CreditHit.
  struct Hit {
    size_t shard = 0;
    std::shared_ptr<CachedQuery> entry;
  };

  /// The R/C part of a §5.1 credit: candidates removed and the analytic
  /// cost of the isomorphism tests they would have needed.
  struct Credit {
    uint64_t removed = 0;
    LogValue cost = LogValue::Zero();
  };

  /// Result of probing all shards, holding a shared lock on each until
  /// destroyed. Engines keep the session alive through candidate pruning
  /// (entries are read in place, nothing is copied) and drop it before
  /// verification, the long stage; the hits they credit outlive it. Shared
  /// locks never block other sessions — only a flush's final swap and
  /// Insert wait for them.
  class ProbeSession {
   public:
    ProbeSession(ProbeSession&&) = default;
    ProbeSession& operator=(ProbeSession&&) = delete;
    ~ProbeSession() = default;

    /// Hits G with query ⊆ G (the Isub set), in deterministic shard order.
    const std::vector<Hit>& supergraph_hits() const { return supergraph_hits_; }
    /// Hits G with G ⊆ query (the Isuper set).
    const std::vector<Hit>& subgraph_hits() const { return subgraph_hits_; }
    /// VF2 tests run against cached graphs during the probe.
    size_t probe_iso_tests() const { return probe_iso_tests_; }

   private:
    friend class ShardedQueryCache;
    ProbeSession() = default;

    std::vector<std::shared_lock<std::shared_mutex>> locks_;
    std::vector<Hit> supergraph_hits_;
    std::vector<Hit> subgraph_hits_;
    size_t probe_iso_tests_ = 0;
  };

  /// `universe` is the dataset size the cached answers index; it drives the
  /// answers' adaptive IdSet representation (array vs bitmap). 0 — unknown
  /// universe — is valid and keeps every answer in array form.
  explicit ShardedQueryCache(const IgqOptions& options, size_t universe = 0);
  ~ShardedQueryCache();

  ShardedQueryCache(const ShardedQueryCache&) = delete;
  ShardedQueryCache& operator=(const ShardedQueryCache&) = delete;

  /// Extracts the path features the probe needs (pure; thread-safe).
  PathFeatureCounts ExtractFeatures(const Graph& query) const;

  /// Looks up sub/supergraph relationships between `query` and the cached
  /// queries across all shards. Window (Itemp) entries stay invisible until
  /// their flush, as in the paper. The returned session holds shared locks —
  /// destroy it before any call that needs exclusive access on this thread.
  ProbeSession Probe(const Graph& query,
                     const PathFeatureCounts& query_features) const;

  /// Exact-hit fast path (§4.3): if `canonical` resolves to a cached entry —
  /// flushed or still in a window, in any shard — copies its answer into
  /// `*answer`, ticks the query clock (RecordQueryProcessed: the hit
  /// completes the query), credits the entry's §5.1 metadata (H += 1, R
  /// and C from `credit_of(answer)`), and returns true. A miss changes
  /// nothing.
  /// One global hash lookup plus one shared shard lock; no feature
  /// extraction, no probe, no isomorphism test. `credit_of` is invoked at
  /// most once, with the answer ids — lazily, so a miss pays nothing for
  /// the cost model.
  ///
  /// Never misses a cached key: Insert registers the key at once, so window
  /// entries are hittable too (that is what makes singleflight coalescing
  /// exact), and the map names the entry itself, which a flush does not
  /// move. An entry evicted after the map read still answers (the engines'
  /// writer gate keeps its answer exact) and takes its credit with it.
  bool TryExactHit(const std::string& canonical,
                   FunctionRef<Credit(std::span<const GraphId>)> credit_of,
                   std::vector<GraphId>* answer);

  /// The §5.1 credit for one consulted entry (QueryGraphMetadata::Credit:
  /// H += 1, R += removed, C += cost). Takes only the shard's credit mutex,
  /// so it needs no probe session; an entry evicted since its probe keeps
  /// the credit to itself.
  void CreditHit(const Hit& hit, uint64_t removed, LogValue cost);

  /// Advances the global query counter (the denominator clock for M(g)).
  void RecordQueryProcessed() { ++queries_processed_; }

  /// Registers the query's canonical key and queues the query and its
  /// sorted answer into the owning shard's window; a full window triggers
  /// the deferred flush on this thread (skipped if another thread is
  /// already flushing that shard). A query whose key is already registered
  /// — an isomorph is cached or queued in some shard — is dropped; streams
  /// whose budgeted leader failed can race one past the fast path.
  /// The new entry's probe data is built here, once, from `features`. The
  /// two-argument form computes the canonical key and the features itself;
  /// engines pass the key they computed for the fast-path lookup and the
  /// features they extracted for the probe.
  void Insert(const Graph& query, std::vector<GraphId> answer);
  void Insert(const Graph& query, std::vector<GraphId> answer,
              std::string canonical, const PathFeatureCounts& features);

  /// Forces window integration on every shard (normal operation never
  /// needs it). Blocks until any in-flight flush of each shard completes.
  void FlushAll();

  /// Dataset-mutation patching: instead of flushing the cache when the
  /// dataset changes, every cached and windowed answer is patched in place,
  /// so hit rate and §5.1 metadata survive the mutation.
  ///
  /// Both calls require external write exclusion against the whole cache —
  /// the engines' ApplyMutation provides it (no probe/insert runs
  /// concurrently); per-shard exclusive locks are still taken so any
  /// straggler reading shard state stays correct.
  ///
  /// ApplyGraphAdded: `graph` joined the dataset under `id` (== old dataset
  /// size). In the subgraph direction answer(q) = {G : q ⊆ G}, so `id`
  /// joins every answer whose query is a subgraph of `graph` (Isuper
  /// probe); in the supergraph direction answer(q) = {G : G ⊆ q}, so `id`
  /// joins where `graph` ⊆ q (Isub probe). Window entries are not in the
  /// probe index and are tested directly, with their stored plan or view.
  /// Every answer is re-derived over the grown universe, so the adaptive
  /// representation stays canonical.
  void ApplyGraphAdded(const Graph& graph, GraphId id,
                       QueryDirection direction);

  /// ApplyGraphRemoved: dataset graph `id` was tombstoned; it is dropped
  /// from every flushed and windowed answer that contains it. The probe
  /// index is untouched (it indexes the cached QUERY graphs, which did not
  /// change).
  void ApplyGraphRemoved(GraphId id);

  size_t num_shards() const { return shards_.size(); }
  /// Per-shard slice of cache_capacity / window_size (ceiling share).
  size_t shard_capacity() const { return shard_capacity_; }
  size_t shard_window() const { return shard_window_; }

  /// Totals across shards. Each is one consistent read per shard; the total
  /// is advisory while writers run (shards are summed one lock at a time).
  size_t size() const;
  size_t window_fill() const;
  uint64_t queries_processed() const { return queries_processed_.load(); }
  int64_t maintenance_micros() const { return maintenance_micros_.load(); }
  size_t MemoryBytes() const;

  /// Copies of every entry — each shard's flushed entries, then its
  /// pending window entries, shard by shard (with one shard: positions
  /// [0, size()) are flushed, the rest are Itemp). For tests and inspection.
  std::vector<CachedQuery> Entries() const;

  /// Serializes the complete behavioral state: every shard's entries
  /// (graph, answer, §5.1 metadata) and window (Itemp), the query/id
  /// counters, the geometry, and `num_graphs` and `dataset_crc` (size and
  /// content fingerprint of the dataset the answers refer to, see
  /// snapshot::DatasetFingerprint). The canonical keys, the probe index and
  /// the entries' probe data are NOT serialized — they are derived data,
  /// rebuilt on load per §5.2. Takes shared locks + credit mutexes, so it
  /// is safe against concurrent probes and credits; concurrent Insert/flush
  /// make the snapshot a valid but arbitrary cut — quiesce first for a
  /// meaningful one.
  void Save(snapshot::BinaryWriter& writer, uint64_t num_graphs,
            uint32_t dataset_crc) const;

  /// Restores state saved by Save(), derives every entry's canonical key
  /// and probe data from its graph, and rebuilds every shard's probe index;
  /// a cache restored this way replays a query stream with the same hits,
  /// prunes, and replacement victims as the one that produced the snapshot.
  /// Returns kNone on success. Any other kind leaves this cache unchanged:
  /// kVersionSkew for a cache-state version other than this build's;
  /// kDatasetDivergence for a snapshot taken under different geometry
  /// (path_max_edges, capacity, window, shard count, or policy) or over a
  /// dataset of another size or content fingerprint; kCorrupt for
  /// malformed bytes, an answer id out of range or out of order, or two
  /// records with one canonical key. NOT thread-safe: no other call may
  /// run concurrently.
  snapshot::SnapshotErrorKind Load(snapshot::BinaryReader& reader,
                                   uint64_t num_graphs, uint32_t dataset_crc);

 private:
  /// One shard: a slice of Igraphs with its own locks and probe index.
  struct Shard {
    /// Structure lock: entries/window/index. Shared for probes, exclusive
    /// for Insert appends and the flush swap.
    mutable std::shared_mutex mutex;
    /// Guards the §5.1 metadata of the shard's entries, also of entries
    /// this shard has evicted while a hit still holds them. A leaf lock.
    mutable std::mutex credit_mutex;
    /// Single-writer gate for the deferred flush; taken before any
    /// structure lock on the same shard.
    std::mutex maintenance_mutex;

    std::vector<std::shared_ptr<CachedQuery>> entries;
    std::vector<std::shared_ptr<CachedQuery>> window;  // Itemp slice
    /// Isub + Isuper over `entries`, by position; rebuilt at every flush.
    ProbeIndex index;
  };

  /// The deferred flush: integrates `shard`'s window when due (always, if
  /// `force`). `wait` blocks for the maintenance gate instead of skipping
  /// when another thread holds it.
  void MaintainShard(size_t shard_index, bool force, bool wait);

  IgqOptions options_;
  size_t universe_ = 0;  // dataset size the answers index
  PathEnumeratorOptions enumerator_options_;
  size_t shard_capacity_ = 1;
  size_t shard_window_ = 1;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// canonical code -> entry, across ALL shards: the cache's one record of
  /// which queries it holds. Global because the shard hash is structural,
  /// not isomorphism-invariant: two isomorphic copies of a query generally
  /// land in different shards, so a per-shard map could not answer "is an
  /// isomorph cached anywhere?" in one lookup. One key names one entry:
  /// Insert drops a query whose key is registered, and Load rejects a
  /// snapshot holding two records with one key. Lock order: a shard's
  /// `mutex` before this map's lock; lookups take the map lock alone.
  std::unordered_map<std::string, Hit> canonical_index_;
  mutable std::shared_mutex canonical_mutex_;
  std::atomic<uint64_t> queries_processed_{0};
  std::atomic<uint64_t> next_id_{0};
  std::atomic<int64_t> maintenance_micros_{0};
};

}  // namespace igq

#endif  // IGQ_IGQ_SHARDED_CACHE_H_
