#include "igq/sharded_cache.h"

#include <algorithm>
#include <numeric>

#include "common/timer.h"
#include "features/canonical.h"
#include "isomorphism/match_core.h"
#include "snapshot/serializer.h"

namespace igq {
namespace {

/// Payload version of the serialized cache state (docs/FORMATS.md). Its
/// records carry no canonical key: Load derives every key from the graph.
constexpr uint32_t kCacheStateVersion = 3;

/// Serializes one cached-query record (graph, sorted answer, §5.1
/// metadata) in the version-3 layout (docs/FORMATS.md).
void SaveCachedQuery(snapshot::BinaryWriter& writer,
                     const CachedQuery& record) {
  writer.WriteU64(record.id);
  snapshot::WriteGraph(writer, record.graph);
  // Answers are written as sorted id arrays regardless of their in-memory
  // representation (docs/FORMATS.md).
  writer.WriteU64(record.answer.size());
  record.answer.ForEach([&writer](GraphId id) { writer.WriteU32(id); });
  writer.WriteU64(record.meta.hits);
  writer.WriteU64(record.meta.inserted_at);
  writer.WriteU64(record.meta.removed_candidates);
  writer.WriteDouble(record.meta.cost_saved.log());
  writer.WriteU64(record.meta.last_hit_at);
}

/// Restores a record written by SaveCachedQuery and derives its canonical
/// key from the graph. Returns false on malformed bytes, an answer id
/// outside [0, num_graphs), or an unsorted answer.
bool LoadCachedQuery(snapshot::BinaryReader& reader, CachedQuery* record,
                     uint64_t num_graphs) {
  if (!reader.ReadU64(&record->id)) return false;
  if (!snapshot::ReadGraph(reader, &record->graph)) return false;
  record->canonical = GraphCanonicalCode(record->graph);
  uint64_t answer_size = 0;
  if (!reader.ReadU64(&answer_size)) return false;
  std::vector<GraphId> answer_ids;
  answer_ids.reserve(static_cast<size_t>(std::min<uint64_t>(answer_size, 1024)));
  for (uint64_t i = 0; i < answer_size; ++i) {
    uint32_t id = 0;
    if (!reader.ReadU32(&id)) return false;
    if (id >= num_graphs) return false;  // answer ids index the dataset
    if (i > 0 && id <= answer_ids.back()) {
      return false;  // answers must be sorted ascending, no duplicates
    }
    answer_ids.push_back(id);
  }
  // Validated sorted-unique above; the in-memory representation re-adapts
  // to the restored answer's density.
  record->answer =
      IdSet::FromSortedUnique(std::move(answer_ids), num_graphs);
  double cost_saved_log = 0;
  if (!reader.ReadU64(&record->meta.hits) ||
      !reader.ReadU64(&record->meta.inserted_at) ||
      !reader.ReadU64(&record->meta.removed_candidates) ||
      !reader.ReadDouble(&cost_saved_log) ||
      !reader.ReadU64(&record->meta.last_hit_at)) {
    return false;
  }
  record->meta.cost_saved = LogValue::FromLog(cost_saved_log);
  return true;
}

/// §5.1 eviction score of `entry` under `policy` when the global query
/// counter reads `now`: lower evicts first (kUtility is U(g) = C(g)/M(g) in
/// log space; the alternatives back the replacement ablation bench).
double EvictionScore(ReplacementPolicy policy, const CachedQuery& entry,
                     uint64_t now) {
  const QueryGraphMetadata& meta = entry.meta;
  switch (policy) {
    case ReplacementPolicy::kUtility:
      return meta.Utility(now).log();
    case ReplacementPolicy::kPopularity:
      return static_cast<double>(meta.hits) /
             static_cast<double>(meta.QueriesSinceInsertion(now));
    case ReplacementPolicy::kLru:
      return static_cast<double>(meta.last_hit_at);
    case ReplacementPolicy::kFifo:
      return static_cast<double>(entry.id);
  }
  return 0.0;
}

}  // namespace

uint64_t GraphShardHash(const Graph& graph) {
  // FNV-1a over the structural content in vertex-id order. Adjacency lists
  // are sorted, so structurally equal graphs produce identical streams.
  uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](uint64_t value) {
    hash ^= value;
    hash *= 1099511628211ull;
  };
  mix(graph.NumVertices());
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    mix(graph.label(v));
    for (VertexId w : graph.Neighbors(v)) {
      if (v < w) mix((static_cast<uint64_t>(v) << 32) | w);
    }
  }
  return hash;
}

ShardedQueryCache::ShardedQueryCache(const IgqOptions& options,
                                     size_t universe)
    : options_(options), universe_(universe) {
  enumerator_options_.max_edges = options_.path_max_edges;
  enumerator_options_.include_single_vertices = true;
  const size_t shards = std::max<size_t>(1, options_.cache_shards);
  shard_capacity_ =
      std::max<size_t>(1, (options_.cache_capacity + shards - 1) / shards);
  shard_window_ = std::min(
      shard_capacity_,
      std::max<size_t>(1, (options_.window_size + shards - 1) / shards));
  shards_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->index = ProbeIndex(enumerator_options_);
    shards_.push_back(std::move(shard));
  }
}

ShardedQueryCache::~ShardedQueryCache() = default;

PathFeatureCounts ShardedQueryCache::ExtractFeatures(const Graph& query) const {
  return CountPathFeatures(query, enumerator_options_);
}

ShardedQueryCache::ProbeSession ShardedQueryCache::Probe(
    const Graph& query, const PathFeatureCounts& query_features) const {
  ProbeSession session;
  session.locks_.reserve(shards_.size());
  // Shared locks in shard order; writers hold at most one shard's exclusive
  // lock at a time, so no acquisition cycle exists.
  for (const auto& shard : shards_) {
    session.locks_.emplace_back(shard->mutex);
  }
  // Per-shard probe results land in a thread-local buffer reused across
  // shards and queries (a probe runs entirely on one serving thread), so
  // the per-shard result vectors cost no allocations in steady state.
  static thread_local std::vector<size_t> positions;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = *shards_[s];
    if (shard.entries.empty()) continue;
    shard.index.FindSupergraphsOf(query, query_features, &positions,
                                  &session.probe_iso_tests_);
    for (size_t position : positions) {
      session.supergraph_hits_.push_back(Hit{s, shard.entries[position]});
    }
    shard.index.FindSubgraphsOf(query, query_features, &positions,
                                &session.probe_iso_tests_);
    for (size_t position : positions) {
      session.subgraph_hits_.push_back(Hit{s, shard.entries[position]});
    }
  }
  return session;
}

bool ShardedQueryCache::TryExactHit(
    const std::string& canonical,
    FunctionRef<Credit(std::span<const GraphId>)> credit_of,
    std::vector<GraphId>* answer) {
  Hit hit;
  {
    std::shared_lock<std::shared_mutex> map_lock(canonical_mutex_);
    const auto it = canonical_index_.find(canonical);
    if (it == canonical_index_.end()) return false;
    hit = it->second;
  }
  {
    // Answers are patched in place under the exclusive shard lock.
    std::shared_lock<std::shared_mutex> lock(shards_[hit.shard]->mutex);
    *answer = hit.entry->answer.ToVector();
  }
  const Credit credit = credit_of(*answer);
  // The hit completes the query: tick its clock, then credit.
  RecordQueryProcessed();
  CreditHit(hit, credit.removed, credit.cost);
  return true;
}

void ShardedQueryCache::CreditHit(const Hit& hit, uint64_t removed,
                                  LogValue cost) {
  std::lock_guard<std::mutex> credits(shards_[hit.shard]->credit_mutex);
  hit.entry->meta.Credit(queries_processed_.load(std::memory_order_relaxed),
                         removed, cost);
}

void ShardedQueryCache::Insert(const Graph& query,
                               std::vector<GraphId> answer) {
  Insert(query, std::move(answer), GraphCanonicalCode(query),
         ExtractFeatures(query));
}

void ShardedQueryCache::Insert(const Graph& query, std::vector<GraphId> answer,
                               std::string canonical,
                               const PathFeatureCounts& features) {
  const size_t shard_index =
      static_cast<size_t>(GraphShardHash(query) % shards_.size());
  Shard& shard = *shards_[shard_index];
  // The entry — with its probe data, the only derivation it will ever get —
  // is built before the exclusive section, which stays cheap.
  auto record = std::make_shared<CachedQuery>();
  record->graph = query;
  record->canonical = std::move(canonical);
  // Sortedness is detected in one pass (answers arrive sorted) and the
  // representation picked adaptively.
  record->answer = IdSet::FromIds(std::move(answer), universe_);
  record->probe = MakeProbeData(query, features);
  bool flush_due = false;
  {
    std::unique_lock<std::shared_mutex> lock(shard.mutex);
    // Register the key first (lock order: shard.mutex -> canonical_mutex_;
    // a lookup that finds it waits on this shard's lock until the entry is
    // queued). A registered key means an isomorph is cached or queued in
    // some shard: drop this copy. Registering at once is also what closes
    // the singleflight loop: the key becomes hittable the moment the leader
    // inserts, before it publishes and unregisters.
    {
      std::unique_lock<std::shared_mutex> map_lock(canonical_mutex_);
      const auto [slot, fresh] =
          canonical_index_.try_emplace(record->canonical);
      if (!fresh) return;
      slot->second = Hit{shard_index, record};
      record->id = next_id_.fetch_add(1, std::memory_order_relaxed);
    }
    record->meta.inserted_at =
        queries_processed_.load(std::memory_order_relaxed);
    shard.window.push_back(std::move(record));
    flush_due = shard.window.size() >= shard_window_;
  }
  if (flush_due) MaintainShard(shard_index, /*force=*/false, /*wait=*/false);
}

void ShardedQueryCache::MaintainShard(size_t shard_index, bool force,
                                      bool wait) {
  Shard& shard = *shards_[shard_index];
  std::unique_lock<std::mutex> gate(shard.maintenance_mutex, std::defer_lock);
  if (wait) {
    gate.lock();
  } else if (!gate.try_lock()) {
    // Another thread is flushing this shard; its re-check loop will pick up
    // whatever filled the window meanwhile.
    return;
  }

  for (;;) {
    Timer timer;
    size_t take = 0;
    std::vector<std::shared_ptr<CachedQuery>> staged, victims;
    const uint64_t now = queries_processed_.load(std::memory_order_relaxed);
    {
      std::shared_lock<std::shared_mutex> lock(shard.mutex);
      // Integrate at most one window-sized slice per pass (the loop drains
      // the rest): under gate contention the window can overshoot
      // shard_window_, and merging an oversized slice wholesale would leave
      // the shard above capacity with no later flush to correct it.
      take = std::min(shard.window.size(), shard_window_);
      if (take == 0 || (!force && shard.window.size() < shard_window_)) {
        return;
      }
      const std::vector<std::shared_ptr<CachedQuery>>& entries = shard.entries;

      // Eviction (§5.1) over a frozen metadata snapshot (the credit mutex
      // blocks H/R/C updates while victims are chosen). The incoming window
      // always enters so fresh queries get a chance to accumulate utility;
      // only pre-existing entries compete, lowest EvictionScore first.
      std::lock_guard<std::mutex> credits(shard.credit_mutex);
      const size_t target_old =
          shard_capacity_ > take ? shard_capacity_ - take : 0;
      std::vector<bool> evicted(entries.size(), false);
      if (entries.size() > target_old) {
        const size_t evict = entries.size() - target_old;
        std::vector<size_t> order(entries.size());
        std::iota(order.begin(), order.end(), 0);
        std::stable_sort(
            order.begin(), order.end(), [&](size_t a, size_t b) {
              const double sa = EvictionScore(options_.replacement_policy,
                                              *entries[a], now);
              const double sb = EvictionScore(options_.replacement_policy,
                                              *entries[b], now);
              if (sa != sb) return sa < sb;
              return entries[a]->id < entries[b]->id;  // older first
            });
        for (size_t i = 0; i < evict; ++i) evicted[order[i]] = true;
      }
      staged.reserve(entries.size() + take);
      for (size_t i = 0; i < entries.size(); ++i) {
        (evicted[i] ? victims : staged).push_back(entries[i]);
      }
      staged.insert(staged.end(), shard.window.begin(),
                    shard.window.begin() + static_cast<ptrdiff_t>(take));
    }

    // Shadow rebuild (§5.2) with no structure lock held: probes keep
    // running against the old entries/index while the fresh index files
    // the staged entries' stored features. Only this (gated) path
    // restructures `entries`, and Insert only appends to the window, so the
    // staged pointers are still the shard's when the swap below runs.
    ProbeIndex fresh_index(enumerator_options_);
    fresh_index.Build(staged);

    bool more = false;
    {
      std::unique_lock<std::shared_mutex> lock(shard.mutex);
      shard.entries = std::move(staged);
      shard.window.erase(shard.window.begin(),
                         shard.window.begin() + static_cast<ptrdiff_t>(take));
      shard.index = std::move(fresh_index);
      // One key names one entry, so each victim's key is its own.
      {
        std::unique_lock<std::shared_mutex> map_lock(canonical_mutex_);
        for (const std::shared_ptr<CachedQuery>& victim : victims) {
          canonical_index_.erase(victim->canonical);
        }
      }
      more = shard.window.size() >= shard_window_ ||
             (force && !shard.window.empty());
    }
    maintenance_micros_.fetch_add(timer.ElapsedMicros(),
                                  std::memory_order_relaxed);
    if (!more) return;
  }
}

void ShardedQueryCache::ApplyGraphAdded(const Graph& graph, GraphId id,
                                        QueryDirection direction) {
  universe_ = static_cast<size_t>(id) + 1;
  const bool subgraph = direction == QueryDirection::kSubgraph;
  const PathFeatureCounts features = ExtractFeatures(graph);
  // Every answer is re-derived over the grown universe (the bitmap density
  // threshold moved with it); `id` is larger than every member, so a gained
  // id appends without disturbing sortedness.
  auto repatch = [this, id](CachedQuery& record, bool gains_id) {
    std::vector<GraphId> ids = record.answer.ToVector();
    if (gains_id) ids.push_back(id);
    record.answer = IdSet::FromSortedUnique(std::move(ids), universe_);
  };
  std::vector<size_t> affected;
  for (const auto& shard : shards_) {
    std::unique_lock<std::shared_mutex> lock(shard->mutex);
    const std::vector<std::shared_ptr<CachedQuery>>& entries = shard->entries;
    // The probe index verifies containment with PlanContains, so its
    // results are exact relationships, not candidates.
    if (subgraph) {
      shard->index.FindSubgraphsOf(graph, features, &affected);
    } else {
      shard->index.FindSupergraphsOf(graph, features, &affected);
    }
    std::vector<uint8_t> gains(entries.size(), 0);
    for (size_t position : affected) gains[position] = 1;
    for (size_t i = 0; i < entries.size(); ++i) repatch(*entries[i], gains[i]);

    // Window entries are invisible to the probe index until their flush;
    // test them directly: q ⊆ graph (subgraph: the entry's stored plan
    // against the new graph's view) or graph ⊆ q (supergraph: the new
    // graph's plan against the entry's stored view). The new graph's half
    // lives in this thread's match scratch, which the probe above reuses,
    // so it is set up after it, once per shard.
    MatchContext& ctx = MatchContext::ThreadLocal();
    MatchPlan& added_plan = ctx.scratch_plan();
    CsrGraphView& added_view = ctx.scratch_target();
    if (subgraph) {
      added_view.Assign(graph);
    } else {
      added_plan.Compile(graph);
    }
    for (const std::shared_ptr<CachedQuery>& record : shard->window) {
      CachedQuery& queued = *record;
      const Graph& pattern = subgraph ? queued.graph : graph;
      const Graph& target = subgraph ? graph : queued.graph;
      bool gains_id = pattern.NumVertices() <= target.NumVertices() &&
                      pattern.NumEdges() <= target.NumEdges();
      if (gains_id) {
        gains_id = subgraph
                       ? PlanContains(queued.probe->plan, added_view, ctx)
                       : PlanContains(added_plan, queued.probe->view, ctx);
      }
      repatch(queued, gains_id);
    }
  }
}

void ShardedQueryCache::ApplyGraphRemoved(GraphId id) {
  std::vector<GraphId> ids;
  auto drop = [this, id, &ids](CachedQuery& record) {
    if (!record.answer.contains(id)) return;
    record.answer.Materialize(&ids);
    ids.erase(std::lower_bound(ids.begin(), ids.end(), id));
    record.answer = IdSet::FromSortedUnique(ids, universe_);
  };
  for (const auto& shard : shards_) {
    std::unique_lock<std::shared_mutex> lock(shard->mutex);
    for (const auto& record : shard->entries) drop(*record);
    for (const auto& record : shard->window) drop(*record);
  }
}

void ShardedQueryCache::FlushAll() {
  for (size_t s = 0; s < shards_.size(); ++s) {
    MaintainShard(s, /*force=*/true, /*wait=*/true);
  }
}

size_t ShardedQueryCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mutex);
    total += shard->entries.size();
  }
  return total;
}

size_t ShardedQueryCache::window_fill() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mutex);
    total += shard->window.size();
  }
  return total;
}

size_t ShardedQueryCache::MemoryBytes() const {
  auto entry_bytes = [](const CachedQuery& record) {
    return record.graph.MemoryBytes() + record.answer.MemoryBytes() +
           record.canonical.capacity() + sizeof(CachedQuery);
  };
  size_t bytes = sizeof(*this);
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mutex);
    // The index counts the probe data of the entries it holds; a window
    // entry's probe data, built at Insert, is counted with the entry.
    bytes += sizeof(Shard) + shard->index.MemoryBytes();
    for (const auto& record : shard->entries) bytes += entry_bytes(*record);
    for (const auto& record : shard->window) {
      bytes += entry_bytes(*record) + record->probe->MemoryBytes();
    }
  }
  {
    std::shared_lock<std::shared_mutex> map_lock(canonical_mutex_);
    bytes += canonical_index_.size() *
             (sizeof(std::pair<std::string, Hit>) + sizeof(void*));
    for (const auto& [key, hit] : canonical_index_) bytes += key.capacity();
  }
  return bytes;
}

std::vector<CachedQuery> ShardedQueryCache::Entries() const {
  std::vector<CachedQuery> copies;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mutex);
    std::lock_guard<std::mutex> credits(shard->credit_mutex);
    for (const auto& record : shard->entries) copies.push_back(*record);
    for (const auto& record : shard->window) copies.push_back(*record);
  }
  return copies;
}

void ShardedQueryCache::Save(snapshot::BinaryWriter& writer,
                             uint64_t num_graphs, uint32_t dataset_crc) const {
  // Shared locks on all shards for a single consistent cut; the credit
  // mutex is taken per shard while its records are written so §5.1 counters
  // are not read mid-update.
  std::vector<std::shared_lock<std::shared_mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) locks.emplace_back(shard->mutex);

  writer.WriteU32(kCacheStateVersion);
  writer.WriteU32(static_cast<uint32_t>(options_.path_max_edges));
  writer.WriteU64(options_.cache_capacity);
  writer.WriteU64(options_.window_size);
  writer.WriteU8(static_cast<uint8_t>(options_.replacement_policy));
  writer.WriteU32(static_cast<uint32_t>(shards_.size()));
  writer.WriteU64(num_graphs);
  writer.WriteU32(dataset_crc);
  writer.WriteU64(queries_processed_.load());
  writer.WriteU64(next_id_.load());
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> credits(shard->credit_mutex);
    writer.WriteU64(shard->entries.size());
    for (const auto& record : shard->entries) SaveCachedQuery(writer, *record);
    writer.WriteU64(shard->window.size());
    for (const auto& record : shard->window) SaveCachedQuery(writer, *record);
  }
}

bool ShardedQueryCache::Load(snapshot::BinaryReader& reader,
                             uint64_t num_graphs, uint32_t dataset_crc) {
  uint32_t version = 0, path_max_edges = 0;
  if (!reader.ReadU32(&version) || version != kCacheStateVersion) {
    return false;
  }
  if (!reader.ReadU32(&path_max_edges) ||
      path_max_edges != options_.path_max_edges) {
    return false;
  }
  // Geometry must match in full: capacity/window drive flush cadence and
  // eviction counts, the policy picks victims, and the shard count decides
  // both graph placement and the per-shard slices.
  uint64_t cache_capacity = 0, window_size = 0;
  uint8_t policy = 0;
  uint32_t shard_count = 0;
  if (!reader.ReadU64(&cache_capacity) || !reader.ReadU64(&window_size) ||
      !reader.ReadU8(&policy) || !reader.ReadU32(&shard_count)) {
    return false;
  }
  if (cache_capacity != options_.cache_capacity ||
      window_size != options_.window_size ||
      policy != static_cast<uint8_t>(options_.replacement_policy) ||
      shard_count != shards_.size()) {
    return false;
  }
  uint64_t stamped_num_graphs = 0;
  uint32_t stamped_crc = 0;
  if (!reader.ReadU64(&stamped_num_graphs) ||
      stamped_num_graphs != num_graphs) {
    return false;
  }
  if (!reader.ReadU32(&stamped_crc) || stamped_crc != dataset_crc) {
    return false;
  }
  uint64_t queries_processed = 0, next_id = 0;
  if (!reader.ReadU64(&queries_processed) || !reader.ReadU64(&next_id)) {
    return false;
  }

  // Decode every shard fully, and register every key — the map is derived
  // data too — before touching live state, so malformed input, or two
  // records sharing a key (Save never writes them: Insert keeps one copy
  // of each key), leave this cache unchanged.
  struct StagedShard {
    std::vector<std::shared_ptr<CachedQuery>> entries;
    std::vector<std::shared_ptr<CachedQuery>> window;
  };
  std::vector<StagedShard> staged(shards_.size());
  std::unordered_map<std::string, Hit> canonical_index;
  for (size_t s = 0; s < shards_.size(); ++s) {
    for (std::vector<std::shared_ptr<CachedQuery>>* records :
         {&staged[s].entries, &staged[s].window}) {
      uint64_t count = 0;
      if (!reader.ReadU64(&count)) return false;
      records->reserve(static_cast<size_t>(std::min<uint64_t>(count, 1024)));
      for (uint64_t i = 0; i < count; ++i) {
        auto record = std::make_shared<CachedQuery>();
        if (!LoadCachedQuery(reader, record.get(), num_graphs) ||
            !canonical_index.try_emplace(record->canonical, Hit{s, record})
                 .second) {
          return false;
        }
        records->push_back(std::move(record));
      }
    }
  }

  // Derive every record's probe data (it is not persisted) and
  // shadow-rebuild each shard's probe index (§5.2). Load requires
  // quiescence; the locks below only keep stragglers correct.
  Timer timer;
  for (size_t s = 0; s < shards_.size(); ++s) {
    for (std::vector<std::shared_ptr<CachedQuery>>* records :
         {&staged[s].entries, &staged[s].window}) {
      for (const std::shared_ptr<CachedQuery>& record : *records) {
        record->probe =
            MakeProbeData(record->graph, ExtractFeatures(record->graph));
      }
    }
    ProbeIndex fresh_index(enumerator_options_);
    fresh_index.Build(staged[s].entries);
    Shard& shard = *shards_[s];
    std::unique_lock<std::shared_mutex> lock(shard.mutex);
    shard.entries = std::move(staged[s].entries);
    shard.window = std::move(staged[s].window);
    shard.index = std::move(fresh_index);
  }
  {
    std::unique_lock<std::shared_mutex> map_lock(canonical_mutex_);
    canonical_index_ = std::move(canonical_index);
  }
  queries_processed_.store(queries_processed);
  next_id_.store(next_id);
  maintenance_micros_.fetch_add(timer.ElapsedMicros(),
                                std::memory_order_relaxed);
  return true;
}

}  // namespace igq
