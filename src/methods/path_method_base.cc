#include "methods/path_method_base.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <thread>

#include "common/id_set.h"
#include "snapshot/serializer.h"

namespace igq {
namespace {

/// Payload version of the serialized path-method index.
constexpr uint32_t kPathIndexVersion = 1;

// Per-graph aggregation buffer: feature -> (count, locations). The
// enumerator walks start vertices in ascending order, so skipping a start
// equal to the last one keeps each location list sorted and unique, and
// PathTrie::Add stores it without sorting.
struct FeatureAggregate {
  uint32_t count = 0;
  std::vector<VertexId> locations;
};
using GraphFeatureMap = std::map<PathKey, FeatureAggregate>;

GraphFeatureMap AggregateGraph(const Graph& graph,
                               const PathEnumeratorOptions& options,
                               bool keep_locations) {
  GraphFeatureMap features;
  EnumeratePaths(graph, options,
                 [&features, keep_locations](PathKey key, VertexId start) {
                   FeatureAggregate& agg = features[key];
                   ++agg.count;
                   if (keep_locations && (agg.locations.empty() ||
                                          agg.locations.back() != start)) {
                     agg.locations.push_back(start);
                   }
                 });
  return features;
}

}  // namespace

void PathMethodBase::Build(const GraphDatabase& db) {
  db_ = &db;
  // Build may run again over a mutated database (the engines' rebuild
  // fallback); start from an empty trie, never accumulate.
  trie_ = PathTrie(options_.store_locations);
  const size_t num_graphs = db.graphs.size();
  const size_t threads =
      std::min(options_.build_threads == 0 ? size_t{1} : options_.build_threads,
               num_graphs == 0 ? size_t{1} : num_graphs);

  // Each worker enumerates a slice of graphs into local per-graph maps; the
  // maps are merged into the shared trie under a lock, in ascending graph-id
  // order so postings lists stay sorted (this mirrors Grapes' per-thread
  // trie construction followed by a merge step).
  // Tombstoned graphs are skipped outright — their per-graph maps stay
  // empty, so they get no postings and can never filter through. The
  // incremental path (OnRemoveGraph) reaches the same candidate sets by
  // subtracting the tombstone set in Filter() instead.
  std::vector<GraphFeatureMap> per_graph(num_graphs);
  if (threads <= 1) {
    for (size_t i = 0; i < num_graphs; ++i) {
      if (!db.IsLive(static_cast<GraphId>(i))) continue;
      per_graph[i] = AggregateGraph(db.graphs[i], EnumeratorOptions(),
                                    options_.store_locations);
    }
  } else {
    std::vector<std::thread> workers;
    std::mutex mutex;
    size_t next = 0;
    for (size_t t = 0; t < threads; ++t) {
      workers.emplace_back([this, &db, &per_graph, &mutex, &next, num_graphs] {
        for (;;) {
          size_t index;
          {
            std::lock_guard<std::mutex> lock(mutex);
            if (next >= num_graphs) return;
            index = next++;
          }
          if (!db.IsLive(static_cast<GraphId>(index))) continue;
          per_graph[index] = AggregateGraph(db.graphs[index],
                                            EnumeratorOptions(),
                                            options_.store_locations);
        }
      });
    }
    for (auto& worker : workers) worker.join();
  }

  for (size_t i = 0; i < num_graphs; ++i) {
    for (const auto& [key, agg] : per_graph[i]) {
      trie_.Add(key, static_cast<GraphId>(i), agg.count,
                options_.store_locations ? &agg.locations : nullptr);
    }
    per_graph[i].clear();
  }

  // Verification substrate: CSR views of every dataset graph, built once
  // here and reused by every Verify() call of every future query.
  target_views_.Build(db.graphs);
}

bool PathMethodBase::SaveIndex(std::ostream& out) const {
  if (db_ == nullptr) return false;  // never built
  snapshot::BinaryWriter writer(out);
  writer.WriteU32(kPathIndexVersion);
  writer.WriteU32(static_cast<uint32_t>(options_.max_path_edges));
  writer.WriteU8(options_.store_locations ? 1 : 0);
  trie_.Save(writer);
  return writer.ok();
}

bool PathMethodBase::LoadIndex(const GraphDatabase& db, std::istream& in) {
  snapshot::BinaryReader reader(in);
  uint32_t version = 0, max_path_edges = 0;
  uint8_t store_locations = 0;
  if (!reader.ReadU32(&version) || version != kPathIndexVersion) return false;
  if (!reader.ReadU32(&max_path_edges) || !reader.ReadU8(&store_locations)) {
    return false;
  }
  if (max_path_edges != options_.max_path_edges ||
      (store_locations != 0) != options_.store_locations) {
    return false;  // index built under a different configuration
  }
  PathTrie trie(options_.store_locations);
  if (!trie.Load(reader, static_cast<uint32_t>(db.graphs.size()),
                 std::span<const Graph>(db.graphs))) {
    return false;
  }
  if (trie.store_locations() != options_.store_locations) return false;
  trie_ = std::move(trie);
  db_ = &db;
  // Derived data, never serialized: rebuild the verification views over
  // the restored dataset (cheap next to path enumeration).
  target_views_.Build(db.graphs);
  return true;
}

std::unique_ptr<PreparedQuery> PathMethodBase::Prepare(
    const Graph& query) const {
  return std::make_unique<PathPreparedQuery>(
      query, CountPathFeatures(query, EnumeratorOptions()));
}

namespace {

/// candidates \ db.tombstones, preserving order. The tombstone set is the
/// database's adaptive IdSet, so this is the sorted-span form of
/// IdSet::Difference (one membership Partition; bitmap probes or a
/// merge-walk depending on the set's representation).
std::vector<GraphId> DropTombstoned(const GraphDatabase& db,
                                    std::vector<GraphId> candidates) {
  if (db.tombstones.empty() || candidates.empty()) return candidates;
  std::vector<GraphId> live;
  live.reserve(candidates.size());
  db.tombstone_set.Partition(candidates, /*kept=*/nullptr, &live);
  return live;
}

}  // namespace

std::vector<GraphId> PathMethodBase::Filter(
    const PreparedQuery& prepared) const {
  const auto& pq = static_cast<const PathPreparedQuery&>(prepared);
  const PathFeatureCounts& features = pq.features();
  if (db_ == nullptr) return {};
  if (features.empty()) {
    // A query with no features (empty graph) is contained everywhere —
    // everywhere still alive.
    std::vector<GraphId> all(db_->graphs.size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<GraphId>(i);
    return DropTombstoned(*db_, std::move(all));
  }

  // Counting filter through the trie's containment kernel (rarest list
  // first; polls the query's control between lists, and a stopped filter's
  // candidates come back empty — the engine treats them as garbage).
  std::vector<GraphId> candidates;
  trie_.FindContainingAll(features, db_->graphs.size(), prepared.control(),
                          &candidates);
  // Removed graphs may still hold postings (OnRemoveGraph leaves the trie
  // untouched); subtract them here so the incremental index answers exactly
  // as a fresh Build would.
  return DropTombstoned(*db_, std::move(candidates));
}

bool PathMethodBase::OnAddGraph(const GraphDatabase& db, GraphId id) {
  if (db_ != &db) return false;  // built over a different database
  if (static_cast<size_t>(id) + 1 != db.graphs.size() ||
      target_views_.size() != static_cast<size_t>(id)) {
    return false;  // ids must extend the index contiguously
  }
  const GraphFeatureMap features = AggregateGraph(
      db.graphs[id], EnumeratorOptions(), options_.store_locations);
  // `id` is the maximum id the trie has ever seen, so appending keeps every
  // postings list sorted — the invariant PathTrie::Add asserts.
  for (const auto& [key, agg] : features) {
    trie_.Add(key, id, agg.count,
              options_.store_locations ? &agg.locations : nullptr);
  }
  target_views_.Append(db.graphs[id]);
  return true;
}

bool PathMethodBase::OnRemoveGraph(const GraphDatabase& db, GraphId) {
  // Nothing to unindex: the dead graph's postings stay behind and Filter()
  // subtracts the database's tombstone set (see DropTombstoned above).
  return db_ == &db;
}

}  // namespace igq
