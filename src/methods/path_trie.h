// Trie over path-feature label sequences with per-graph postings — the index
// structure of GraphGrepSX ("suffix tree" of paths), Grapes (paths +
// location info) and iGQ's Isuper (Algorithm 1: features with occurrence
// counts).
#ifndef IGQ_METHODS_PATH_TRIE_H_
#define IGQ_METHODS_PATH_TRIE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "features/feature_set.h"
#include "graph/graph.h"

namespace igq {
namespace serving {
class QueryControl;
}  // namespace serving
namespace snapshot {
class BinaryReader;
class BinaryWriter;
}  // namespace snapshot

/// Posting for one (feature, graph) pair: 8 bytes, so a feature's postings
/// are one dense array the containment kernel streams through.
struct PathPosting {
  uint32_t graph_id = 0;
  /// Number of directed instances of the feature in the graph.
  uint32_t count = 0;
};

/// Label trie; each node corresponds to a canonical path prefix and holds
/// the postings of the feature ending there.
class PathTrie {
 public:
  /// `store_locations` enables Grapes-style location info.
  explicit PathTrie(bool store_locations = false)
      : store_locations_(store_locations) {
    nodes_.emplace_back();
    if (store_locations_) locations_.emplace_back();
  }

  /// Adds `count` instances of feature `key` for `graph_id`, with optional
  /// instance start `locations` (stored sorted and deduplicated; ignored
  /// unless location storage is on). Postings for a given key must be added
  /// in increasing graph_id order.
  void Add(PathKey key, uint32_t graph_id, uint32_t count,
           const std::vector<VertexId>* locations = nullptr);

  /// Postings of `key`, ascending by graph id, or nullptr if the feature is
  /// absent.
  const std::vector<PathPosting>* Find(PathKey key) const;

  /// Start vertices (sorted, unique) of `graph_id`'s instances of `key`;
  /// empty when the trie stores no locations or `graph_id` has no posting
  /// for `key`.
  std::span<const VertexId> Locations(PathKey key, uint32_t graph_id) const;

  /// The containment kernel behind every counting filter: fills `out`
  /// (cleared first; capacity reused) with the ids, ascending, of the
  /// graphs holding every feature of `features` at least as often as
  /// `features` counts it. Every posting id must lie below `universe`. A
  /// featureless query yields no ids: what an empty pattern matches is the
  /// caller's rule. `control` (may be null) is polled between posting
  /// lists; a stopped query leaves `out` empty. Steady-state calls perform
  /// no heap allocation beyond growing `out`.
  void FindContainingAll(const PathFeatureCounts& features, size_t universe,
                         serving::QueryControl* control,
                         std::vector<GraphId>* out) const;

  /// Number of distinct features stored.
  size_t NumFeatures() const { return num_features_; }

  size_t NumNodes() const { return nodes_.size(); }

  /// Estimated heap footprint (Fig. 18).
  size_t MemoryBytes() const;

  bool store_locations() const { return store_locations_; }

  /// Serializes the trie node-by-node (children + postings verbatim), so a
  /// warm start deserializes the exact structure instead of re-enumerating
  /// features from the graphs.
  void Save(snapshot::BinaryWriter& writer) const;

  /// Restores a trie saved by Save(), replacing this object's contents
  /// (including the store_locations flag). `num_graphs` bounds the posting
  /// graph ids; when `graphs` is non-empty (the indexed dataset, size
  /// num_graphs), stored locations are additionally bounds-checked against
  /// each graph's vertex count — callers that consume locations (Grapes
  /// verification) must pass it. Any out-of-range id, child index, or
  /// location, or non-ascending ordering, makes it return false, in which
  /// case the trie is left unchanged.
  bool Load(snapshot::BinaryReader& reader, uint32_t num_graphs,
            std::span<const Graph> graphs = {});

 private:
  struct Node {
    // Sorted (label, child node index) pairs.
    std::vector<std::pair<Label, uint32_t>> children;
    std::vector<PathPosting> postings;
  };
  /// One node's location info, kept apart from Node so that tries without
  /// locations pay nothing for it: posting i's start vertices are
  /// starts[ends[i-1], ends[i]), with ends[-1] read as 0.
  struct NodeLocations {
    std::vector<uint32_t> ends;
    std::vector<VertexId> starts;
  };

  uint32_t DescendOrCreate(PathKey key);
  int64_t DescendConst(PathKey key) const;
  std::span<const VertexId> PostingLocations(size_t node, size_t index) const;

  bool store_locations_;
  std::vector<Node> nodes_;
  /// Parallel to nodes_ when store_locations_, empty otherwise.
  std::vector<NodeLocations> locations_;
  size_t num_features_ = 0;
};

}  // namespace igq

#endif  // IGQ_METHODS_PATH_TRIE_H_
