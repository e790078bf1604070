// Feature keys and per-graph feature multisets.
//
// The filter-then-verify methods and both iGQ sub-indexes all reduce graphs
// to multisets of *features* (paths, trees, cycles) keyed by a canonical
// form. Path features are the workhorse (GGSX, Grapes, Algorithms 1-2), so
// they get a compact packed-uint64 key; tree/cycle features (CT-Index) use
// canonical strings.
#ifndef IGQ_FEATURES_FEATURE_SET_H_
#define IGQ_FEATURES_FEATURE_SET_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace igq {

/// Packed canonical key for a path feature of up to kMaxPathVertices labels.
/// Layout: byte 0 = vertex count, bytes 1..7 = labels (each must be < 255).
using PathKey = uint64_t;

/// Longest path feature (in vertices) that fits a PathKey.
inline constexpr size_t kMaxPathVertices = 7;

/// Packs a label sequence into a canonical PathKey: the sequence is replaced
/// by min(sequence, reversed sequence) so both traversal directions of an
/// undirected path map to the same key. Labels must be < 255 and
/// labels.size() must be in [1, kMaxPathVertices].
PathKey PackPathKey(const std::vector<Label>& labels);

/// Inverse of PackPathKey (returns the canonical orientation).
std::vector<Label> UnpackPathKey(PathKey key);

/// Number of vertices encoded in `key`.
inline size_t PathKeyLength(PathKey key) { return key & 0xff; }

/// The i-th label of `key` (canonical orientation), i < PathKeyLength(key).
/// Lets hot paths (the trie descents) walk a key without materializing the
/// UnpackPathKey vector.
inline Label PathKeyLabelAt(PathKey key, size_t i) {
  return static_cast<Label>((key >> (8 * (i + 1))) & 0xff) - 1;
}

/// Multiset of path features: canonical key -> number of occurrences.
/// Occurrences count *directed* path instances, so an undirected instance
/// contributes 2 for paths of >= 2 vertices and 1 for single vertices; the
/// convention is applied uniformly to dataset and query graphs, which is all
/// the counting filters require.
using PathFeatureCounts = std::unordered_map<PathKey, uint32_t>;

/// The same multiset as a key-ascending vector: the order feature-trie
/// postings are filed in, and the compact form to keep when a graph's
/// features are stored once and re-indexed many times.
using SortedPathFeatures = std::vector<std::pair<PathKey, uint32_t>>;

/// `counts` in key order.
SortedPathFeatures SortPathFeatures(const PathFeatureCounts& counts);

/// Multiset of string-keyed features (canonical trees / cycles).
using StringFeatureCounts = std::unordered_map<std::string, uint32_t>;

}  // namespace igq

#endif  // IGQ_FEATURES_FEATURE_SET_H_
