// Flat, read-only view of a Graph laid out for the matching hot path:
// CSR offset+neighbor arrays (one cache-friendly allocation instead of a
// vector-of-vectors), a per-vertex label array, a label-partitioned vertex
// index so seed candidates for a pattern vertex are a contiguous range
// instead of a full vertex scan, and an adaptive edge oracle — a bitset
// adjacency matrix for small/dense targets, sorted-range binary search
// otherwise (docs/PERFORMANCE.md describes the crossover heuristic).
//
// Views are value types with reusable storage: Assign() rebuilds the view
// in place, retaining previously grown capacity, so a MatchContext can
// re-point its scratch view at one candidate graph after another without
// touching the allocator.
#ifndef IGQ_GRAPH_CSR_VIEW_H_
#define IGQ_GRAPH_CSR_VIEW_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace igq {

/// CSR snapshot of a Graph. Not updated when the source graph changes;
/// callers Assign() again. Copyable/movable; safe for concurrent reads.
class CsrGraphView {
 public:
  /// TargetView concept: this view can answer VerticesWithLabel, so the
  /// matching core seeds root candidates from a label bucket instead of a
  /// full vertex scan.
  static constexpr bool kHasLabelIndex = true;

  /// Which HasEdge implementation a view uses.
  enum class EdgeOracle : uint8_t {
    kAuto,         // pick by the size/density crossover heuristic
    kSortedRange,  // binary search the CSR neighbor range
    kBitset        // O(1) probe of an n x n bit matrix
  };

  CsrGraphView() = default;
  explicit CsrGraphView(const Graph& g, EdgeOracle oracle = EdgeOracle::kAuto) {
    Assign(g, oracle);
  }

  /// Rebuilds the view over `g` in place, reusing existing capacity.
  void Assign(const Graph& g, EdgeOracle oracle = EdgeOracle::kAuto);

  size_t NumVertices() const { return labels_.size(); }
  size_t NumEdges() const { return neighbors_.size() / 2; }

  Label label(VertexId v) const { return labels_[v]; }

  uint32_t Degree(VertexId v) const { return offsets_[v + 1] - offsets_[v]; }

  /// Sorted neighbor range of `v` (ascending vertex id, as in Graph).
  std::span<const VertexId> Neighbors(VertexId v) const {
    return {neighbors_.data() + offsets_[v],
            neighbors_.data() + offsets_[v + 1]};
  }

  /// All vertices carrying `label`, ascending by id; empty if the label does
  /// not occur. O(log L) bucket lookup, O(1) per returned vertex — the seed
  /// candidate generator of the matching core.
  std::span<const VertexId> VerticesWithLabel(Label label) const;

  /// Number of distinct labels present.
  size_t NumDistinctLabels() const { return bucket_labels_.size(); }

  /// True iff the undirected edge {u, v} exists. O(1) with the bitset
  /// oracle, O(log min(deg u, deg v)) with the sorted-range oracle.
  bool HasEdge(VertexId u, VertexId v) const {
    if (words_per_row_ != 0) {
      return (bits_[static_cast<size_t>(u) * words_per_row_ + (v >> 6)] >>
              (v & 63)) &
             1u;
    }
    const uint32_t du = Degree(u), dv = Degree(v);
    const VertexId probe = du <= dv ? u : v;
    const VertexId needle = du <= dv ? v : u;
    const VertexId* first = neighbors_.data() + offsets_[probe];
    const VertexId* last = neighbors_.data() + offsets_[probe + 1];
    // Branchless-friendly binary search over the flat range.
    while (first < last) {
      const VertexId* mid = first + (last - first) / 2;
      if (*mid < needle) {
        first = mid + 1;
      } else if (*mid > needle) {
        last = mid;
      } else {
        return true;
      }
    }
    return false;
  }

  /// True iff this view answers HasEdge from the bitset adjacency matrix.
  bool uses_bitset() const { return words_per_row_ != 0; }

  /// Heap footprint of the view's arrays (capacity, since the buffers are
  /// deliberately kept warm across Assign calls).
  size_t MemoryBytes() const;

  /// The kAuto crossover rule, exposed for tests and the micro benches:
  /// bitset when the matrix stays tiny outright, or when the graph is dense
  /// enough that per-probe O(1) beats the O(n^2/64) clear amortized over
  /// the probes a search makes.
  static bool WantsBitset(size_t num_vertices, size_t num_edges) {
    if (num_vertices == 0) return false;
    if (num_vertices <= kBitsetSmallVertices) return true;
    return num_vertices <= kBitsetMaxVertices &&
           2 * num_edges >= kBitsetMinAvgDegree * num_vertices;
  }

  static constexpr size_t kBitsetSmallVertices = 256;
  static constexpr size_t kBitsetMaxVertices = 2048;
  static constexpr size_t kBitsetMinAvgDegree = 8;

 private:
  std::vector<uint32_t> offsets_;    // n + 1
  std::vector<VertexId> neighbors_;  // 2m, sorted within each vertex range
  std::vector<Label> labels_;        // n

  // Label partition: bucket_labels_ holds the distinct labels sorted
  // ascending; bucket k owns bucket_vertices_[bucket_offsets_[k] ..
  // bucket_offsets_[k+1]), ascending by vertex id.
  std::vector<Label> bucket_labels_;
  std::vector<uint32_t> bucket_offsets_;
  std::vector<VertexId> bucket_vertices_;
  std::vector<uint32_t> bucket_cursor_;  // Assign() scratch, kept warm
  std::vector<uint32_t> bucket_of_;      // Assign() scratch, kept warm

  // Bitset adjacency matrix (row-major, words_per_row_ 64-bit words per
  // vertex); words_per_row_ == 0 means the sorted-range oracle is active.
  size_t words_per_row_ = 0;
  std::vector<uint64_t> bits_;
};

/// Precomputed views for a whole graph collection — dataset graphs are
/// verified by every query that survives filtering, so their CSR layout is
/// built ONCE (at method Build/LoadIndex time) and amortized across all of
/// them. Immutable after Build; concurrent reads are safe.
class CsrViewStore {
 public:
  void Build(std::span<const Graph> graphs) {
    views_.resize(graphs.size());
    for (size_t i = 0; i < graphs.size(); ++i) views_[i].Assign(graphs[i]);
  }
  /// Appends one view at the next index — the incremental-maintenance hook
  /// (Method::OnAddGraph): ids only ever grow, so an added graph extends
  /// the store in place instead of forcing a full rebuild. Requires
  /// exclusive access, like Build.
  void Append(const Graph& graph) { views_.emplace_back().Assign(graph); }

  void Clear() { views_.clear(); }
  bool empty() const { return views_.empty(); }
  size_t size() const { return views_.size(); }
  const CsrGraphView& view(size_t index) const { return views_[index]; }
  size_t MemoryBytes() const {
    size_t bytes = sizeof(*this);
    for (const CsrGraphView& v : views_) bytes += v.MemoryBytes();
    return bytes;
  }

 private:
  std::vector<CsrGraphView> views_;
};

}  // namespace igq

#endif  // IGQ_GRAPH_CSR_VIEW_H_
