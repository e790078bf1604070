#include "features/canonical.h"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace igq {
namespace {

// AHU encoding of the subtree rooted at `v` (coming from `parent`):
// "(<label>" + sorted child encodings + ")".
std::string EncodeRooted(const Graph& tree, VertexId v, VertexId parent) {
  std::vector<std::string> children;
  for (VertexId w : tree.Neighbors(v)) {
    if (w != parent) children.push_back(EncodeRooted(tree, w, v));
  }
  std::sort(children.begin(), children.end());
  std::string out = "(";
  out += std::to_string(tree.label(v));
  for (const std::string& child : children) out += child;
  out += ")";
  return out;
}

// Returns the 1 or 2 centers of the tree (vertices minimizing eccentricity),
// found by iteratively peeling leaves.
std::vector<VertexId> TreeCenters(const Graph& tree) {
  const size_t n = tree.NumVertices();
  if (n == 0) return {};
  if (n == 1) return {0};
  std::vector<size_t> degree(n);
  std::vector<VertexId> leaves;
  for (VertexId v = 0; v < n; ++v) {
    degree[v] = tree.Degree(v);
    if (degree[v] <= 1) leaves.push_back(v);
  }
  size_t remaining = n;
  std::vector<VertexId> current = leaves;
  while (remaining > 2) {
    remaining -= current.size();
    std::vector<VertexId> next;
    for (VertexId leaf : current) {
      for (VertexId w : tree.Neighbors(leaf)) {
        if (--degree[w] == 1) next.push_back(w);
      }
      degree[leaf] = 0;
    }
    current = std::move(next);
  }
  return current;
}

}  // namespace

std::string TreeCanonicalForm(const Graph& tree) {
  if (tree.NumVertices() == 0) return "()";
  std::vector<VertexId> centers = TreeCenters(tree);
  std::string best;
  for (VertexId center : centers) {
    std::string enc = EncodeRooted(tree, center, center);
    if (best.empty() || enc < best) best = std::move(enc);
  }
  return best;
}

namespace {

// Individualization-refinement search state for GraphCanonicalCode. Colors
// are dense ranks 0..k-1; the ordering of color classes is canonical (it is
// derived from sorted invariants only), so "first smallest non-singleton
// cell" is an isomorphism-invariant branching target.
class CanonicalSearch {
 public:
  explicit CanonicalSearch(const Graph& graph) : graph_(graph) {}

  std::string Run() {
    const size_t n = graph_.NumVertices();
    std::vector<uint32_t> colors(n);
    for (VertexId v = 0; v < n; ++v) colors[v] = graph_.label(v);
    RankDense(&colors);
    Search(std::move(colors));
    return std::move(best_);
  }

 private:
  // Replaces arbitrary color values with their dense ranks, preserving
  // order: equal values share a rank, smaller values get smaller ranks.
  static void RankDense(std::vector<uint32_t>* colors) {
    std::vector<uint32_t> sorted(*colors);
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    for (uint32_t& color : *colors) {
      color = static_cast<uint32_t>(
          std::lower_bound(sorted.begin(), sorted.end(), color) -
          sorted.begin());
    }
  }

  // Exact refinement to a stable partition: each round re-ranks vertices by
  // (current color, sorted multiset of neighbor colors) until the number of
  // classes stops growing. No hashing — signatures are compared directly,
  // so distinct signatures can never collapse into one class.
  void Refine(std::vector<uint32_t>* colors) const {
    const size_t n = colors->size();
    using Signature = std::pair<uint32_t, std::vector<uint32_t>>;
    std::vector<Signature> signatures(n);
    std::vector<uint32_t> order(n);
    size_t num_classes = 0;
    for (;;) {
      for (VertexId v = 0; v < n; ++v) {
        Signature& sig = signatures[v];
        sig.first = (*colors)[v];
        sig.second.clear();
        for (VertexId w : graph_.Neighbors(v)) {
          sig.second.push_back((*colors)[w]);
        }
        std::sort(sig.second.begin(), sig.second.end());
      }
      for (VertexId v = 0; v < n; ++v) order[v] = v;
      std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
        return signatures[a] < signatures[b];
      });
      size_t fresh_classes = 0;
      for (size_t i = 0; i < n; ++i) {
        if (i > 0 && signatures[order[i]] != signatures[order[i - 1]]) {
          ++fresh_classes;
        }
        (*colors)[order[i]] = static_cast<uint32_t>(fresh_classes);
      }
      if (n > 0) ++fresh_classes;  // classes = last rank + 1
      if (fresh_classes == num_classes) return;  // stable partition
      num_classes = fresh_classes;
    }
  }

  void Search(std::vector<uint32_t> colors) {
    Refine(&colors);
    const size_t n = colors.size();

    // Smallest non-singleton cell (ties: smallest color). SIZE_MAX when the
    // partition is discrete.
    std::vector<uint32_t> class_size(n, 0);
    for (uint32_t color : colors) ++class_size[color];
    uint32_t target_color = 0;
    size_t target_size = SIZE_MAX;
    for (uint32_t c = 0; c < n; ++c) {
      if (class_size[c] > 1 && class_size[c] < target_size) {
        target_color = c;
        target_size = class_size[c];
      }
    }
    if (target_size == SIZE_MAX) {
      std::string code = EncodeDiscrete(colors);
      if (best_.empty() || code < best_) best_ = std::move(code);
      return;
    }

    // Individualize each member of the target cell in turn: the chosen
    // vertex gets a rank just below its classmates, then refinement runs
    // again. Doubling preserves the relative order of every other class.
    // A member that is a twin of one already tried is skipped: swapping
    // the two is an automorphism that fixes this coloring, so its branch
    // yields the same leaf codes. Without this, k same-label leaves of one
    // vertex (or a same-label clique) cost k! branches.
    std::vector<VertexId> tried;
    for (VertexId v = 0; v < n; ++v) {
      if (colors[v] != target_color) continue;
      if (std::any_of(tried.begin(), tried.end(),
                      [&](VertexId t) { return Twins(t, v); })) {
        continue;
      }
      tried.push_back(v);
      std::vector<uint32_t> child(colors);
      for (VertexId u = 0; u < n; ++u) {
        child[u] = child[u] * 2 + (u == v ? 0 : 1);
      }
      RankDense(&child);
      Search(std::move(child));
    }
  }

  // True when N(a) \ {b} == N(b) \ {a}, over the sorted adjacency lists.
  bool Twins(VertexId a, VertexId b) const {
    const std::vector<VertexId>& na = graph_.Neighbors(a);
    const std::vector<VertexId>& nb = graph_.Neighbors(b);
    auto i = na.begin(), j = nb.begin();
    for (;;) {
      if (i != na.end() && *i == b) ++i;
      if (j != nb.end() && *j == a) ++j;
      if (i == na.end() || j == nb.end()) {
        return i == na.end() && j == nb.end();
      }
      if (*i++ != *j++) return false;
    }
  }

  // With a discrete coloring, color[v] IS the canonical position of v.
  std::string EncodeDiscrete(const std::vector<uint32_t>& colors) const {
    const size_t n = colors.size();
    std::vector<VertexId> at_position(n);  // canonical position -> vertex
    for (VertexId v = 0; v < n; ++v) at_position[colors[v]] = v;
    std::string code;
    code.reserve(4 * (2 + n + 2 * graph_.NumEdges()));
    auto put_u32 = [&code](uint32_t value) {
      code.push_back(static_cast<char>(value & 0xff));
      code.push_back(static_cast<char>((value >> 8) & 0xff));
      code.push_back(static_cast<char>((value >> 16) & 0xff));
      code.push_back(static_cast<char>((value >> 24) & 0xff));
    };
    put_u32(static_cast<uint32_t>(n));
    put_u32(static_cast<uint32_t>(graph_.NumEdges()));
    for (size_t p = 0; p < n; ++p) put_u32(graph_.label(at_position[p]));
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    edges.reserve(graph_.NumEdges());
    for (VertexId v = 0; v < n; ++v) {
      for (VertexId w : graph_.Neighbors(v)) {
        if (v < w) {
          edges.emplace_back(std::min(colors[v], colors[w]),
                             std::max(colors[v], colors[w]));
        }
      }
    }
    std::sort(edges.begin(), edges.end());
    for (const auto& [a, b] : edges) {
      put_u32(a);
      put_u32(b);
    }
    return code;
  }

  const Graph& graph_;
  std::string best_;
};

}  // namespace

std::string GraphCanonicalCode(const Graph& graph) {
  return CanonicalSearch(graph).Run();
}

std::string CycleCanonicalForm(const std::vector<Label>& cycle_labels) {
  const size_t n = cycle_labels.size();
  std::vector<Label> best = cycle_labels;
  std::vector<Label> candidate(n);
  // All rotations, both directions.
  for (int direction = 0; direction < 2; ++direction) {
    for (size_t shift = 0; shift < n; ++shift) {
      for (size_t i = 0; i < n; ++i) {
        const size_t index = direction == 0 ? (shift + i) % n
                                            : (shift + n - i) % n;
        candidate[i] = cycle_labels[index];
      }
      if (candidate < best) best = candidate;
    }
  }
  std::string out = "c";
  for (Label label : best) {
    out += ":";
    out += std::to_string(label);
  }
  return out;
}

}  // namespace igq
