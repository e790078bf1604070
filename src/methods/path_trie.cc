#include "methods/path_trie.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "common/id_set.h"
#include "serving/budget.h"
#include "snapshot/serializer.h"

namespace igq {
namespace {

/// One term of a containment query: a feature's postings and the count a
/// graph's posting must reach.
struct ContainmentTerm {
  std::span<const PathPosting> postings;
  uint32_t min_count = 0;
};

/// Galloping lower bound over postings: the first position in
/// [lo, postings.size()) whose graph id is >= `id`, by doubling probes from
/// `lo` and a binary search in the last gap — O(log distance), the same
/// probe IdSet's skewed intersections use.
size_t GallopToGraph(std::span<const PathPosting> postings, size_t lo,
                     GraphId id) {
  size_t step = 1;
  size_t hi = lo;
  while (hi < postings.size() && postings[hi].graph_id < id) {
    lo = hi + 1;
    hi += step;
    step <<= 1;
  }
  hi = std::min(hi, postings.size());
  return static_cast<size_t>(
      std::lower_bound(postings.begin() + static_cast<ptrdiff_t>(lo),
                       postings.begin() + static_cast<ptrdiff_t>(hi), id,
                       [](const PathPosting& p, GraphId g) {
                         return p.graph_id < g;
                       }) -
      postings.begin());
}

}  // namespace

uint32_t PathTrie::DescendOrCreate(PathKey key) {
  const size_t length = PathKeyLength(key);
  uint32_t node = 0;
  for (size_t i = 0; i < length; ++i) {
    const Label label = PathKeyLabelAt(key, i);
    auto& children = nodes_[node].children;
    auto it = std::lower_bound(
        children.begin(), children.end(), label,
        [](const auto& entry, Label l) { return entry.first < l; });
    if (it != children.end() && it->first == label) {
      node = it->second;
    } else {
      const uint32_t fresh = static_cast<uint32_t>(nodes_.size());
      // Note: nodes_.emplace_back() may invalidate `children`; insert first.
      nodes_[node].children.insert(it, {label, fresh});
      nodes_.emplace_back();
      if (store_locations_) locations_.emplace_back();
      node = fresh;
    }
  }
  return node;
}

// Walks the packed key directly (PathKeyLabelAt) — Find() sits on every
// filter and probe hot path, and unpacking into a vector here used to be
// the one allocation a steady-state trie lookup performed.
int64_t PathTrie::DescendConst(PathKey key) const {
  const size_t length = PathKeyLength(key);
  uint32_t node = 0;
  for (size_t i = 0; i < length; ++i) {
    const Label label = PathKeyLabelAt(key, i);
    const auto& children = nodes_[node].children;
    auto it = std::lower_bound(
        children.begin(), children.end(), label,
        [](const auto& entry, Label l) { return entry.first < l; });
    if (it == children.end() || it->first != label) return -1;
    node = it->second;
  }
  return node;
}

void PathTrie::Add(PathKey key, uint32_t graph_id, uint32_t count,
                   const std::vector<VertexId>* locations) {
  const uint32_t node = DescendOrCreate(key);
  auto& postings = nodes_[node].postings;
  if (postings.empty()) ++num_features_;
  postings.push_back({graph_id, count});
  if (!store_locations_) return;
  // Appending grows the node's one flat array geometrically, so a build
  // copies each location O(1) times amortized; a span that does not arrive
  // sorted and unique (Build's do) is then sorted and deduplicated in place.
  NodeLocations& node_locations = locations_[node];
  std::vector<VertexId>& starts = node_locations.starts;
  if (locations != nullptr) {
    const auto first = starts.insert(starts.end(), locations->begin(),
                                     locations->end());
    if (std::adjacent_find(first, starts.end(), std::greater_equal<>()) !=
        starts.end()) {
      std::sort(first, starts.end());
      starts.erase(std::unique(first, starts.end()), starts.end());
    }
  }
  node_locations.ends.push_back(static_cast<uint32_t>(starts.size()));
}

const std::vector<PathPosting>* PathTrie::Find(PathKey key) const {
  const int64_t node = DescendConst(key);
  if (node < 0) return nullptr;
  const auto& postings = nodes_[static_cast<size_t>(node)].postings;
  return postings.empty() ? nullptr : &postings;
}

std::span<const VertexId> PathTrie::PostingLocations(size_t node,
                                                     size_t index) const {
  const NodeLocations& node_locations = locations_[node];
  const uint32_t begin = index == 0 ? 0 : node_locations.ends[index - 1];
  return std::span<const VertexId>(node_locations.starts)
      .subspan(begin, node_locations.ends[index] - begin);
}

std::span<const VertexId> PathTrie::Locations(PathKey key,
                                              uint32_t graph_id) const {
  if (!store_locations_) return {};
  const int64_t node = DescendConst(key);
  if (node < 0) return {};
  const auto& postings = nodes_[static_cast<size_t>(node)].postings;
  const auto it = std::lower_bound(postings.begin(), postings.end(), graph_id,
                                   [](const PathPosting& p, uint32_t g) {
                                     return p.graph_id < g;
                                   });
  if (it == postings.end() || it->graph_id != graph_id) return {};
  return PostingLocations(static_cast<size_t>(node),
                          static_cast<size_t>(it - postings.begin()));
}

void PathTrie::FindContainingAll(const PathFeatureCounts& features,
                                 size_t universe,
                                 serving::QueryControl* control,
                                 std::vector<GraphId>* out) const {
  out->clear();
  // This thread's term list: concurrent serving streams filter at once,
  // and a steady-state probe must not allocate.
  thread_local std::vector<ContainmentTerm> terms;
  terms.clear();
  for (const auto& [key, min_count] : features) {
    const std::vector<PathPosting>* postings = Find(key);
    if (postings == nullptr) return;  // feature absent from every graph
    terms.push_back({*postings, min_count});
  }
  if (terms.empty()) return;
  // Rarest first: the shortest list bounds the result, and every later
  // list can only narrow it.
  std::sort(terms.begin(), terms.end(),
            [](const ContainmentTerm& a, const ContainmentTerm& b) {
              return a.postings.size() < b.postings.size();
            });
  const auto stopped = [control, out] {
    if (control == nullptr || !control->CheckNow()) return false;
    out->clear();
    return true;
  };
  if (stopped()) return;
  for (const PathPosting& posting : terms[0].postings) {
    if (posting.count >= terms[0].min_count) out->push_back(posting.graph_id);
  }
  if (IdSet::WantsBitmap(out->size(), universe)) {
    // Dense seed: probing would touch most of every list anyway, so tally
    // the rest in one streaming pass each (each list holds a graph at most
    // once) and keep the seed ids every list matched. The add is
    // branch-free: a count test per posting mispredicts often enough to
    // double the pass.
    std::vector<uint32_t>& tally =
        IdSetScratch::ThreadLocal().Tally(universe);
    for (size_t t = 1; t < terms.size(); ++t) {
      if (stopped()) return;
      const uint32_t min_count = terms[t].min_count;
      for (const PathPosting& posting : terms[t].postings) {
        tally[posting.graph_id] += posting.count >= min_count ? 1 : 0;
      }
    }
    const uint32_t required = static_cast<uint32_t>(terms.size() - 1);
    std::erase_if(*out, [&tally, required](GraphId id) {
      return tally[id] != required;
    });
    return;
  }
  // Sparse seed: narrow it in place list by list — the survivors of a list
  // are a subsequence of the running set — galloping through lists much
  // longer than it and merge-walking the rest.
  for (size_t t = 1; t < terms.size() && !out->empty(); ++t) {
    if (stopped()) return;
    const std::span<const PathPosting> postings = terms[t].postings;
    const uint32_t min_count = terms[t].min_count;
    const bool gallop = postings.size() > out->size() * IdSet::kGallopSkew;
    size_t kept = 0;
    size_t pos = 0;
    for (const GraphId id : *out) {
      if (gallop) {
        pos = GallopToGraph(postings, pos, id);
      } else {
        while (pos < postings.size() && postings[pos].graph_id < id) ++pos;
      }
      if (pos == postings.size()) break;
      if (postings[pos].graph_id == id && postings[pos].count >= min_count) {
        (*out)[kept++] = id;
      }
    }
    out->resize(kept);
  }
}

void PathTrie::Save(snapshot::BinaryWriter& writer) const {
  writer.WriteU8(store_locations_ ? 1 : 0);
  writer.WriteU64(nodes_.size());
  for (size_t n = 0; n < nodes_.size(); ++n) {
    const Node& node = nodes_[n];
    writer.WriteU32(static_cast<uint32_t>(node.children.size()));
    for (const auto& [label, child] : node.children) {
      writer.WriteU32(label);
      writer.WriteU32(child);
    }
    writer.WriteU32(static_cast<uint32_t>(node.postings.size()));
    for (size_t p = 0; p < node.postings.size(); ++p) {
      writer.WriteU32(node.postings[p].graph_id);
      writer.WriteU32(node.postings[p].count);
      if (store_locations_) {
        const std::span<const VertexId> starts = PostingLocations(n, p);
        writer.WriteU32(static_cast<uint32_t>(starts.size()));
        for (VertexId location : starts) writer.WriteU32(location);
      }
    }
  }
}

bool PathTrie::Load(snapshot::BinaryReader& reader, uint32_t num_graphs,
                    std::span<const Graph> graphs) {
  // Parse into fresh storage and commit only on success, so a failed load
  // leaves the existing structure untouched.
  uint8_t store_locations = 0;
  uint64_t num_nodes = 0;
  if (!reader.ReadU8(&store_locations) || !reader.ReadU64(&num_nodes) ||
      num_nodes == 0) {
    return false;
  }
  std::vector<Node> nodes;
  std::vector<NodeLocations> locations;
  size_t num_features = 0;
  for (uint64_t n = 0; n < num_nodes; ++n) {
    Node node;
    NodeLocations node_locations;
    uint32_t num_children = 0;
    if (!reader.ReadU32(&num_children)) return false;
    node.children.reserve(std::min<uint32_t>(num_children, 1024));
    Label previous_label = 0;
    for (uint32_t c = 0; c < num_children; ++c) {
      uint32_t label = 0, child = 0;
      if (!reader.ReadU32(&label) || !reader.ReadU32(&child)) return false;
      // Children must be sorted strictly ascending (Find binary-searches
      // them) and may only point at later, in-range nodes.
      if (c > 0 && label <= previous_label) return false;
      if (child <= n || child >= num_nodes) return false;
      previous_label = label;
      node.children.emplace_back(label, child);
    }
    uint32_t num_postings = 0;
    if (!reader.ReadU32(&num_postings)) return false;
    node.postings.reserve(std::min<uint32_t>(num_postings, 1024));
    for (uint32_t p = 0; p < num_postings; ++p) {
      PathPosting posting;
      if (!reader.ReadU32(&posting.graph_id) || !reader.ReadU32(&posting.count)) {
        return false;
      }
      if (posting.graph_id >= num_graphs) return false;
      if (p > 0 && posting.graph_id <= node.postings[p - 1].graph_id) {
        return false;  // strictly ascending: no duplicate postings
      }
      if (store_locations != 0) {
        std::vector<VertexId>& starts = node_locations.starts;
        const size_t begin = starts.size();
        uint32_t num_locations = 0;
        if (!reader.ReadU32(&num_locations)) return false;
        for (uint32_t l = 0; l < num_locations; ++l) {
          uint32_t location = 0;
          if (!reader.ReadU32(&location)) return false;
          // Locations are vertex ids of graphs[graph_id]; consumers index
          // with them unchecked, so validate here when we can.
          if (!graphs.empty() &&
              location >= graphs[posting.graph_id].NumVertices()) {
            return false;
          }
          if (starts.size() > begin && location <= starts.back()) {
            return false;  // Add() stores them sorted and deduplicated
          }
          starts.push_back(location);
        }
        // Offsets are u32: a node's locations must stay addressable.
        if (starts.size() > std::numeric_limits<uint32_t>::max()) return false;
        node_locations.ends.push_back(static_cast<uint32_t>(starts.size()));
      }
      node.postings.push_back(posting);
    }
    if (!node.postings.empty()) ++num_features;
    nodes.push_back(std::move(node));
    if (store_locations != 0) locations.push_back(std::move(node_locations));
  }
  store_locations_ = store_locations != 0;
  nodes_ = std::move(nodes);
  locations_ = std::move(locations);
  num_features_ = num_features;
  return true;
}

size_t PathTrie::MemoryBytes() const {
  size_t bytes = sizeof(*this) + nodes_.capacity() * sizeof(Node) +
                 locations_.capacity() * sizeof(NodeLocations);
  for (const Node& node : nodes_) {
    bytes += node.children.capacity() * sizeof(std::pair<Label, uint32_t>);
    bytes += node.postings.capacity() * sizeof(PathPosting);
  }
  for (const NodeLocations& node_locations : locations_) {
    bytes += node_locations.ends.capacity() * sizeof(uint32_t) +
             node_locations.starts.capacity() * sizeof(VertexId);
  }
  return bytes;
}

}  // namespace igq
