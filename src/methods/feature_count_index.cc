#include "methods/feature_count_index.h"

#include <algorithm>

#include "isomorphism/match_core.h"
#include "serving/budget.h"
#include "snapshot/serializer.h"

namespace igq {
namespace {

/// Payload version of the serialized method indexes in this file.
constexpr uint32_t kFeatureCountIndexVersion = 1;

}  // namespace

void FeatureCountIndex::AddGraph(GraphId id, const Graph& graph) {
  AddGraph(id, SortPathFeatures(CountPathFeatures(graph, options_)));
}

void FeatureCountIndex::AddGraph(GraphId id,
                                 const SortedPathFeatures& features) {
  // Key order, so trie postings are appended deterministically.
  for (const auto& [key, count] : features) {
    trie_.Add(key, id, count);
  }
  if (nf_.size() <= id) nf_.resize(static_cast<size_t>(id) + 1, kNotIndexed);
  // NF 0 (a zero-vertex graph) is meaningful: the tally scan below surfaces
  // it as a candidate of every query, which is the vacuous-containment rule.
  nf_[id] = static_cast<uint32_t>(features.size());
  ++num_indexed_;
}

std::vector<GraphId> FeatureCountIndex::FindPotentialSubgraphsOf(
    const Graph& query) const {
  return FindPotentialSubgraphsOf(CountPathFeatures(query, options_));
}

std::vector<GraphId> FeatureCountIndex::FindPotentialSubgraphsOf(
    const PathFeatureCounts& query_features) const {
  std::vector<GraphId> candidates;
  FindPotentialSubgraphsOf(query_features, &candidates);
  return candidates;
}

void FeatureCountIndex::FindPotentialSubgraphsOf(
    const PathFeatureCounts& query_features, std::vector<GraphId>* out) const {
  // Algorithm 2: count, per indexed graph gi, how many of the query's
  // features f satisfy occurrences(f, gi) <= occurrences(f, query); gi is a
  // candidate iff that tally equals NF[gi] (all of gi's features are covered
  // by the query with sufficient multiplicity). The tally is a dense
  // scratch array indexed by graph id — one zero-fill plus one posting
  // pass, no hashing — and the final scan walks ids ascending, so the
  // candidate list needs no sort. kNotIndexed can never equal a tally.
  out->clear();
  if (nf_.empty()) return;
  std::vector<uint32_t>& tally = IdSetScratch::ThreadLocal().Tally(nf_.size());
  for (const auto& [key, query_count] : query_features) {
    const std::vector<PathPosting>* postings = trie_.Find(key);
    if (postings == nullptr) continue;
    for (const PathPosting& posting : *postings) {
      if (posting.count <= query_count) ++tally[posting.graph_id];
    }
  }
  for (size_t id = 0; id < nf_.size(); ++id) {
    if (tally[id] == nf_[id]) out->push_back(static_cast<GraphId>(id));
  }
}

void FeatureCountIndex::FindPotentialSupergraphsOf(
    const PathFeatureCounts& query_features, std::vector<GraphId>* out) const {
  // A candidate must contain every query feature at least as often as the
  // query does (the counting filter the host path methods use). Postings
  // are appended in ascending graph id, so each feature's eligible list is
  // sorted and the running set narrows through the galloping intersect
  // kernel; the two swapped-in buffers are this thread's scratch.
  out->clear();
  IdSetScratch& scratch = IdSetScratch::ThreadLocal();
  std::vector<GraphId>& eligible = scratch.ids_b();
  std::vector<GraphId>& merged = scratch.ids_c();
  bool first = true;
  for (const auto& [key, query_count] : query_features) {
    const std::vector<PathPosting>* postings = trie_.Find(key);
    if (postings == nullptr) {
      out->clear();
      return;
    }
    eligible.clear();
    for (const PathPosting& posting : *postings) {
      if (posting.count >= query_count) eligible.push_back(posting.graph_id);
    }
    if (first) {
      std::swap(*out, eligible);  // O(1) buffer exchange
      first = false;
    } else {
      IntersectSorted(*out, eligible, &merged);
      std::swap(*out, merged);
    }
    if (out->empty()) return;
  }
}

size_t FeatureCountIndex::MemoryBytes() const {
  return trie_.MemoryBytes() + nf_.capacity() * sizeof(uint32_t);
}

void FeatureCountIndex::Save(snapshot::BinaryWriter& writer) const {
  writer.WriteU32(static_cast<uint32_t>(options_.max_edges));
  writer.WriteU8(options_.include_single_vertices ? 1 : 0);
  trie_.Save(writer);
  // NF table in ascending graph-id order (the dense table already is), then
  // the zero-feature list — both byte-identical to the pre-IdSet encoding,
  // which stored the empty-graph list explicitly (docs/FORMATS.md).
  writer.WriteU64(num_indexed_);
  for (size_t id = 0; id < nf_.size(); ++id) {
    if (nf_[id] == kNotIndexed) continue;
    writer.WriteU32(static_cast<uint32_t>(id));
    writer.WriteU32(nf_[id]);
  }
  uint64_t empty_count = 0;
  for (uint32_t count : nf_) empty_count += count == 0 ? 1 : 0;
  writer.WriteU64(empty_count);
  for (size_t id = 0; id < nf_.size(); ++id) {
    if (nf_[id] == 0) writer.WriteU32(static_cast<uint32_t>(id));
  }
}

bool FeatureCountIndex::Load(snapshot::BinaryReader& reader,
                             uint32_t num_graphs) {
  uint32_t max_edges = 0;
  uint8_t include_single = 0;
  if (!reader.ReadU32(&max_edges) || !reader.ReadU8(&include_single)) {
    return false;
  }
  if (max_edges != options_.max_edges ||
      (include_single != 0) != options_.include_single_vertices) {
    return false;  // features would not line up with this configuration
  }
  PathTrie trie(/*store_locations=*/false);
  if (!trie.Load(reader, num_graphs)) return false;
  if (trie.store_locations()) return false;  // this index never stores them
  uint64_t nf_count = 0;
  if (!reader.ReadU64(&nf_count) || nf_count > num_graphs) return false;
  std::vector<uint32_t> nf(num_graphs, kNotIndexed);
  uint64_t zero_feature_graphs = 0;
  for (uint64_t i = 0; i < nf_count; ++i) {
    uint32_t id = 0, count = 0;
    if (!reader.ReadU32(&id) || !reader.ReadU32(&count)) return false;
    if (id >= num_graphs || count == kNotIndexed) return false;
    if (nf[id] != kNotIndexed) return false;  // duplicate NF entry
    nf[id] = count;
    zero_feature_graphs += count == 0 ? 1 : 0;
  }
  // The zero-feature list is redundant next to the NF table (it is exactly
  // the NF == 0 ids); it stays in the format for compatibility and must be
  // consistent — a payload where the two disagree is malformed.
  uint64_t empty_count = 0;
  if (!reader.ReadU64(&empty_count) || empty_count != zero_feature_graphs) {
    return false;
  }
  uint32_t previous_empty = 0;
  for (uint64_t i = 0; i < empty_count; ++i) {
    uint32_t id = 0;
    if (!reader.ReadU32(&id)) return false;
    if (id >= num_graphs || nf[id] != 0) return false;
    if (i > 0 && id <= previous_empty) {
      return false;  // strictly ascending: no duplicate candidates
    }
    previous_empty = id;
  }
  trie_ = std::move(trie);
  nf_ = std::move(nf);
  num_indexed_ = static_cast<size_t>(nf_count);
  return true;
}

void FeatureCountSupergraphMethod::Build(const GraphDatabase& db) {
  db_ = &db;
  // Build may run again over a mutated database (the engines' rebuild
  // fallback); start from an empty index, never accumulate.
  index_ = FeatureCountIndex(index_.options());
  pattern_plans_.clear();
  // Tombstoned graphs are skipped outright: their NF rows stay kNotIndexed
  // (a tally can never reach that value, so they can never filter through)
  // and their pattern plans stay default-constructed (never probed — a
  // non-candidate is never verified). The incremental path reaches the same
  // candidate sets by subtracting the tombstone set in Filter() instead.
  for (GraphId id = 0; id < db.graphs.size(); ++id) {
    if (!db.IsLive(id)) continue;
    index_.AddGraph(id, db.graphs[id]);
  }
  pattern_plans_.resize(db.graphs.size());
  for (GraphId id = 0; id < db.graphs.size(); ++id) {
    if (!db.IsLive(id)) continue;
    pattern_plans_[id].Compile(db.graphs[id]);
  }
}

std::vector<GraphId> FeatureCountSupergraphMethod::Filter(
    const PreparedQuery& prepared) const {
  const auto& pq = static_cast<const PathPreparedQuery&>(prepared);
  // Budget checkpoint at the filter boundary. The tally scan itself is
  // shared with the zero-allocation Isuper probe path, so the poll stays
  // outside it; the scan is two bounded posting passes, not a search.
  serving::QueryControl* control = prepared.control();
  if (control != nullptr && control->CheckNow()) return {};
  std::vector<GraphId> candidates =
      index_.FindPotentialSubgraphsOf(pq.features());
  if (db_ == nullptr || db_->tombstones.empty() || candidates.empty()) {
    return candidates;
  }
  // Removed graphs keep their NF rows until the next full Build; compose
  // with the database's tombstone IdSet so they never surface.
  std::vector<GraphId> live;
  live.reserve(candidates.size());
  db_->tombstone_set.Partition(candidates, /*kept=*/nullptr, &live);
  return live;
}

bool FeatureCountSupergraphMethod::Verify(const PreparedQuery& prepared,
                                          GraphId id) const {
  // Supergraph direction: the stored graph is the pattern, the query the
  // target. Both halves are precompiled — the stored graph's plan at
  // Build() time, the query's CSR view once in Prepare().
  return PlanContains(pattern_plans_[id], prepared.query_view(),
                      MatchContext::ThreadLocal());
}

bool FeatureCountSupergraphMethod::SaveIndex(std::ostream& out) const {
  if (db_ == nullptr) return false;  // never built
  snapshot::BinaryWriter writer(out);
  writer.WriteU32(kFeatureCountIndexVersion);
  index_.Save(writer);
  return writer.ok();
}

bool FeatureCountSupergraphMethod::OnAddGraph(const GraphDatabase& db,
                                              GraphId id) {
  if (db_ != &db) return false;  // built over a different database
  if (static_cast<size_t>(id) + 1 != db.graphs.size() ||
      pattern_plans_.size() != static_cast<size_t>(id)) {
    return false;  // ids must extend the index contiguously
  }
  // `id` is the maximum id ever indexed, so FeatureCountIndex's
  // increasing-id contract holds by construction.
  index_.AddGraph(id, db.graphs[id]);
  pattern_plans_.emplace_back().Compile(db.graphs[id]);
  return true;
}

bool FeatureCountSupergraphMethod::OnRemoveGraph(const GraphDatabase& db,
                                                 GraphId) {
  // Nothing to unindex: the dead graph's NF row stays behind and Filter()
  // subtracts the database's tombstone set.
  return db_ == &db;
}

bool FeatureCountSupergraphMethod::LoadIndex(const GraphDatabase& db,
                                             std::istream& in) {
  snapshot::BinaryReader reader(in);
  uint32_t version = 0;
  if (!reader.ReadU32(&version) || version != kFeatureCountIndexVersion) {
    return false;
  }
  if (!index_.Load(reader, static_cast<uint32_t>(db.graphs.size()))) {
    return false;
  }
  db_ = &db;
  // Derived data, never serialized: recompile the per-graph search plans.
  pattern_plans_.resize(db.graphs.size());
  for (GraphId id = 0; id < db.graphs.size(); ++id) {
    pattern_plans_[id].Compile(db.graphs[id]);
  }
  return true;
}

}  // namespace igq
