// The probe index — iGQ's Isub and Isuper components (§4.2, §6.1–§6.2,
// Algorithms 1–2) over one shard's cached query graphs. Given a new query
// g, Isub returns the cached G with g ⊆ G and Isuper the cached G with
// G ⊆ g. Both filter on ONE feature trie (their postings are identical):
// Isub through the counting filter the host path methods use, Isuper
// through Algorithm 2's NF tally. Candidates are verified with the match
// core, so assumptions (1) and (2) hold by construction.
//
// Everything the index needs of an entry is that entry's ProbeData, built
// once when the entry is created. A rebuild (the §5.2 shadow rebuild at a
// flush) only files stored features into a fresh trie: it enumerates no
// paths and builds no view or plan.
#ifndef IGQ_IGQ_PROBE_INDEX_H_
#define IGQ_IGQ_PROBE_INDEX_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "features/feature_set.h"
#include "features/path_enumerator.h"
#include "graph/csr_view.h"
#include "igq/query_record.h"
#include "isomorphism/match_core.h"
#include "methods/feature_count_index.h"

namespace igq {

/// What the probe index needs of one cached query graph. Immutable once
/// built, so the entry and every index built over it share it, and probes
/// may read it while a flush files it into a fresh index.
struct ProbeData {
  /// The graph's path features, key-ascending (the trie's posting order).
  SortedPathFeatures features;
  /// Isub's verification target: does the cached graph contain the query?
  CsrGraphView view;
  /// Isuper's verification pattern: is the cached graph in the query?
  MatchPlan plan;

  size_t MemoryBytes() const;
};

/// Builds `graph`'s probe data from `features`, its path features under the
/// probe index's enumerator options.
std::shared_ptr<const ProbeData> MakeProbeData(
    const Graph& graph, const PathFeatureCounts& features);

/// Isub + Isuper over the cached query graphs.
///
/// Thread-safety: immutable after Build(). Both Find methods are const and
/// safe from any number of threads concurrently; Build() (and moving the
/// index) requires exclusive access. The sharded cache relies on exactly
/// this split — concurrent probes under shard-shared locks, fresh instances
/// built off-lock and swapped in exclusively (docs/CONCURRENCY.md).
class ProbeIndex {
 public:
  explicit ProbeIndex(const PathEnumeratorOptions& options = {})
      : index_(options) {}

  /// (Re)builds the index over `cached`, every entry of which carries probe
  /// data computed under this index's enumerator options. The index shares
  /// that data, so it does not refer to `cached` afterwards; its positions
  /// stay `cached`'s.
  void Build(const std::vector<std::shared_ptr<CachedQuery>>& cached);

  /// Isub: positions (into the Build() vector) of cached queries G with
  /// query ⊆ G. `query_features` must use the same enumerator options.
  /// Isuper, FindSubgraphsOf: positions of cached queries G with G ⊆ query.
  /// Both fill `result` (cleared first, capacity reused), accumulate the
  /// number of verification tests run into `probe_tests` (optional), and —
  /// with every intermediate in the calling thread's IdSetScratch and
  /// MatchContext — perform zero heap allocations in steady state
  /// (`bench_micro_core --smoke`).
  void FindSupergraphsOf(const Graph& query,
                         const PathFeatureCounts& query_features,
                         std::vector<size_t>* result,
                         size_t* probe_tests = nullptr) const;
  void FindSubgraphsOf(const Graph& query,
                       const PathFeatureCounts& query_features,
                       std::vector<size_t>* result,
                       size_t* probe_tests = nullptr) const;

  /// The trie and NF table plus the probe data of every indexed entry.
  size_t MemoryBytes() const;

 private:
  FeatureCountIndex index_;
  /// The indexed entries' probe data, by position.
  std::vector<std::shared_ptr<const ProbeData>> probes_;
};

}  // namespace igq

#endif  // IGQ_IGQ_PROBE_INDEX_H_
