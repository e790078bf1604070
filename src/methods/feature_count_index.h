// The paper's supergraph index (Algorithms 1 and 2, §6.2): a feature trie
// storing per-graph occurrence counts plus the number of distinct features
// NF[g] of every indexed graph. Given a query q it returns the graphs all of
// whose features occur in q at least as often — the candidate set of
// potential *subgraphs of q*, with no false negatives.
//
// The same structure serves two roles in this repository:
//   * iGQ's probe index over cached query graphs, where its postings also
//     answer Isub's converse counting filter (FindPotentialSupergraphsOf),
//     and
//   * the baseline supergraph-query method M_super (over dataset graphs).
#ifndef IGQ_METHODS_FEATURE_COUNT_INDEX_H_
#define IGQ_METHODS_FEATURE_COUNT_INDEX_H_

#include <vector>

#include "common/id_set.h"
#include "features/feature_set.h"
#include "features/path_enumerator.h"
#include "methods/method.h"
#include "methods/path_method_base.h"
#include "methods/path_trie.h"

namespace igq {
namespace snapshot {
class BinaryReader;
class BinaryWriter;
}  // namespace snapshot

/// Algorithm 1's index: trie of features with {graph, occurrences} postings
/// and per-graph distinct-feature counts.
class FeatureCountIndex {
 public:
  explicit FeatureCountIndex(const PathEnumeratorOptions& options = {})
      : options_(options) {}

  /// Indexes `graph` under `id`. Ids must be added in increasing order.
  void AddGraph(GraphId id, const Graph& graph);

  /// Same, from the graph's stored features (enumerated under this index's
  /// options): re-indexing a graph whose features are kept enumerates
  /// nothing.
  void AddGraph(GraphId id, const SortedPathFeatures& features);

  /// Algorithm 2: ids of indexed graphs that may be subgraphs of `query`
  /// (every indexed feature of the graph occurs in the query with at least
  /// the graph's multiplicity). No false negatives. Candidates come back
  /// sorted ascending.
  std::vector<GraphId> FindPotentialSubgraphsOf(const Graph& query) const;

  /// Same, reusing precomputed query features (must come from the same
  /// PathEnumeratorOptions).
  std::vector<GraphId> FindPotentialSubgraphsOf(
      const PathFeatureCounts& query_features) const;

  /// Out-parameter form: fills `out` (cleared first, capacity reused). The
  /// per-graph cover tally runs in the calling thread's IdSetScratch, so a
  /// steady-state probe performs zero heap allocations — this is the form
  /// the cache's probe index calls for Isuper (`bench_micro_core --smoke`
  /// gates it).
  void FindPotentialSubgraphsOf(const PathFeatureCounts& query_features,
                                std::vector<GraphId>* out) const;

  /// Isub's counting filter, the converse of Algorithm 2: fills `out`
  /// (cleared first) with the ids of indexed graphs that may be
  /// supergraphs of the query — each holds every query feature at least as
  /// often as the query does. No false negatives; a featureless query
  /// yields none. Candidates come back sorted ascending. The running set
  /// narrows through the calling thread's IdSetScratch ids_b/ids_c (so
  /// `out` must be neither of them), performing zero heap allocations in
  /// steady state.
  void FindPotentialSupergraphsOf(const PathFeatureCounts& query_features,
                                  std::vector<GraphId>* out) const;

  size_t NumGraphs() const { return num_indexed_; }
  size_t MemoryBytes() const;
  const PathEnumeratorOptions& options() const { return options_; }

  /// Serializes the index (enumerator options, trie, NF table, empty-graph
  /// list) for warm starts.
  void Save(snapshot::BinaryWriter& writer) const;

  /// Restores an index saved by Save(). Fails (returning false, leaving
  /// this object unchanged) on malformed input, enumerator options that
  /// differ from this instance's, or graph ids >= `num_graphs`.
  bool Load(snapshot::BinaryReader& reader, uint32_t num_graphs);

 private:
  /// Sentinel for ids inside the universe that were never indexed (only
  /// reachable through externally produced payloads): never a candidate.
  static constexpr uint32_t kNotIndexed = 0xffffffffu;

  PathEnumeratorOptions options_;
  PathTrie trie_{/*store_locations=*/false};
  /// NF[g], dense by graph id (the tally scan walks it in id order — that
  /// is what makes the candidate list come out sorted with no extra sort).
  /// A graph with NF 0 (zero vertices) is vacuously a subgraph of any
  /// query and surfaces from the scan directly.
  std::vector<uint32_t> nf_;
  size_t num_indexed_ = 0;
};

/// Baseline M_super: FeatureCountIndex over the dataset + VF2 verification.
/// Prepare() extracts the query's path features once, so Filter() and every
/// Verify() share them — the same amortization the subgraph methods enjoy.
class FeatureCountSupergraphMethod : public Method {
 public:
  explicit FeatureCountSupergraphMethod(
      const PathEnumeratorOptions& options = {})
      : index_(options) {}

  std::string Name() const override { return "FeatureCount"; }

  QueryDirection Direction() const override {
    return QueryDirection::kSupergraph;
  }

  void Build(const GraphDatabase& db) override;

  std::unique_ptr<PreparedQuery> Prepare(const Graph& query) const override {
    return std::make_unique<PathPreparedQuery>(
        query, CountPathFeatures(query, index_.options()));
  }

  /// Algorithm 2 over the feature trie, minus the database's tombstone set
  /// (removed graphs may still hold postings/NF rows between a mutation and
  /// the next full Build).
  std::vector<GraphId> Filter(const PreparedQuery& prepared) const override;

  /// True iff graphs[id] ⊆ query.
  bool Verify(const PreparedQuery& prepared, GraphId id) const override;

  size_t IndexMemoryBytes() const override { return index_.MemoryBytes(); }

  /// Index persistence (see Method): serializes/restores the feature trie
  /// and NF table directly instead of re-enumerating the dataset.
  bool SaveIndex(std::ostream& out) const override;
  bool LoadIndex(const GraphDatabase& db, std::istream& in) override;

  /// Incremental maintenance (see Method). OnAddGraph extends the trie, NF
  /// table and pattern-plan vector by the one new graph (ids only grow, so
  /// the index's increasing-id contract holds); OnRemoveGraph leaves the
  /// index untouched — the dead graph's NF row survives, and Filter()
  /// subtracts the database's tombstone set instead.
  bool OnAddGraph(const GraphDatabase& db, GraphId id) override;
  bool OnRemoveGraph(const GraphDatabase& db, GraphId id) override;

 private:
  FeatureCountIndex index_;
  const GraphDatabase* db_ = nullptr;
  /// Search plans of every dataset graph, precompiled at Build/LoadIndex:
  /// in the supergraph direction the STORED graphs are the patterns, so
  /// their variable orders never depend on the query and can be reused
  /// across all queries (docs/PERFORMANCE.md).
  std::vector<MatchPlan> pattern_plans_;
};

}  // namespace igq

#endif  // IGQ_METHODS_FEATURE_COUNT_INDEX_H_
