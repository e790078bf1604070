// The unified host-method contract for filter-then-verify query processing.
//
// The paper's framework (§4.2, §4.4) treats the host method M as a black box
// that (a) indexes the dataset graphs and (b) given a query produces a
// candidate set which is then verified by isomorphism tests. iGQ wraps any
// such method, for *both* query directions:
//
//   * subgraph queries  (§4.2): find all Gi in D with q ⊆ Gi
//   * supergraph queries (§4.4): find all Gi in D with Gi ⊆ q
//
// Both directions share one interface, igq::Method, whose Direction() tells
// the engine which §4.2/§4.4 pruning roles to apply. GGSX, Grapes and
// CT-Index are the provided subgraph methods; the Algorithm-1/2 feature
// count index is the provided supergraph method.
#ifndef IGQ_METHODS_METHOD_H_
#define IGQ_METHODS_METHOD_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/id_set.h"
#include "graph/csr_view.h"
#include "graph/graph.h"
#include "isomorphism/match_core.h"

namespace igq {

/// Which containment relation a query asks for (and therefore which way the
/// engine inverts the union/intersection pruning roles, §4.4).
enum class QueryDirection {
  kSubgraph,   // answer = {Gi : query ⊆ Gi}
  kSupergraph  // answer = {Gi : Gi ⊆ query}
};

/// Short lowercase name for logs and registry listings.
const char* QueryDirectionName(QueryDirection direction);

/// A graph dataset D = {G1..Gn} plus global label-domain information
/// (L, needed by the §5.1 cost model).
///
/// Online mutation model: graph ids are STABLE. AddGraph appends and returns
/// the new id; RemoveGraph never erases or renumbers — the removed graph's
/// payload stays in `graphs` (cached answers, snapshots, and the §5.1 cost
/// model may still dereference the id) and the id joins `tombstones`. Every
/// filtering layer composes its candidates with the tombstone set, so a
/// removed graph can never appear in an answer, while an id, once handed
/// out, means the same graph forever.
struct GraphDatabase {
  std::vector<Graph> graphs;
  /// Number of distinct vertex labels across the dataset. Monotone under
  /// mutation: removal never shrinks the label domain (the §5.1 cost model
  /// stays comparable across a mutation sequence).
  size_t num_labels = 0;
  /// Ids of removed graphs, sorted ascending, duplicate-free.
  std::vector<GraphId> tombstones;
  /// `tombstones` as an adaptive IdSet over the current `graphs.size()`
  /// universe — the form the filter paths subtract with. Kept in lockstep
  /// by AddGraph/RemoveGraph.
  IdSet tombstone_set;
  /// Incremented by every AddGraph/RemoveGraph. Snapshots stamp it so a
  /// cache/index built at one mutation state is never restored over
  /// another.
  uint64_t mutation_epoch = 0;

  /// Appends `graph` under the next free id (== old graphs.size()) and
  /// returns that id. Extends the label domain if the graph carries labels
  /// not seen before.
  GraphId AddGraph(Graph graph);

  /// Tombstones `id`. Returns false (no state change) when `id` is out of
  /// range or already removed. The Graph object itself is retained.
  bool RemoveGraph(GraphId id);

  bool IsLive(GraphId id) const {
    return id < graphs.size() && !tombstone_set.contains(id);
  }
  size_t NumLive() const { return graphs.size() - tombstones.size(); }

  /// Recomputes num_labels from the graphs. Safe on an empty database
  /// (num_labels becomes 0 and no buffers are touched).
  void RefreshLabelCount();

  /// Seen-label cache behind the O(new graph) label-domain update in
  /// AddGraph. Primed by RefreshLabelCount; an unprimed database falls back
  /// to a full recount on its first AddGraph.
  std::vector<uint8_t> label_seen;
  bool label_seen_primed = false;
};

/// Per-query state computed once by Prepare() and shared by Filter() and all
/// Verify() calls (e.g. the query's path features). Methods subclass this.
/// Owns a copy of the query graph so the prepared state may outlive the
/// caller's argument (queries are small; the copy is cheap).
///
/// Also owns the query's compiled matching state, built on first use and
/// reused across every Verify() call in the batch: plan() for the subgraph
/// direction (query is the pattern) and query_view() for the supergraph
/// direction (query is the target). Each method direction touches exactly
/// one of the two, so each is compiled lazily (thread-safe via
/// std::call_once — Verify() runs concurrently on the VerifyPool) and
/// immutable from then on.
class PreparedQuery {
 public:
  explicit PreparedQuery(const Graph& query) : query_(query) {}
  virtual ~PreparedQuery() = default;

  PreparedQuery(const PreparedQuery&) = delete;
  PreparedQuery& operator=(const PreparedQuery&) = delete;

  const Graph& query() const { return query_; }

  /// Compiled search plan with the query as the pattern.
  const MatchPlan& plan() const {
    std::call_once(plan_once_, [this] { plan_.Compile(query_); });
    return plan_;
  }

  /// CSR view with the query as the target.
  const CsrGraphView& query_view() const {
    std::call_once(view_once_, [this] { query_view_.Assign(query_); });
    return query_view_;
  }

  /// Budget control of the query this prepared state serves, or null (the
  /// default — unlimited queries). Set by the engine before Filter(); the
  /// filter loops poll it between feature chunks (serving/budget.h). Not
  /// owned.
  void set_control(serving::QueryControl* control) { control_ = control; }
  serving::QueryControl* control() const { return control_; }

 private:
  Graph query_;
  serving::QueryControl* control_ = nullptr;
  mutable std::once_flag plan_once_;
  mutable MatchPlan plan_;
  mutable std::once_flag view_once_;
  mutable CsrGraphView query_view_;
};

/// A filter-then-verify query processing method M. One contract serves both
/// directions; Direction() declares which relation Filter/Verify implement.
class Method {
 public:
  virtual ~Method() = default;

  virtual std::string Name() const = 0;

  /// The containment relation this method answers.
  virtual QueryDirection Direction() const = 0;

  /// Indexes the dataset. `db` must outlive the method.
  virtual void Build(const GraphDatabase& db) = 0;

  /// Computes per-query state (features etc.). Called once per query, so
  /// feature extraction is amortized across Filter() and every Verify().
  virtual std::unique_ptr<PreparedQuery> Prepare(const Graph& query) const {
    return std::make_unique<PreparedQuery>(query);
  }

  /// Filtering stage: ids of all graphs that may stand in this method's
  /// Direction() relation with the query. Guaranteed no false negatives.
  /// Candidates MUST come back sorted ascending and duplicate-free — the
  /// engines' set-algebra pruning core (igq/pruning.h) and the final
  /// verified∪guaranteed merge both build on that order, and every
  /// in-tree method produces it naturally (id-order scans).
  virtual std::vector<GraphId> Filter(const PreparedQuery& prepared) const = 0;

  /// Verification stage for one candidate: true iff query ⊆ graphs[id]
  /// (kSubgraph) or graphs[id] ⊆ query (kSupergraph). Must be thread-safe
  /// with respect to other Verify() calls on the same PreparedQuery — the
  /// engine's VerifyPool invokes it concurrently from several workers.
  virtual bool Verify(const PreparedQuery& prepared, GraphId id) const = 0;

  /// Heap footprint of the index structure (Fig. 18).
  virtual size_t IndexMemoryBytes() const = 0;

  /// Optional index persistence (warm start). SaveIndex() writes the built
  /// index to `out` in a self-describing binary form; LoadIndex() restores
  /// it over `db` (which must be the dataset the index was built on) and
  /// stands in for Build(). Both return false when the method does not
  /// support persistence — the default — or when the payload is invalid /
  /// belongs to an incompatible configuration. Implementations must commit
  /// state only on success: after a failed LoadIndex() the method is
  /// unchanged (still usable if it was Build()-ed, otherwise still in need
  /// of Build()).
  virtual bool SaveIndex(std::ostream& out) const;
  virtual bool LoadIndex(const GraphDatabase& db, std::istream& in);

  /// Optional incremental index maintenance for online datasets. Called by
  /// the engines' ApplyMutation AFTER the database mutation: `db` is the
  /// same database the method was built on, already holding the new graph
  /// (OnAddGraph) or the fresh tombstone (OnRemoveGraph). Returning true
  /// means the index now answers Filter/Verify exactly as a fresh Build(db)
  /// would; returning false — the default — tells the caller to fall back
  /// to a full Build. Implementations must commit state only when they
  /// return true.
  virtual bool OnAddGraph(const GraphDatabase& db, GraphId id);
  virtual bool OnRemoveGraph(const GraphDatabase& db, GraphId id);
};

}  // namespace igq

#endif  // IGQ_METHODS_METHOD_H_
