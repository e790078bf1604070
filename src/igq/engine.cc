#include "igq/engine.h"

#include <utility>

#include "common/timer.h"
#include "features/canonical.h"
#include "igq/engine_shell.h"
#include "igq/pruning.h"

namespace igq {
namespace {

constexpr CacheSection kCacheSection{snapshot::kSectionCache, "cache"};

// One §5.1 prune credit, buffered until the query commits.
struct PendingCredit {
  size_t position;
  uint64_t removed;
  LogValue cost;
};

}  // namespace

QueryEngine::QueryEngine(const GraphDatabase& db, Method* method,
                         const IgqOptions& options)
    : db_(&db),
      method_(method),
      options_(ValidatedIgqOptions(options)),
      cache_(std::make_unique<QueryCache>(options_, db.graphs.size())),
      pool_(options_.verify_threads) {}

QueryEngine::~QueryEngine() = default;

std::vector<GraphId> QueryEngine::Process(const Graph& query,
                                          QueryStats* stats) {
  // A never-armed control is unlimited and reads no clock.
  serving::QueryControl unlimited;
  QueryResult result;
  Execute(query, unlimited, stats != nullptr, &result);
  if (stats != nullptr) *stats = result.stats;
  return std::move(result.answer);
}

QueryResult QueryEngine::ProcessWithBudget(const Graph& query,
                                           const serving::QueryRequest& request,
                                           bool collect_stats) {
  // Zero budget fields fall back to the engine's serving defaults.
  serving::QueryBudget budget = request.budget;
  if (budget.deadline_micros == 0) {
    budget.deadline_micros = options_.serving.default_deadline_micros;
  }
  if (budget.max_states == 0) {
    budget.max_states = options_.serving.default_max_states;
  }
  serving::QueryControl control;
  control.Arm(budget, request.cancel != nullptr ? request.cancel->flag()
                                                : nullptr);
  QueryResult result;
  Execute(query, control, collect_stats, &result);
  result.outcome.elapsed_micros = control.ElapsedMicros();
  outcomes_.Record(result.outcome);
  return result;
}

void QueryEngine::Execute(const Graph& query, serving::QueryControl& control,
                          bool collect_stats, QueryResult* result) {
  // Without collect_stats every stat write below is skipped and every
  // ScopedTimer gets a null sink, which skips its clock reads entirely.
  QueryStats* const stats = collect_stats ? &result->stats : nullptr;
  int64_t* const filter_sink =
      stats != nullptr ? &stats->filter_micros : nullptr;
  int64_t* const probe_sink = stats != nullptr ? &stats->probe_micros : nullptr;
  int64_t* const verify_sink =
      stats != nullptr ? &stats->verify_micros : nullptr;
  ScopedTimer total_timer(stats != nullptr ? &stats->total_micros : nullptr);

  // Only a limited control reaches the searches. An unlimited query's
  // searches never poll it, and its stage checkpoints below never fire.
  serving::QueryControl* const limit = control.limited() ? &control : nullptr;
  // This thread runs the probe searches and the inline verification;
  // VerifyPool installs the control on its own workers.
  ScopedSearchControl search_guard(MatchContext::ThreadLocal(), limit);
  std::unique_ptr<PreparedQuery> prepared = method_->Prepare(query);
  prepared->set_control(limit);

  // A stopped query commits nothing (no tick, no credit, no insertion), so
  // the cache stays bit-identical to one that never saw it. A stop during
  // or after the prune stage may degrade to a cache-composed partial answer.
  auto stop = [&](bool partial_eligible, std::vector<GraphId> partial_answer) {
    const bool partial =
        partial_eligible && options_.serving.degrade_to_partial;
    result->outcome = serving::MakeStoppedOutcome(control, partial);
    result->answer = partial ? std::move(partial_answer)
                             : std::vector<GraphId>{};
    if (stats != nullptr) stats->answer_size = result->answer.size();
  };

  // Stage 1 (Fig. 6): host-method filtering.
  control.set_stage(serving::QueryStage::kFilter);
  std::vector<GraphId> candidates;
  {
    ScopedTimer filter_timer(filter_sink);
    candidates = method_->Filter(*prepared);
  }
  if (control.CheckNow()) return stop(false, {});
  if (stats != nullptr) stats->candidates_initial = candidates.size();
  // Memory cap: the post-filter candidate set is the query's dominant
  // allocation driver, so the cap is enforced here, before pruning and
  // verification fan out over it.
  if (control.ChargeCandidates(candidates.size())) return stop(false, {});

  // Stage 2 (Fig. 6): the cache lookup. The canonical-key exact-hit fast
  // path comes first: one hash probe of the key map. Only on a key miss
  // does the feature extraction + index probe run — an exact hit therefore
  // performs zero isomorphism tests. The filter ran either way: its
  // candidate count feeds the §5.1 exact-hit credit below, which keeps
  // eviction trajectories (and the fig09/fig15 cells) identical to the
  // pre-key isomorphism path. With the cache disabled the probe finds
  // nothing, so every candidate goes on to verification.
  const size_t query_nodes = query.NumVertices();
  CacheProbe probe;
  std::string canonical;
  if (options_.enabled) {
    control.set_stage(serving::QueryStage::kProbe);
    size_t exact_position = SIZE_MAX;
    {
      ScopedTimer probe_timer(probe_sink);
      canonical = GraphCanonicalCode(query);
      exact_position = cache_->FindExactByKey(canonical);
      if (exact_position == SIZE_MAX) {
        probe = cache_->Probe(query, cache_->ExtractFeatures(query));
      }
    }
    // A stop during the probe makes its results garbage (an interrupted
    // containment search aliases to a hit/miss) — abort without facts.
    if (control.CheckNow()) return stop(false, {});
    if (stats != nullptr) {
      stats->probe_iso_tests = probe.probe_iso_tests;
      stats->isub_hits = probe.supergraph_positions.size();
      stats->isuper_hits = probe.subgraph_positions.size();
    }

    // §4.3 case 1: identical (isomorphic) previous query — return its
    // answer outright. The probe fallback covers only the key map and the
    // probe disagreeing, which the canonicalization test suite rules out
    // (the key map holds exactly the flushed entries the probe scans).
    if (exact_position == SIZE_MAX) exact_position = probe.exact_position;
    if (exact_position != SIZE_MAX) {
      // The query completes here: tick its clock, then the single-site
      // §5.1 credit.
      cache_->RecordQueryProcessed();
      cache_->CreditExactHit(exact_position, candidates.size(),
                             SumIsomorphismCosts(*db_, method_->Direction(),
                                                 query_nodes, candidates));
      result->answer = cache_->entries()[exact_position].answer.ToVector();
      if (stats != nullptr) {
        stats->shortcut = ShortcutKind::kExactHit;
        stats->candidates_final = 0;
        stats->answer_size = result->answer.size();
      }
      return;
    }
  }

  // The §4.4 role inversion. For subgraph queries, cached *supergraphs* of g
  // yield guaranteed answers (formulas (3)/(4)) and cached *subgraphs*
  // intersect the candidate set (formula (5)). For supergraph queries the
  // roles swap: cached subgraphs G ⊆ g guarantee (Gi ⊆ G ⊆ g), cached
  // supergraphs g ⊆ G intersect (Gi ⊆ g implies Gi ⊆ G).
  const bool subgraph_query =
      method_->Direction() == QueryDirection::kSubgraph;
  const std::vector<size_t>& guarantee_positions =
      subgraph_query ? probe.supergraph_positions : probe.subgraph_positions;
  const std::vector<size_t>& intersect_positions =
      subgraph_query ? probe.subgraph_positions : probe.supergraph_positions;

  // §5.1 credits are buffered during prune and applied at commit. Nothing
  // reads the cache between the two on a single stream, so this costs the
  // unlimited query nothing and lets a stopped one leave no trace. Costs are
  // computed inside the callback (the removed span is only scratch-valid
  // there).
  std::vector<PendingCredit> pending_credits;
  // The prune scratch (and the outcome inside it) is this thread's; it
  // stays valid through verification and answer assembly below.
  PruneScratch& prune_scratch = PruneScratch::ThreadLocal();
  {
    ScopedTimer prune_timer(probe_sink);
    std::vector<const CachedQuery*> guarantee, intersect;
    guarantee.reserve(guarantee_positions.size());
    for (size_t position : guarantee_positions) {
      guarantee.push_back(&cache_->entries()[position]);
    }
    intersect.reserve(intersect_positions.size());
    for (size_t position : intersect_positions) {
      intersect.push_back(&cache_->entries()[position]);
    }
    PruneCandidates(
        candidates, guarantee, intersect,
        [&](PruneSide side, size_t index, std::span<const GraphId> removed) {
          pending_credits.push_back(
              {side == PruneSide::kGuarantee ? guarantee_positions[index]
                                             : intersect_positions[index],
               removed.size(),
               SumIsomorphismCosts(*db_, method_->Direction(), query_nodes,
                                   removed)});
        },
        prune_scratch, limit);
  }
  const PruneOutcome& pruned = prune_scratch.outcome;
  if (stats != nullptr) {
    stats->candidates_final = pruned.remaining.size();
    if (pruned.empty_answer_shortcut) {
      stats->shortcut = ShortcutKind::kEmptyAnswerPruning;
    }
  }
  // A stop during prune: the entries consulted so far yielded true facts,
  // so the guaranteed set is a valid partial answer (§4.3 composition).
  if (control.stopped()) {
    std::vector<GraphId> partial;
    AssembleAnswer(pruned, {}, prune_scratch, &partial);
    return stop(true, std::move(partial));
  }

  // Stages 3-5 (Fig. 6): verification on the pool (inline with one
  // thread), then formula (4): Answer(g) = verified ∪ guaranteed answers.
  control.set_stage(serving::QueryStage::kVerify);
  std::vector<GraphId> verified;
  {
    ScopedTimer verify_timer(verify_sink);
    verified = pool_.Run(
        pruned.remaining,
        [&](GraphId id) { return method_->Verify(*prepared, id); }, limit);
  }
  if (stats != nullptr) stats->iso_tests = pruned.remaining.size();
  AssembleAnswer(pruned, verified, prune_scratch, &result->answer);
  if (stats != nullptr) stats->answer_size = result->answer.size();
  // Verified ids are the trusted subset (VerifyPool::Run contract), so
  // guaranteed ∪ verified is still a true partial answer. Never cached.
  if (control.stopped()) return stop(true, std::move(result->answer));

  // Stages 6-8 (Fig. 6): commit — the query clock tick, the buffered
  // credits in consultation order, then the insertion. Maintenance (window
  // flush + shadow rebuild) is timed inside the cache, off the query path.
  if (options_.enabled) {
    cache_->RecordQueryProcessed();
    for (const PendingCredit& credit : pending_credits) {
      cache_->CreditHit(credit.position);
      cache_->CreditPrune(credit.position, credit.removed, credit.cost);
    }
    cache_->Insert(query, result->answer, std::move(canonical));
  }
}

bool QueryEngine::SaveSnapshot(std::ostream& out, std::string* error) const {
  return SaveEngineSnapshot(out, *db_, *method_, *cache_, kCacheSection,
                            error);
}

bool QueryEngine::LoadSnapshot(std::istream& in, std::string* error,
                               SnapshotLoadInfo* info) {
  auto fresh_cache = std::make_unique<QueryCache>(options_, db_->graphs.size());
  if (!LoadEngineSnapshot(in, *db_, *method_, *fresh_cache, kCacheSection,
                          error, info)) {
    return false;
  }
  cache_ = std::move(fresh_cache);
  return true;
}

MutationResult QueryEngine::ApplyMutation(GraphDatabase& db,
                                          const GraphMutation& mutation) {
  if (&db != db_) return {};  // not the database this engine serves
  return ApplyEngineMutation(db, *method_, *cache_, wal_, mutation);
}

std::vector<BatchResult> QueryEngine::ProcessBatch(
    std::span<const Graph> queries, const BatchOptions& batch) {
  const serving::QueryRequest request{batch.budget, batch.cancel};
  std::vector<BatchResult> results;
  results.reserve(queries.size());
  for (const Graph& query : queries) {
    results.push_back(ProcessWithBudget(query, request, batch.collect_stats));
  }
  return results;
}

}  // namespace igq
