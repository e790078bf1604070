#include "igq/engine.h"

#include <optional>
#include <utility>

#include "common/timer.h"
#include "features/canonical.h"
#include "igq/engine_shell.h"
#include "igq/pruning.h"

namespace igq {
namespace {

// The sequential engine runs the shared cache as one shard.
IgqOptions OneShardOptions(const IgqOptions& options) {
  IgqOptions one_shard = ValidatedIgqOptions(options);
  one_shard.cache_shards = 1;
  return one_shard;
}

// One §5.1 prune credit, buffered until the query commits.
struct PendingCredit {
  ShardedQueryCache::Hit hit;
  uint64_t removed;
  LogValue cost;
};

}  // namespace

QueryEngine::QueryEngine(const GraphDatabase& db, Method* method,
                         const IgqOptions& options)
    : db_(&db),
      method_(method),
      options_(OneShardOptions(options)),
      cache_(std::make_unique<ShardedQueryCache>(options_, db.graphs.size())),
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
  // path comes first: one hash probe of the key map, which covers flushed
  // and window entries alike. Only on a key miss does the feature
  // extraction + index probe run — an exact hit therefore performs zero
  // isomorphism tests. The filter ran either way: an exact hit is credited
  // with the filtered candidates it saved verifying (§5.1 R and C), not
  // with its answer. With the cache disabled there is no probe, so every
  // candidate goes on to verification.
  const size_t query_nodes = query.NumVertices();
  const QueryDirection direction = method_->Direction();
  std::optional<ShardedQueryCache::ProbeSession> session;
  std::string canonical;
  PathFeatureCounts features;  // extracted for the probe, reused by Insert
  if (options_.enabled) {
    control.set_stage(serving::QueryStage::kProbe);
    {
      ScopedTimer probe_timer(probe_sink);
      canonical = GraphCanonicalCode(query);
      auto credit_of = [&](std::span<const GraphId>) {
        return ShardedQueryCache::Credit{
            candidates.size(),
            SumIsomorphismCosts(*db_, direction, query_nodes, candidates)};
      };
      // §4.3 case 1: identical (isomorphic) previous query — return its
      // answer outright; TryExactHit commits the hit (clock tick, credit).
      if (cache_->TryExactHit(canonical, credit_of, &result->answer)) {
        if (stats != nullptr) {
          stats->shortcut = ShortcutKind::kExactHit;
          stats->answer_size = result->answer.size();
        }
        return;
      }
      // The key map holds every entry the probe scans, so the probe's own
      // §4.3 exact match cannot fire here: only containments remain.
      features = cache_->ExtractFeatures(query);
      session.emplace(cache_->Probe(query, features));
    }
    // A stop during the probe makes its results garbage (an interrupted
    // containment search aliases to a hit/miss) — abort without facts.
    if (control.CheckNow()) return stop(false, {});
    if (stats != nullptr) {
      stats->probe_iso_tests = session->probe_iso_tests();
      stats->isub_hits = session->supergraph_hits().size();
      stats->isuper_hits = session->subgraph_hits().size();
    }
  }

  // The §4.4 role inversion. For subgraph queries, cached *supergraphs* of g
  // yield guaranteed answers (formulas (3)/(4)) and cached *subgraphs*
  // intersect the candidate set (formula (5)). For supergraph queries the
  // roles swap: cached subgraphs G ⊆ g guarantee (Gi ⊆ G ⊆ g), cached
  // supergraphs g ⊆ G intersect (Gi ⊆ g implies Gi ⊆ G).
  const bool subgraph_query = direction == QueryDirection::kSubgraph;
  std::span<const ShardedQueryCache::Hit> guarantee_hits, intersect_hits;
  if (session.has_value()) {
    guarantee_hits =
        subgraph_query ? session->supergraph_hits() : session->subgraph_hits();
    intersect_hits =
        subgraph_query ? session->subgraph_hits() : session->supergraph_hits();
  }

  // §5.1 credits are buffered during prune and applied at commit, while the
  // probe session still pins the entries. Nothing reads the cache between
  // the two on a single stream, so this costs the unlimited query nothing
  // and lets a stopped one leave no trace. Costs are computed inside the
  // callback (the removed span is only scratch-valid there).
  std::vector<PendingCredit> pending_credits;
  // The prune scratch (and the outcome inside it) is this thread's; it
  // stays valid through verification and answer assembly below.
  PruneScratch& prune_scratch = PruneScratch::ThreadLocal();
  {
    ScopedTimer prune_timer(probe_sink);
    std::vector<const CachedQuery*> guarantee, intersect;
    guarantee.reserve(guarantee_hits.size());
    for (const ShardedQueryCache::Hit& hit : guarantee_hits) {
      guarantee.push_back(&session->entry(hit));
    }
    intersect.reserve(intersect_hits.size());
    for (const ShardedQueryCache::Hit& hit : intersect_hits) {
      intersect.push_back(&session->entry(hit));
    }
    PruneCandidates(
        candidates, guarantee, intersect,
        [&](PruneSide side, size_t index, std::span<const GraphId> removed) {
          pending_credits.push_back(
              {side == PruneSide::kGuarantee ? guarantee_hits[index]
                                             : intersect_hits[index],
               removed.size(),
               SumIsomorphismCosts(*db_, direction, query_nodes, removed)});
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
  // credits in consultation order, then the insertion. An insertion that
  // fills the window runs the flush (eviction + shadow rebuild) here, on
  // this query's thread and inside its time; the cache also times it.
  if (options_.enabled) {
    cache_->RecordQueryProcessed();
    for (const PendingCredit& credit : pending_credits) {
      session->CreditHit(credit.hit);
      session->CreditPrune(credit.hit, credit.removed, credit.cost);
    }
    // Insert takes the shard lock exclusively; the session holds it shared.
    session.reset();
    cache_->Insert(query, result->answer, std::move(canonical), features);
  }
}

bool QueryEngine::SaveSnapshot(std::ostream& out, std::string* error) const {
  return SaveEngineSnapshot(out, *db_, *method_, *cache_, error);
}

bool QueryEngine::LoadSnapshot(std::istream& in, std::string* error,
                               SnapshotLoadInfo* info) {
  auto fresh_cache =
      std::make_unique<ShardedQueryCache>(options_, db_->graphs.size());
  if (!LoadEngineSnapshot(in, *db_, *method_, *fresh_cache, error, info)) {
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
