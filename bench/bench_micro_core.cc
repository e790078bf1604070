// Micro-benchmarks (google-benchmark) for the core substrates: the
// zero-allocation matching core (plan compile, batch verification, edge
// oracles, allocation counts), VF2 vs Ullmann matching, path enumeration,
// trie operations, Isuper filtering, fingerprint subset tests, and the
// log-space cost model.
//
// Also hosts the CI matcher-equivalence gate: `bench_micro_core --smoke`
// runs no benchmarks; it cross-checks every matching-core entry point
// against the Ullmann oracle on random instances, the pruning core and the
// counting filters against frozen scalar copies, and asserts the verify,
// prune and probe hot paths are allocation-free in steady state, exiting
// non-zero on any mismatch (wired into .github/workflows/ci.yml).
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/id_set.h"
#include "common/rng.h"
#include "datasets/profiles.h"
#include "features/fingerprint.h"
#include "features/path_enumerator.h"
#include "graph/algorithms.h"
#include "graph/csr_view.h"
#include "igq/probe_index.h"
#include "igq/pruning.h"
#include "isomorphism/cost_model.h"
#include "isomorphism/match_core.h"
#include "methods/feature_count_index.h"
#include "methods/ggsx.h"
#include "methods/path_trie.h"
#include "tests/oracle/ullmann.h"
#include "tests/oracle/vf2.h"
#include "tests/scalar_filter_reference.h"
#include "tests/scalar_prune_reference.h"

// ---------------------------------------------------------------------------
// Global allocation counter. Counts every operator new in this binary, so
// the matcher benches can report allocations-per-verify and the smoke gate
// can assert the steady-state hot path never touches the allocator.
// ---------------------------------------------------------------------------
namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace igq {
namespace {

uint64_t AllocationsNow() {
  return g_allocations.load(std::memory_order_relaxed);
}

Graph MakeRandomGraph(uint64_t seed, size_t vertices, size_t extra_edges,
                      size_t labels) {
  Rng rng(seed);
  Graph g;
  for (size_t v = 0; v < vertices; ++v) {
    g.AddVertex(static_cast<Label>(rng.Below(labels)));
  }
  for (VertexId v = 1; v < vertices; ++v) {
    g.AddEdge(v, static_cast<VertexId>(rng.Below(v)));
  }
  for (size_t e = 0; e < extra_edges; ++e) {
    const VertexId u = static_cast<VertexId>(rng.Below(vertices));
    const VertexId w = static_cast<VertexId>(rng.Below(vertices));
    if (u != w) g.AddEdge(u, w);
  }
  return g;
}

// A verification batch shaped like a filtered candidate set: one query,
// many targets, roughly half containing the query.
struct VerifyBatch {
  Graph query;
  std::vector<Graph> targets;
};

VerifyBatch MakeVerifyBatch(size_t num_targets, size_t target_vertices) {
  VerifyBatch batch;
  const Graph host = MakeRandomGraph(23, target_vertices, target_vertices / 2,
                                     4);
  batch.query = BfsNeighborhoodQuery(host, 0, 8);
  for (size_t i = 0; i < num_targets; ++i) {
    if (i % 2 == 0) {
      // Positive by construction: the query planted verbatim into fresh
      // random surroundings (extra vertices + edges appended around it).
      Rng rng(100 + i);
      Graph g = batch.query;
      while (g.NumVertices() < target_vertices) {
        g.AddVertex(static_cast<Label>(rng.Below(4)));
      }
      const size_t extra_edges = target_vertices + target_vertices / 2;
      for (size_t e = 0; e < extra_edges; ++e) {
        const VertexId u = static_cast<VertexId>(rng.Below(g.NumVertices()));
        const VertexId w = static_cast<VertexId>(rng.Below(g.NumVertices()));
        if (u != w) g.AddEdge(u, w);
      }
      batch.targets.push_back(std::move(g));
    } else {
      // (Usually) negative: an unrelated random graph.
      batch.targets.push_back(MakeRandomGraph(200 + i, target_vertices,
                                              target_vertices / 2, 4));
    }
  }
  return batch;
}

// --- Filtering-pipeline fixtures -------------------------------------------
//
// The frozen scalar pruning reference and the random-set generator are
// shared with tests/idset_test.cc (tests/scalar_prune_reference.h): one
// authoritative copy for both the unit-test oracle and this smoke gate.

using scalar_reference::RandomSortedUniqueIds;
using scalar_reference::ScalarCountingFilterReference;
using scalar_reference::ScalarPruneReference;

// A pruning workload shaped like the 10k-graph dataset profile the paper
// filters over: a large candidate set, two guarantee-side and two
// intersect-side cached entries mixing dense (bitmap) and sparse (array)
// answers.
struct PruneFixture {
  std::vector<GraphId> candidates;
  std::vector<CachedQuery> entries;
  std::vector<std::vector<GraphId>> scalar_answers;  // same content, vectors
  std::vector<const CachedQuery*> guarantee, intersect;
  std::vector<const std::vector<GraphId>*> scalar_guarantee, scalar_intersect;
};

PruneFixture MakePruneFixture(size_t universe, size_t num_candidates) {
  Rng rng(97);
  PruneFixture fx;
  fx.candidates = RandomSortedUniqueIds(rng, universe, num_candidates);
  const size_t sizes[] = {universe / 2, universe / 64, universe / 3,
                          universe / 100};
  for (size_t size : sizes) {
    std::vector<GraphId> answer = RandomSortedUniqueIds(rng, universe, size);
    fx.scalar_answers.push_back(answer);
    CachedQuery entry;
    entry.answer = IdSet::FromSortedUnique(std::move(answer), universe);
    fx.entries.push_back(std::move(entry));
  }
  for (size_t i = 0; i < 2; ++i) {
    fx.guarantee.push_back(&fx.entries[i]);
    fx.scalar_guarantee.push_back(&fx.scalar_answers[i]);
  }
  for (size_t i = 2; i < 4; ++i) {
    fx.intersect.push_back(&fx.entries[i]);
    fx.scalar_intersect.push_back(&fx.scalar_answers[i]);
  }
  return fx;
}

// --- Matching-core benches -------------------------------------------------

void BM_PlanCompile(benchmark::State& state) {
  const Graph host = MakeRandomGraph(7, 200, 100, 4);
  const Graph pattern =
      BfsNeighborhoodQuery(host, 0, static_cast<size_t>(state.range(0)));
  MatchPlan plan;
  for (auto _ : state) {
    plan.Compile(pattern);
    benchmark::DoNotOptimize(plan.num_vertices());
  }
}
BENCHMARK(BM_PlanCompile)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

// Plan-reuse batch verification: compile once, verify every target through
// the thread's scratch arena — the shape of every Method::Verify batch.
void BM_VerifyBatchPlanReuse(benchmark::State& state) {
  const VerifyBatch batch =
      MakeVerifyBatch(64, static_cast<size_t>(state.range(0)));
  MatchContext& ctx = MatchContext::ThreadLocal();
  MatchPlan plan;
  plan.Compile(batch.query);
  uint64_t allocs_begin = 0;
  for (auto _ : state) {
    if (allocs_begin == 0) allocs_begin = AllocationsNow();
    size_t hits = 0;
    for (const Graph& target : batch.targets) {
      hits += ContainsIn(plan, target, ctx) ? 1 : 0;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.counters["allocs/verify"] = benchmark::Counter(
      static_cast<double>(AllocationsNow() - allocs_begin) /
      (static_cast<double>(state.iterations()) * batch.targets.size()));
  state.SetItemsProcessed(state.iterations() * batch.targets.size());
}
BENCHMARK(BM_VerifyBatchPlanReuse)->Arg(50)->Arg(200)->Arg(800);

// The production shape of Method::Verify since the core refactor: plan
// compiled once per query AND target views prebuilt once per dataset
// (label buckets + adaptive edge oracle), so the only per-candidate work
// is the search itself.
void BM_VerifyBatchPrebuiltViews(benchmark::State& state) {
  const VerifyBatch batch =
      MakeVerifyBatch(64, static_cast<size_t>(state.range(0)));
  MatchContext& ctx = MatchContext::ThreadLocal();
  MatchPlan plan;
  plan.Compile(batch.query);
  CsrViewStore views;
  views.Build(batch.targets);
  uint64_t allocs_begin = 0;
  for (auto _ : state) {
    if (allocs_begin == 0) allocs_begin = AllocationsNow();
    size_t hits = 0;
    for (size_t i = 0; i < views.size(); ++i) {
      hits += PlanContains(plan, views.view(i), ctx) ? 1 : 0;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.counters["allocs/verify"] = benchmark::Counter(
      static_cast<double>(AllocationsNow() - allocs_begin) /
      (static_cast<double>(state.iterations()) * views.size()));
  state.SetItemsProcessed(state.iterations() * views.size());
}
BENCHMARK(BM_VerifyBatchPrebuiltViews)->Arg(50)->Arg(200)->Arg(800);

// The same batch through the one-shot adapter, which re-compiles the plan
// per pair — what every call site did before the core refactor (the old
// code additionally re-allocated all search state per pair).
void BM_VerifyBatchPerPairCompile(benchmark::State& state) {
  const VerifyBatch batch =
      MakeVerifyBatch(64, static_cast<size_t>(state.range(0)));
  uint64_t allocs_begin = 0;
  for (auto _ : state) {
    if (allocs_begin == 0) allocs_begin = AllocationsNow();
    size_t hits = 0;
    for (const Graph& target : batch.targets) {
      hits += Vf2Matcher().Contains(batch.query, target) ? 1 : 0;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.counters["allocs/verify"] = benchmark::Counter(
      static_cast<double>(AllocationsNow() - allocs_begin) /
      (static_cast<double>(state.iterations()) * batch.targets.size()));
  state.SetItemsProcessed(state.iterations() * batch.targets.size());
}
BENCHMARK(BM_VerifyBatchPerPairCompile)->Arg(50)->Arg(200)->Arg(800);

// Edge-oracle crossover: HasEdge probes against the two oracles at several
// target sizes (same probe sequence), to place the bitset/sorted-range
// heuristic (docs/PERFORMANCE.md).
void EdgeOracleBench(benchmark::State& state, CsrGraphView::EdgeOracle mode) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Graph g = MakeRandomGraph(31, n, 2 * n, 4);
  const CsrGraphView view(g, mode);
  Rng rng(5);
  std::vector<std::pair<VertexId, VertexId>> probes(1024);
  for (auto& [u, v] : probes) {
    u = static_cast<VertexId>(rng.Below(n));
    v = static_cast<VertexId>(rng.Below(n));
  }
  for (auto _ : state) {
    size_t hits = 0;
    for (const auto& [u, v] : probes) hits += view.HasEdge(u, v) ? 1 : 0;
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * probes.size());
}
void BM_EdgeOracleBitset(benchmark::State& state) {
  EdgeOracleBench(state, CsrGraphView::EdgeOracle::kBitset);
}
void BM_EdgeOracleSortedRange(benchmark::State& state) {
  EdgeOracleBench(state, CsrGraphView::EdgeOracle::kSortedRange);
}
BENCHMARK(BM_EdgeOracleBitset)->Arg(64)->Arg(256)->Arg(1024)->Arg(2048);
BENCHMARK(BM_EdgeOracleSortedRange)->Arg(64)->Arg(256)->Arg(1024)->Arg(2048);

// Cost of (re)building a target view into warm scratch — the per-candidate
// price of the plan-reuse path.
void BM_CsrViewAssign(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Graph g = MakeRandomGraph(41, n, n / 2, 4);
  CsrGraphView view;
  view.Assign(g);  // warm the buffers
  for (auto _ : state) {
    view.Assign(g);
    benchmark::DoNotOptimize(view.NumVertices());
  }
}
BENCHMARK(BM_CsrViewAssign)->Arg(50)->Arg(200)->Arg(800);

// --- Pre-existing substrate benches ----------------------------------------

void BM_Vf2PositiveMatch(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Graph target = MakeRandomGraph(7, n, n / 2, 4);
  const Graph pattern = BfsNeighborhoodQuery(target, 0, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Vf2Matcher::FindEmbedding(pattern, target));
  }
}
BENCHMARK(BM_Vf2PositiveMatch)->Arg(50)->Arg(200)->Arg(800);

void BM_Vf2NegativeMatch(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Graph target = MakeRandomGraph(7, n, n / 2, 4);
  // A pattern from a different label universe: rejected quickly by pruning.
  Graph pattern = MakeRandomGraph(9, 9, 4, 2);
  for (VertexId v = 0; v < pattern.NumVertices(); ++v) {
    pattern.set_label(v, pattern.label(v) + 10);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Vf2Matcher::FindEmbedding(pattern, target));
  }
}
BENCHMARK(BM_Vf2NegativeMatch)->Arg(50)->Arg(200)->Arg(800);

void BM_UllmannPositiveMatch(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Graph target = MakeRandomGraph(7, n, n / 2, 4);
  const Graph pattern = BfsNeighborhoodQuery(target, 0, 8);
  UllmannMatcher matcher;
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.Contains(pattern, target));
  }
}
BENCHMARK(BM_UllmannPositiveMatch)->Arg(50)->Arg(200);

void BM_PathEnumeration(benchmark::State& state) {
  const Graph g = MakeRandomGraph(3, static_cast<size_t>(state.range(0)),
                                  static_cast<size_t>(state.range(0)), 8);
  PathEnumeratorOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountPathFeatures(g, options));
  }
}
BENCHMARK(BM_PathEnumeration)->Arg(50)->Arg(200);

void BM_TrieInsertLookup(benchmark::State& state) {
  const Graph g = MakeRandomGraph(5, 100, 100, 8);
  const PathFeatureCounts features = CountPathFeatures(g, {});
  for (auto _ : state) {
    PathTrie trie;
    uint32_t id = 0;
    for (const auto& [key, count] : features) {
      trie.Add(key, 0, count);
      ++id;
    }
    size_t found = 0;
    for (const auto& [key, count] : features) {
      found += trie.Find(key) != nullptr;
    }
    benchmark::DoNotOptimize(found);
  }
}
BENCHMARK(BM_TrieInsertLookup);

void BM_IsuperFilter(benchmark::State& state) {
  // Index `range` cached-query-sized graphs; filter a 20-edge query.
  FeatureCountIndex index;
  Rng rng(11);
  const Graph host = MakeRandomGraph(13, 300, 150, 6);
  for (uint32_t i = 0; i < static_cast<uint32_t>(state.range(0)); ++i) {
    index.AddGraph(i, BfsNeighborhoodQuery(
                          host, static_cast<VertexId>(rng.Below(300)),
                          4 + (i % 5) * 4));
  }
  const Graph query = BfsNeighborhoodQuery(host, 7, 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.FindPotentialSubgraphsOf(query));
  }
}
BENCHMARK(BM_IsuperFilter)->Arg(100)->Arg(500)->Arg(1500);

// §4.3 candidate pruning, frozen scalar shape: per-candidate binary
// searches over plain sorted answer vectors, fresh buffers per entry —
// what every query paid before the IdSet rewrite.
void BM_PruneCandidatesScalar(benchmark::State& state) {
  const PruneFixture fx =
      MakePruneFixture(10000, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ScalarPruneReference(
        fx.candidates, fx.scalar_guarantee, fx.scalar_intersect));
  }
  state.SetItemsProcessed(state.iterations() * fx.candidates.size());
}
BENCHMARK(BM_PruneCandidatesScalar)->Arg(1000)->Arg(10000);

// The same workload through the IdSet pruning core: Partition kernels over
// adaptive answer sets, all intermediates in a reused PruneScratch.
void BM_PruneCandidatesIdSet(benchmark::State& state) {
  const PruneFixture fx =
      MakePruneFixture(10000, static_cast<size_t>(state.range(0)));
  PruneScratch scratch;
  auto noop = [](PruneSide, size_t, std::span<const GraphId>) {};
  // Warm the scratch before sampling the allocation counter, as the smoke
  // gate does — the published allocs/prune metric is the steady state.
  PruneCandidates(fx.candidates, fx.guarantee, fx.intersect, noop, scratch);
  const uint64_t allocs_begin = AllocationsNow();
  for (auto _ : state) {
    const PruneOutcome& out =
        PruneCandidates(fx.candidates, fx.guarantee, fx.intersect, noop,
                        scratch);
    benchmark::DoNotOptimize(out.remaining.size());
  }
  state.counters["allocs/prune"] = benchmark::Counter(
      static_cast<double>(AllocationsNow() - allocs_begin) /
      static_cast<double>(state.iterations()));
  state.SetItemsProcessed(state.iterations() * fx.candidates.size());
}
BENCHMARK(BM_PruneCandidatesIdSet)->Arg(1000)->Arg(10000);

void BM_FingerprintSubsetTest(benchmark::State& state) {
  Fingerprint a(4096), b(4096);
  for (int i = 0; i < 200; ++i) a.AddFeature("f" + std::to_string(i));
  for (int i = 0; i < 40; ++i) b.AddFeature("f" + std::to_string(i * 3));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.CoversAllBitsOf(b));
  }
}
BENCHMARK(BM_FingerprintSubsetTest);

void BM_CostModel(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(IsomorphismCost(10, 20, 3000));
  }
}
BENCHMARK(BM_CostModel);

// ---------------------------------------------------------------------------
// --smoke: the CI matcher-equivalence and zero-allocation gate.
// ---------------------------------------------------------------------------

int RunSmoke() {
  int failures = 0;
  const auto fail = [&failures](const char* what, size_t round) {
    std::fprintf(stderr, "SMOKE FAIL: %s (round %zu)\n", what, round);
    ++failures;
  };

  // 1. Equivalence: every core entry point must agree with the Ullmann
  //    oracle (an algorithmically independent matcher) on random pairs.
  Rng rng(20260728);
  UllmannMatcher ullmann;
  MatchContext& ctx = MatchContext::ThreadLocal();
  size_t positives = 0;
  for (size_t round = 0; round < 120; ++round) {
    const size_t nt = 6 + rng.Below(20);
    const Graph target = MakeRandomGraph(1000 + round, nt, rng.Below(2 * nt),
                                         1 + rng.Below(4));
    Graph pattern;
    if (round % 2 == 0) {
      pattern = BfsNeighborhoodQuery(
          target, static_cast<VertexId>(rng.Below(nt)), 2 + rng.Below(6));
    } else {
      pattern = MakeRandomGraph(2000 + round, 3 + rng.Below(5), rng.Below(4),
                                1 + rng.Below(4));
    }
    const bool oracle = ullmann.Contains(pattern, target);
    positives += oracle ? 1 : 0;

    if (Vf2Matcher().Contains(pattern, target) != oracle) {
      fail("Vf2Matcher::Contains disagrees with Ullmann", round);
    }
    MatchPlan plan;
    plan.Compile(pattern);
    if (ContainsIn(plan, target, ctx) != oracle) {
      fail("ContainsIn (plan reuse) disagrees with Ullmann", round);
    }
    const CsrGraphView view(target);
    if (ContainsPattern(pattern, view, ctx) != oracle) {
      fail("ContainsPattern (target reuse) disagrees with Ullmann", round);
    }
    const CsrGraphView range_view(target,
                                  CsrGraphView::EdgeOracle::kSortedRange);
    const CsrGraphView bitset_view(target, CsrGraphView::EdgeOracle::kBitset);
    if (PlanContains(plan, range_view, ctx) != oracle ||
        PlanContains(plan, bitset_view, ctx) != oracle) {
      fail("edge oracles disagree", round);
    }
  }
  if (positives < 30 || positives > 110) {
    fail("degenerate smoke workload (positives out of range)", positives);
  }

  // 2. Zero-allocation steady state: after one warm-up pass, a plan-reuse
  //    verification batch must not touch the allocator at all.
  const VerifyBatch batch = MakeVerifyBatch(64, 200);
  MatchPlan plan;
  plan.Compile(batch.query);
  size_t hits = 0;
  for (const Graph& target : batch.targets) {
    hits += ContainsIn(plan, target, ctx) ? 1 : 0;  // warm the arena
  }
  const uint64_t before = AllocationsNow();
  for (const Graph& target : batch.targets) {
    hits += ContainsIn(plan, target, ctx) ? 1 : 0;
  }
  const uint64_t steady_allocs = AllocationsNow() - before;
  // Half the batch contains the query by construction (planted verbatim),
  // and the batch ran twice (warm-up + measured pass).
  if (hits < batch.targets.size()) {
    fail("steady-state batch missed planted embeddings", hits);
  }
  if (steady_allocs != 0) {
    std::fprintf(stderr,
                 "SMOKE FAIL: steady-state verify batch performed %llu "
                 "allocations (expected 0)\n",
                 static_cast<unsigned long long>(steady_allocs));
    ++failures;
  }

  // 3. IdSet pruning equivalence: PruneCandidates must agree with the
  //    frozen scalar pipeline — outcome and per-entry removed sets — on
  //    randomized cache states spanning both answer representations.
  {
    Rng prng(777);
    PruneScratch scratch;
    for (size_t round = 0; round < 80; ++round) {
      const size_t universe = 100 + prng.Below(8000);
      const std::vector<GraphId> candidates =
          RandomSortedUniqueIds(prng, universe, prng.Below(universe));
      const size_t num_guarantee = prng.Below(3);
      const size_t num_intersect = prng.Below(3);
      std::vector<CachedQuery> entries(num_guarantee + num_intersect);
      std::vector<std::vector<GraphId>> answers;
      for (CachedQuery& entry : entries) {
        size_t size;
        const size_t die = prng.Below(8);
        if (die == 0 && num_guarantee == 0) {
          size = 0;  // exercises the §4.3 case-2 shortcut
        } else if (die < 5) {
          size = 1 + prng.Below(universe / 10 + 1);  // sparse: array
        } else {
          size = universe / 2 + prng.Below(universe / 2);  // dense: bitmap
        }
        std::vector<GraphId> answer = RandomSortedUniqueIds(prng, universe, size);
        answers.push_back(answer);
        entry.answer = IdSet::FromSortedUnique(std::move(answer), universe);
      }
      std::vector<const CachedQuery*> guarantee, intersect;
      std::vector<const std::vector<GraphId>*> sg, si;
      for (size_t i = 0; i < num_guarantee; ++i) {
        guarantee.push_back(&entries[i]);
        sg.push_back(&answers[i]);
      }
      for (size_t i = 0; i < num_intersect; ++i) {
        intersect.push_back(&entries[num_guarantee + i]);
        si.push_back(&answers[num_guarantee + i]);
      }
      const scalar_reference::ScalarOutcome expected =
          ScalarPruneReference(candidates, sg, si);
      const PruneOutcome& outcome = PruneCandidates(
          candidates, guarantee, intersect,
          [](PruneSide, size_t, std::span<const GraphId>) {}, scratch);
      if (outcome.guaranteed.ToVector() != expected.guaranteed ||
          outcome.remaining != expected.remaining ||
          outcome.empty_answer_shortcut != expected.empty_answer_shortcut) {
        fail("IdSet PruneCandidates disagrees with the scalar pipeline",
             round);
      }
    }
  }

  // 4. Zero-allocation steady state for the filtering pipeline: a warmed
  //    PruneCandidates and warmed Isub/Isuper probes must not touch the
  //    allocator at all.
  {
    const PruneFixture fx = MakePruneFixture(10000, 10000);
    PruneScratch scratch;
    auto noop = [](PruneSide, size_t, std::span<const GraphId>) {};
    PruneCandidates(fx.candidates, fx.guarantee, fx.intersect, noop,
                    scratch);  // warm the scratch
    const uint64_t prune_before = AllocationsNow();
    for (int pass = 0; pass < 3; ++pass) {
      PruneCandidates(fx.candidates, fx.guarantee, fx.intersect, noop,
                      scratch);
    }
    const uint64_t prune_allocs = AllocationsNow() - prune_before;
    if (prune_allocs != 0) {
      std::fprintf(stderr,
                   "SMOKE FAIL: steady-state PruneCandidates performed %llu "
                   "allocations (expected 0)\n",
                   static_cast<unsigned long long>(prune_allocs));
      ++failures;
    }

    // Probe indexes over a small cached-query population.
    PathEnumeratorOptions popts;
    popts.max_edges = 4;
    popts.include_single_vertices = true;
    const Graph host = MakeRandomGraph(55, 300, 150, 6);
    Rng crng(71);
    std::vector<std::shared_ptr<CachedQuery>> cached(40);
    for (size_t i = 0; i < cached.size(); ++i) {
      // Half the population grows from the probe query's own root, so BFS
      // nesting guarantees both sub- and supergraph hits below.
      const VertexId root =
          i % 2 == 0 ? 7 : static_cast<VertexId>(crng.Below(300));
      cached[i] = std::make_shared<CachedQuery>();
      cached[i]->graph = BfsNeighborhoodQuery(host, root, 4 + (i % 9) * 2);
      // As the cache builds its entries: probe data from the features the
      // query was probed with.
      cached[i]->probe = MakeProbeData(
          cached[i]->graph, CountPathFeatures(cached[i]->graph, popts));
    }
    ProbeIndex index(popts);
    index.Build(cached);
    const Graph probe_query = BfsNeighborhoodQuery(host, 7, 12);
    const PathFeatureCounts features = CountPathFeatures(probe_query, popts);
    std::vector<size_t> isub_hits, isuper_hits;
    // Warm-up: the probe scratch buffers rotate roles (swap-based
    // narrowing), so every buffer needs a few passes to reach the capacity
    // of its largest role before the steady state is allocation-free.
    for (int pass = 0; pass < 3; ++pass) {
      index.FindSupergraphsOf(probe_query, features, &isub_hits);
      index.FindSubgraphsOf(probe_query, features, &isuper_hits);
    }
    const uint64_t probe_before = AllocationsNow();
    size_t total_hits = 0;
    for (int pass = 0; pass < 3; ++pass) {
      index.FindSupergraphsOf(probe_query, features, &isub_hits);
      index.FindSubgraphsOf(probe_query, features, &isuper_hits);
      total_hits += isub_hits.size() + isuper_hits.size();
    }
    const uint64_t probe_allocs = AllocationsNow() - probe_before;
    if (probe_allocs != 0) {
      std::fprintf(stderr,
                   "SMOKE FAIL: steady-state index probes performed %llu "
                   "allocations (expected 0)\n",
                   static_cast<unsigned long long>(probe_allocs));
      ++failures;
    }
    if (total_hits == 0) {
      fail("degenerate probe workload (no index hits at all)", 0);
    }
  }

  // 5. Counting-filter equivalence: the containment kernel, through the
  //    GGSX host filter and through iGQ's Isub probe, must agree with the
  //    frozen tally on AIDS-like data, and a warmed Isub probe over a
  //    cache-sized population must not allocate.
  {
    AidsLikeParams params;
    params.num_graphs = 400;
    GraphDatabase db;
    db.graphs = MakeAidsLike(params, 4242);
    db.RefreshLabelCount();
    GgsxMethod ggsx;
    ggsx.Build(db);
    PathEnumeratorOptions popts;
    popts.max_edges = 4;
    popts.include_single_vertices = true;
    Rng frng(97);
    auto random_query = [&db, &frng](size_t min_edges, size_t spread) {
      const Graph& host = db.graphs[frng.Below(db.graphs.size())];
      return BfsNeighborhoodQuery(
          host, static_cast<VertexId>(frng.Below(host.NumVertices())),
          min_edges + frng.Below(spread));
    };
    FeatureCountIndex isub_index(popts);  // cached queries, as the probe's
    for (GraphId id = 0; id < 500; ++id) {
      isub_index.AddGraph(id, random_query(4, 16));
    }
    std::vector<PathFeatureCounts> isub_features;
    size_t host_candidates = 0, isub_candidates = 0;
    for (size_t round = 0; round < 200; ++round) {
      const Graph query = random_query(2, 12);
      const auto prepared = ggsx.Prepare(query);
      const std::vector<GraphId> host = ggsx.Filter(*prepared);
      if (host != ScalarCountingFilterReference(
                      ggsx.trie(),
                      static_cast<const PathPreparedQuery&>(*prepared)
                          .features(),
                      db.graphs.size())) {
        fail("GGSX host filter disagrees with the frozen tally", round);
      }
      host_candidates += host.size();
      isub_features.push_back(CountPathFeatures(query, popts));
      std::vector<GraphId> isub;
      isub_index.FindPotentialSupergraphsOf(isub_features.back(), &isub);
      if (isub != ScalarCountingFilterReference(isub_index.trie(),
                                                isub_features.back(),
                                                isub_index.NumGraphs())) {
        fail("Isub probe filter disagrees with the frozen tally", round);
      }
      isub_candidates += isub.size();
    }
    if (host_candidates == 0 || isub_candidates == 0) {
      fail("degenerate counting-filter workload (no candidates)", 0);
    }
    std::vector<GraphId> isub;
    for (const PathFeatureCounts& features : isub_features) {
      isub_index.FindPotentialSupergraphsOf(features, &isub);  // warm
    }
    const uint64_t isub_before = AllocationsNow();
    for (const PathFeatureCounts& features : isub_features) {
      isub_index.FindPotentialSupergraphsOf(features, &isub);
    }
    const uint64_t isub_allocs = AllocationsNow() - isub_before;
    if (isub_allocs != 0) {
      std::fprintf(stderr,
                   "SMOKE FAIL: steady-state Isub filter performed %llu "
                   "allocations (expected 0)\n",
                   static_cast<unsigned long long>(isub_allocs));
      ++failures;
    }
  }

  if (failures == 0) {
    std::printf(
        "SMOKE PASS: 120 matcher equivalence rounds x 5 entry points, "
        "80 IdSet<->scalar pruning rounds, 200 counting-filter rounds x "
        "2 callers, steady-state allocations (verify, prune, probes) = 0\n");
    return 0;
  }
  std::fprintf(stderr, "SMOKE: %d failure(s)\n", failures);
  return 1;
}

}  // namespace
}  // namespace igq

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return igq::RunSmoke();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
