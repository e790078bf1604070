// Property/fuzz suite for the adaptive IdSet algebra (common/id_set.h) and
// the pruning core rebuilt on it (igq/pruning.h):
//
//   * the array↔bitmap crossover heuristic is pinned exactly;
//   * every kernel is cross-checked against the std::set_* oracles on
//     randomized inputs covering all representation combinations, the
//     galloping skew paths, and the blocked bitmap paths;
//   * scratch reuse produces bit-identical results across repeated calls;
//   * PruneCandidates matches a frozen copy of the pre-IdSet scalar
//     implementation on randomized cache states — outcome AND the exact
//     credit-callback sequence (side, entry index, removed ids in order);
//   * a steady-state prune performs zero heap allocations.
#include "common/id_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <set>
#include <vector>

#include "common/rng.h"
#include "igq/pruning.h"
#include "tests/scalar_prune_reference.h"

// Global allocation counter (same hook as bench_micro_core): counts every
// operator new in this binary so the steady-state zero-allocation property
// can be asserted directly.
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

using scalar_reference::RandomSortedUniqueIds;
using scalar_reference::ScalarCreditEvent;
using scalar_reference::ScalarOutcome;
using scalar_reference::ScalarPruneReference;

std::vector<GraphId> RandomSortedUnique(Rng& rng, size_t universe,
                                        size_t target_size) {
  return RandomSortedUniqueIds(rng, universe, target_size);
}

// --- Crossover heuristic pins ------------------------------------------------

TEST(IdSetTest, CrossoverHeuristicPinned) {
  // Memory parity: bitmap exactly when size * 32 >= universe.
  EXPECT_FALSE(IdSet::WantsBitmap(31, 1000));  // 31*32 = 992 < 1000
  EXPECT_TRUE(IdSet::WantsBitmap(32, 1000));   // 32*32 = 1024 >= 1000
  EXPECT_FALSE(IdSet::WantsBitmap(0, 1000));
  // Unknown universe never gets a bitmap.
  EXPECT_FALSE(IdSet::WantsBitmap(1000000, 0));
  // Universe cap.
  EXPECT_TRUE(IdSet::WantsBitmap(IdSet::kBitmapMaxUniverse,
                                 IdSet::kBitmapMaxUniverse));
  EXPECT_FALSE(IdSet::WantsBitmap(IdSet::kBitmapMaxUniverse + 1,
                                  IdSet::kBitmapMaxUniverse + 1));
  // The constants themselves are part of the contract
  // (docs/PERFORMANCE.md documents them).
  EXPECT_EQ(IdSet::kBitmapDensityFactor, 32u);
  EXPECT_EQ(IdSet::kBitmapMaxUniverse, size_t{1} << 20);
}

TEST(IdSetTest, ReprFollowsHeuristic) {
  const size_t universe = 1000;
  std::vector<GraphId> sparse{1, 5, 900};
  std::vector<GraphId> dense;
  for (GraphId id = 0; id < 200; ++id) dense.push_back(5 * id);
  EXPECT_EQ(IdSet::FromSortedUnique(sparse, universe).repr(),
            IdSet::Repr::kArray);
  EXPECT_EQ(IdSet::FromSortedUnique(dense, universe).repr(),
            IdSet::Repr::kBitmap);
  EXPECT_EQ(IdSet::FromSortedUnique(dense, 0).repr(), IdSet::Repr::kArray);
}

// --- Construction and observers ----------------------------------------------

TEST(IdSetTest, FromIdsNormalizesUnsortedAndDuplicates) {
  const IdSet set = IdSet::FromIds({9, 3, 7, 3, 9}, 20);
  EXPECT_EQ(set.size(), 3u);
  EXPECT_EQ(set.ToVector(), (std::vector<GraphId>{3, 7, 9}));
}

TEST(IdSetTest, ContainsAndMaterializeAcrossReprs) {
  Rng rng(7);
  for (size_t round = 0; round < 40; ++round) {
    const size_t universe = 64 + rng.Below(2000);
    const size_t size = rng.Below(universe);
    const std::vector<GraphId> ids = RandomSortedUnique(rng, universe, size);
    const IdSet set = IdSet::FromSortedUnique(ids, universe);
    const std::set<GraphId> oracle(ids.begin(), ids.end());
    for (size_t probe = 0; probe < 50; ++probe) {
      const GraphId id = static_cast<GraphId>(rng.Below(universe));
      EXPECT_EQ(set.contains(id), oracle.count(id) > 0);
    }
    EXPECT_EQ(set.ToVector(), ids);
    EXPECT_EQ(set.size(), ids.size());
    std::vector<GraphId> visited;
    set.ForEach([&visited](GraphId id) { visited.push_back(id); });
    EXPECT_EQ(visited, ids);
  }
}

TEST(IdSetTest, EqualityIsContentBased) {
  // Same members, different representations (universe drives the repr).
  std::vector<GraphId> ids;
  for (GraphId id = 0; id < 64; ++id) ids.push_back(2 * id);
  const IdSet as_bitmap = IdSet::FromSortedUnique(ids, 200);
  const IdSet as_array = IdSet::FromSortedUnique(ids, 0);
  ASSERT_EQ(as_bitmap.repr(), IdSet::Repr::kBitmap);
  ASSERT_EQ(as_array.repr(), IdSet::Repr::kArray);
  EXPECT_TRUE(as_bitmap == as_array);
  const IdSet different = IdSet::FromSortedUnique({0, 2, 5}, 200);
  EXPECT_FALSE(as_bitmap == different);
}

// --- Kernels vs std::set_* oracles -------------------------------------------

TEST(IdSetTest, SpanKernelsMatchOracles) {
  Rng rng(11);
  std::vector<GraphId> out;
  for (size_t round = 0; round < 200; ++round) {
    const size_t universe = 32 + rng.Below(3000);
    // Skewed sizes on a third of the rounds to exercise the gallop path.
    const size_t size_a = rng.Below(universe);
    const size_t size_b =
        round % 3 == 0 ? rng.Below(4) : rng.Below(universe);
    const std::vector<GraphId> a = RandomSortedUnique(rng, universe, size_a);
    const std::vector<GraphId> b = RandomSortedUnique(rng, universe, size_b);

    std::vector<GraphId> expected;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(expected));
    IntersectSorted(a, b, &out);
    EXPECT_EQ(out, expected) << "intersect, round " << round;

    expected.clear();
    std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                   std::back_inserter(expected));
    UnionSorted(a, b, &out);
    EXPECT_EQ(out, expected) << "union, round " << round;

    expected.clear();
    std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(expected));
    DifferenceSorted(a, b, &out);
    EXPECT_EQ(out, expected) << "difference, round " << round;
  }
}

TEST(IdSetTest, WholeSetKernelsMatchOraclesAcrossReprs) {
  Rng rng(13);
  IdSet result;
  std::vector<GraphId> scratch;
  for (size_t round = 0; round < 150; ++round) {
    const size_t universe = 64 + rng.Below(2000);
    // Mix of densities so all four repr combinations occur; different
    // universes on some rounds force the non-blocked mixed path even for
    // two bitmaps.
    const std::vector<GraphId> a =
        RandomSortedUnique(rng, universe, rng.Below(universe));
    const std::vector<GraphId> b =
        RandomSortedUnique(rng, universe, rng.Below(universe));
    const size_t universe_b = round % 4 == 0 ? universe + 64 : universe;
    const IdSet sa = IdSet::FromSortedUnique(a, universe);
    const IdSet sb = IdSet::FromSortedUnique(b, universe_b);

    std::vector<GraphId> expected;
    std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                   std::back_inserter(expected));
    IdSetUnion(sa, sb, &result, &scratch);
    EXPECT_EQ(result.ToVector(), expected) << "union, round " << round;

    expected.clear();
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(expected));
    IdSetIntersect(sa, sb, &result, &scratch);
    EXPECT_EQ(result.ToVector(), expected) << "intersect, round " << round;

    expected.clear();
    std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(expected));
    IdSetDifference(sa, sb, &result, &scratch);
    EXPECT_EQ(result.ToVector(), expected) << "difference, round " << round;
  }
}

TEST(IdSetTest, PartitionMatchesOracleAcrossReprs) {
  Rng rng(17);
  std::vector<GraphId> kept, removed;
  for (size_t round = 0; round < 150; ++round) {
    const size_t universe = 64 + rng.Below(2000);
    const std::vector<GraphId> members =
        RandomSortedUnique(rng, universe, rng.Below(universe));
    // Skew the probe span on some rounds to hit the gallop path.
    const size_t probe_size =
        round % 3 == 0 ? rng.Below(4) : rng.Below(universe);
    const std::vector<GraphId> probes =
        RandomSortedUnique(rng, universe, probe_size);
    const IdSet set = IdSet::FromSortedUnique(members, universe);
    const std::set<GraphId> oracle(members.begin(), members.end());

    std::vector<GraphId> expected_kept, expected_removed;
    for (GraphId id : probes) {
      (oracle.count(id) > 0 ? expected_kept : expected_removed).push_back(id);
    }
    set.Partition(probes, &kept, &removed);
    EXPECT_EQ(kept, expected_kept) << "round " << round;
    EXPECT_EQ(removed, expected_removed) << "round " << round;
    // Null sinks are allowed.
    set.Partition(probes, &kept, nullptr);
    EXPECT_EQ(kept, expected_kept) << "round " << round;
    set.Partition(probes, nullptr, &removed);
    EXPECT_EQ(removed, expected_removed) << "round " << round;
  }
}

TEST(IdSetTest, ScratchReuseProducesIdenticalResults) {
  Rng rng(19);
  const size_t universe = 1500;
  const std::vector<GraphId> a = RandomSortedUnique(rng, universe, 700);
  const std::vector<GraphId> b = RandomSortedUnique(rng, universe, 40);
  const IdSet set = IdSet::FromSortedUnique(a, universe);

  // First pass into fresh vectors, second pass reusing their (now warm)
  // capacity — results must be bit-identical.
  std::vector<GraphId> out1, kept1, removed1;
  IntersectSorted(a, b, &out1);
  const std::vector<GraphId> first_out = out1;
  set.Partition(b, &kept1, &removed1);
  const std::vector<GraphId> first_kept = kept1, first_removed = removed1;
  for (int pass = 0; pass < 3; ++pass) {
    IntersectSorted(a, b, &out1);
    EXPECT_EQ(out1, first_out);
    set.Partition(b, &kept1, &removed1);
    EXPECT_EQ(kept1, first_kept);
    EXPECT_EQ(removed1, first_removed);
  }
}

TEST(IdSetTest, AssignReusesCapacityAndReadapts) {
  IdSet set;
  std::vector<GraphId> dense;
  for (GraphId id = 0; id < 500; ++id) dense.push_back(id);
  set.AssignSortedUnique(dense, 600);
  EXPECT_EQ(set.repr(), IdSet::Repr::kBitmap);
  EXPECT_EQ(set.size(), 500u);
  const std::vector<GraphId> sparse{1, 599};
  set.AssignSortedUnique(sparse, 600);
  EXPECT_EQ(set.repr(), IdSet::Repr::kArray);
  EXPECT_EQ(set.ToVector(), sparse);
  EXPECT_FALSE(set.contains(3));
}

// --- PruneCandidates vs the frozen scalar pipeline ---------------------------
//
// The reference lives in tests/scalar_prune_reference.h — ONE frozen copy
// shared with the `bench_micro_core --smoke` gate, so the unit-test oracle
// and the CI gate can never validate different behaviors.

// Randomized cache states: entries with answers of varied density (so both
// representations occur), candidate sets of varied size, a sprinkle of
// empty intersect answers to hit the §4.3 case-2 shortcut.
TEST(PruneCandidatesTest, MatchesFrozenScalarPipelineOnRandomizedStates) {
  Rng rng(20260728);
  PruneScratch scratch;
  size_t shortcut_rounds = 0, bitmap_answers = 0;
  for (size_t round = 0; round < 120; ++round) {
    const size_t universe = 50 + rng.Below(3000);
    const std::vector<GraphId> candidates =
        RandomSortedUnique(rng, universe, rng.Below(universe));

    const size_t num_guarantee = rng.Below(4);
    const size_t num_intersect = rng.Below(4);
    std::vector<CachedQuery> entries(num_guarantee + num_intersect);
    std::vector<std::vector<GraphId>> scalar_answers;
    for (CachedQuery& entry : entries) {
      // Density sweep: empty, sparse, and dense answers all occur. The
      // shortcut assertion inside PruneCandidates requires consistent
      // state (an empty intersect answer implies no guaranteed answers),
      // so empty answers are only generated when no guarantee side exists.
      size_t size = 0;
      const size_t die = rng.Below(10);
      if (die == 0 && num_guarantee == 0) {
        size = 0;  // empty: exercises the §4.3 case-2 shortcut
      } else if (die < 6) {
        size = 1 + rng.Below(universe / 8 + 1);  // sparse
      } else {
        size = universe / 2 + rng.Below(universe / 2);  // dense -> bitmap
      }
      std::vector<GraphId> answer = RandomSortedUnique(rng, universe, size);
      scalar_answers.push_back(answer);
      entry.answer = IdSet::FromSortedUnique(std::move(answer), universe);
      if (entry.answer.repr() == IdSet::Repr::kBitmap) ++bitmap_answers;
    }

    std::vector<const CachedQuery*> guarantee, intersect;
    std::vector<const std::vector<GraphId>*> scalar_guarantee,
        scalar_intersect;
    for (size_t i = 0; i < num_guarantee; ++i) {
      guarantee.push_back(&entries[i]);
      scalar_guarantee.push_back(&scalar_answers[i]);
    }
    for (size_t i = 0; i < num_intersect; ++i) {
      intersect.push_back(&entries[num_guarantee + i]);
      scalar_intersect.push_back(&scalar_answers[num_guarantee + i]);
    }

    std::vector<ScalarCreditEvent> expected_credits;
    const ScalarOutcome expected = ScalarPruneReference(
        candidates, scalar_guarantee, scalar_intersect, &expected_credits);

    std::vector<ScalarCreditEvent> credits;
    const PruneOutcome& outcome = PruneCandidates(
        candidates, guarantee, intersect,
        [&credits](PruneSide side, size_t index,
                   std::span<const GraphId> removed) {
          credits.push_back(
              {side, index, {removed.begin(), removed.end()}});
        },
        scratch);

    EXPECT_EQ(outcome.guaranteed.ToVector(), expected.guaranteed)
        << "round " << round;
    EXPECT_EQ(outcome.remaining, expected.remaining) << "round " << round;
    EXPECT_EQ(outcome.empty_answer_shortcut, expected.empty_answer_shortcut)
        << "round " << round;
    EXPECT_EQ(credits, expected_credits) << "round " << round;
    shortcut_rounds += outcome.empty_answer_shortcut ? 1 : 0;
  }
  // The workload must actually exercise the interesting paths.
  EXPECT_GT(shortcut_rounds, 0u);
  EXPECT_GT(bitmap_answers, 0u);
}

TEST(PruneCandidatesTest, EmptyIntersectAnswerShortCircuits) {
  const size_t universe = 100;
  std::vector<CachedQuery> entries(2);
  entries[0].answer = IdSet::FromSortedUnique({}, universe);  // empty
  entries[1].answer = IdSet::FromSortedUnique({1, 2, 3}, universe);
  const std::vector<const CachedQuery*> intersect{&entries[0], &entries[1]};
  const std::vector<GraphId> candidates{1, 2, 3, 4};
  PruneScratch scratch;
  size_t credited = 0;
  const PruneOutcome& outcome = PruneCandidates(
      candidates, {}, intersect,
      [&credited](PruneSide, size_t, std::span<const GraphId>) {
        ++credited;
      },
      scratch);
  EXPECT_TRUE(outcome.empty_answer_shortcut);
  EXPECT_TRUE(outcome.remaining.empty());
  EXPECT_TRUE(outcome.guaranteed.empty());
  // The entry after the shortcut is never consulted and earns no credit.
  EXPECT_EQ(credited, 1u);
}

TEST(PruneCandidatesTest, IsomorphOnBothSidesLeavesNothingToVerify) {
  // A cached isomorph of the query contains it and is contained in it, so
  // a probe reports it on both sides. Its answer is then guaranteed and
  // bounds every other candidate: nothing is left to verify, and the
  // assembled answer is its answer.
  const size_t universe = 100;
  std::vector<CachedQuery> entries(1);
  entries[0].answer = IdSet::FromSortedUnique({2, 5, 7}, universe);
  const std::vector<const CachedQuery*> both{&entries[0]};
  const std::vector<GraphId> candidates{1, 2, 4, 5, 7, 9};
  PruneScratch scratch;
  const PruneOutcome& outcome = PruneCandidates(
      candidates, both, both,
      [](PruneSide, size_t, std::span<const GraphId>) {}, scratch);
  EXPECT_TRUE(outcome.remaining.empty());
  std::vector<GraphId> answer;
  AssembleAnswer(outcome, {}, scratch, &answer);
  EXPECT_EQ(answer, (std::vector<GraphId>{2, 5, 7}));
}

TEST(PruneCandidatesTest, SteadyStatePruneIsAllocationFree) {
  Rng rng(31);
  const size_t universe = 2048;
  const std::vector<GraphId> candidates =
      RandomSortedUnique(rng, universe, 900);
  std::vector<CachedQuery> entries(4);
  entries[0].answer = IdSet::FromSortedUnique(
      RandomSortedUnique(rng, universe, 1200), universe);  // dense: bitmap
  entries[1].answer = IdSet::FromSortedUnique(
      RandomSortedUnique(rng, universe, 40), universe);  // sparse: array
  entries[2].answer = IdSet::FromSortedUnique(
      RandomSortedUnique(rng, universe, 800), universe);
  entries[3].answer = IdSet::FromSortedUnique(
      RandomSortedUnique(rng, universe, 10), universe);
  const std::vector<const CachedQuery*> guarantee{&entries[0], &entries[1]};
  const std::vector<const CachedQuery*> intersect{&entries[2], &entries[3]};

  PruneScratch scratch;
  auto noop = [](PruneSide, size_t, std::span<const GraphId>) {};
  // Warm-up pass grows every scratch buffer to its steady-state capacity.
  PruneCandidates(candidates, guarantee, intersect, noop, scratch);
  const std::vector<GraphId> first = scratch.outcome.remaining;
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int pass = 0; pass < 5; ++pass) {
    PruneCandidates(candidates, guarantee, intersect, noop, scratch);
  }
  const uint64_t allocations =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(scratch.outcome.remaining, first);
}

}  // namespace
}  // namespace igq
