// Randomized equivalence suite for the zero-allocation matching core.
//
// Cross-checks, over ~200 random labeled graphs, the new-core VF2 adapter
// and plan-reuse entry points against (a) the migrated Ullmann matcher (an
// algorithmically independent oracle) and (b) a frozen copy of the
// pre-refactor recursive VF2 (below), including embedding existence,
// embedding counts with and without limits, restricted/`allowed` masks, and
// exact search-state counts — the refactor reorganized the search's memory,
// it must not change which states the search visits.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "graph/csr_view.h"
#include "isomorphism/match_core.h"
#include "tests/oracle/ullmann.h"
#include "tests/oracle/vf2.h"
#include "tests/test_util.h"

namespace igq {
namespace {

// ---------------------------------------------------------------------------
// Frozen pre-refactor reference: the recursive VF2 exactly as it shipped
// before the matching-core rewrite (per-pair plan build, vector<bool> used
// set, per-candidate lookahead rescan), plus a search-state counter.
// ---------------------------------------------------------------------------
namespace reference {

constexpr VertexId kUnmapped = UINT32_MAX;

struct SearchPlan {
  std::vector<VertexId> order;
  std::vector<VertexId> parent;
};

SearchPlan BuildPlan(const Graph& pattern) {
  const size_t n = pattern.NumVertices();
  SearchPlan plan;
  plan.order.reserve(n);
  plan.parent.assign(n, kUnmapped);
  std::vector<bool> placed(n, false);
  std::vector<uint32_t> placed_neighbors(n, 0);

  for (size_t placed_count = 0; placed_count < n; ++placed_count) {
    VertexId best = kUnmapped;
    for (VertexId v = 0; v < n; ++v) {
      if (placed[v]) continue;
      if (best == kUnmapped || placed_neighbors[v] > placed_neighbors[best] ||
          (placed_neighbors[v] == placed_neighbors[best] &&
           pattern.Degree(v) > pattern.Degree(best))) {
        best = v;
      }
    }
    placed[best] = true;
    for (VertexId w : pattern.Neighbors(best)) {
      if (placed[w] && w != best) {
        plan.parent[plan.order.size()] = w;
        break;
      }
    }
    plan.order.push_back(best);
    for (VertexId w : pattern.Neighbors(best)) ++placed_neighbors[w];
  }
  return plan;
}

class Vf2State {
 public:
  Vf2State(const Graph& pattern, const Graph& target,
           const std::vector<bool>* allowed)
      : pattern_(pattern),
        target_(target),
        allowed_(allowed),
        plan_(BuildPlan(pattern)),
        pattern_map_(pattern.NumVertices(), kUnmapped),
        target_used_(target.NumVertices(), false) {}

  bool Enumerate(
      const std::function<bool(const std::vector<VertexId>&)>& on_match) {
    states_ = 0;
    return Recurse(0, on_match);
  }

  uint64_t states() const { return states_; }

 private:
  bool Feasible(VertexId u, VertexId x) const {
    if (target_used_[x]) return false;
    if (allowed_ != nullptr && !(*allowed_)[x]) return false;
    if (pattern_.label(u) != target_.label(x)) return false;
    if (target_.Degree(x) < pattern_.Degree(u)) return false;
    size_t unmapped_neighbors = 0;
    for (VertexId un : pattern_.Neighbors(u)) {
      const VertexId image = pattern_map_[un];
      if (image == kUnmapped) {
        ++unmapped_neighbors;
      } else if (!target_.HasEdge(x, image)) {
        return false;
      }
    }
    size_t free_target_neighbors = 0;
    for (VertexId xn : target_.Neighbors(x)) {
      if (!target_used_[xn] && (allowed_ == nullptr || (*allowed_)[xn])) {
        ++free_target_neighbors;
      }
    }
    return free_target_neighbors >= unmapped_neighbors;
  }

  bool Recurse(size_t depth,
               const std::function<bool(const std::vector<VertexId>&)>&
                   on_match) {
    ++states_;
    if (depth == plan_.order.size()) return on_match(pattern_map_);
    const VertexId u = plan_.order[depth];
    const VertexId parent = plan_.parent[depth];

    if (parent != kUnmapped) {
      for (VertexId x : target_.Neighbors(pattern_map_[parent])) {
        if (!Feasible(u, x)) continue;
        pattern_map_[u] = x;
        target_used_[x] = true;
        const bool keep_going = Recurse(depth + 1, on_match);
        target_used_[x] = false;
        pattern_map_[u] = kUnmapped;
        if (!keep_going) return false;
      }
    } else {
      for (VertexId x = 0; x < target_.NumVertices(); ++x) {
        if (!Feasible(u, x)) continue;
        pattern_map_[u] = x;
        target_used_[x] = true;
        const bool keep_going = Recurse(depth + 1, on_match);
        target_used_[x] = false;
        pattern_map_[u] = kUnmapped;
        if (!keep_going) return false;
      }
    }
    return true;
  }

  const Graph& pattern_;
  const Graph& target_;
  const std::vector<bool>* allowed_;
  SearchPlan plan_;
  std::vector<VertexId> pattern_map_;
  std::vector<bool> target_used_;
  uint64_t states_ = 0;
};

std::optional<std::vector<VertexId>> FindEmbedding(
    const Graph& pattern, const Graph& target,
    const std::vector<bool>* allowed, uint64_t* states) {
  if (states != nullptr) *states = 0;
  if (pattern.NumVertices() == 0) return std::vector<VertexId>{};
  if (pattern.NumVertices() > target.NumVertices() ||
      pattern.NumEdges() > target.NumEdges()) {
    return std::nullopt;
  }
  std::optional<std::vector<VertexId>> found;
  Vf2State state(pattern, target, allowed);
  state.Enumerate([&found](const std::vector<VertexId>& mapping) {
    found = mapping;
    return false;
  });
  if (states != nullptr) *states = state.states();
  return found;
}

uint64_t CountEmbeddings(const Graph& pattern, const Graph& target,
                         uint64_t limit, uint64_t* states) {
  if (states != nullptr) *states = 0;
  if (pattern.NumVertices() == 0) return 1;
  if (pattern.NumVertices() > target.NumVertices() ||
      pattern.NumEdges() > target.NumEdges()) {
    return 0;
  }
  uint64_t count = 0;
  Vf2State state(pattern, target, nullptr);
  state.Enumerate([&count, limit](const std::vector<VertexId>&) {
    ++count;
    return limit == 0 || count < limit;
  });
  if (states != nullptr) *states = state.states();
  return count;
}

}  // namespace reference

// True iff `mapping` is an injective, label-preserving embedding of
// `pattern` into `target` covering every pattern edge.
bool IsValidEmbedding(const Graph& pattern, const Graph& target,
                      const std::vector<VertexId>& mapping) {
  if (mapping.size() != pattern.NumVertices()) return false;
  std::vector<bool> image_used(target.NumVertices(), false);
  for (VertexId u = 0; u < pattern.NumVertices(); ++u) {
    const VertexId x = mapping[u];
    if (x >= target.NumVertices()) return false;
    if (image_used[x]) return false;
    image_used[x] = true;
    if (pattern.label(u) != target.label(x)) return false;
  }
  for (VertexId u = 0; u < pattern.NumVertices(); ++u) {
    for (VertexId w : pattern.Neighbors(u)) {
      if (u < w && !target.HasEdge(mapping[u], mapping[w])) return false;
    }
  }
  return true;
}

struct FuzzCase {
  Graph pattern;
  Graph target;
};

// Mix of planted-positive pairs (pattern extracted from the target, so an
// embedding exists by construction), independent random pairs, and
// permuted-isomorphic pairs.
FuzzCase MakeCase(Rng& rng, size_t round) {
  FuzzCase c;
  const size_t target_vertices = 6 + rng.Below(18);
  const size_t extra_edges = rng.Below(2 * target_vertices);
  const size_t labels = 1 + rng.Below(4);
  c.target = testing::RandomConnectedGraph(rng, target_vertices, extra_edges,
                                           labels);
  switch (round % 3) {
    case 0:  // planted positive
      c.pattern = testing::RandomSubgraphOf(rng, c.target,
                                            2 + rng.Below(6));
      break;
    case 1:  // independent (usually negative)
      c.pattern = testing::RandomConnectedGraph(rng, 3 + rng.Below(5),
                                                rng.Below(4), labels);
      break;
    default:  // isomorphic permutation of a planted subgraph
      c.pattern = testing::PermuteVertices(
          rng, testing::RandomSubgraphOf(rng, c.target, 2 + rng.Below(5)));
      break;
  }
  return c;
}

TEST(MatcherFuzzTest, NewCoreMatchesReferenceAndUllmann) {
  Rng rng(20260728);
  UllmannMatcher ullmann;
  size_t positives = 0;
  for (size_t round = 0; round < 200; ++round) {
    const FuzzCase c = MakeCase(rng, round);
    SCOPED_TRACE(::testing::Message()
                 << "round " << round << " pattern=" << c.pattern.DebugString()
                 << " target=" << c.target.DebugString());

    uint64_t ref_states = 0;
    const auto ref = reference::FindEmbedding(c.pattern, c.target, nullptr,
                                              &ref_states);
    MatchStats stats;
    const auto mine = Vf2Matcher::FindEmbedding(c.pattern, c.target, &stats);

    ASSERT_EQ(ref.has_value(), mine.has_value());
    EXPECT_EQ(ullmann.Contains(c.pattern, c.target), mine.has_value());
    // The refactor must visit exactly the states the old search visited.
    EXPECT_EQ(stats.states, ref_states);
    if (mine.has_value()) {
      ++positives;
      EXPECT_TRUE(IsValidEmbedding(c.pattern, c.target, *mine));
    }
  }
  // The generator plants embeddings in two of three rounds; if positives
  // collapse the suite stopped testing anything interesting.
  EXPECT_GE(positives, 100u);
}

TEST(MatcherFuzzTest, CountsMatchReferenceWithAndWithoutLimits) {
  Rng rng(77);
  for (size_t round = 0; round < 60; ++round) {
    // Small targets keep unlimited counting tractable.
    Graph target = testing::RandomConnectedGraph(rng, 5 + rng.Below(6),
                                                 rng.Below(8), 1 + rng.Below(3));
    Graph pattern = (round % 2 == 0)
                        ? testing::RandomSubgraphOf(rng, target, 2 + rng.Below(4))
                        : testing::RandomConnectedGraph(rng, 3 + rng.Below(3),
                                                        rng.Below(3), 2);
    SCOPED_TRACE(::testing::Message()
                 << "round " << round << " pattern=" << pattern.DebugString()
                 << " target=" << target.DebugString());

    uint64_t ref_states = 0;
    const uint64_t ref_all =
        reference::CountEmbeddings(pattern, target, 0, &ref_states);
    MatchStats stats;
    EXPECT_EQ(Vf2Matcher::CountEmbeddings(pattern, target, 0, &stats),
              ref_all);
    EXPECT_EQ(stats.states, ref_states);

    const uint64_t limit = 1 + rng.Below(5);
    EXPECT_EQ(Vf2Matcher::CountEmbeddings(pattern, target, limit),
              reference::CountEmbeddings(pattern, target, limit, nullptr));
  }
}

TEST(MatcherFuzzTest, RestrictedMasksMatchReference) {
  Rng rng(4242);
  size_t flipped_by_mask = 0;
  for (size_t round = 0; round < 120; ++round) {
    Graph target = testing::RandomConnectedGraph(rng, 8 + rng.Below(10),
                                                 rng.Below(16), 1 + rng.Below(3));
    Graph pattern = testing::RandomSubgraphOf(rng, target, 2 + rng.Below(5));
    // Random mask keeping ~70% of target vertices.
    std::vector<bool> allowed(target.NumVertices(), false);
    for (size_t v = 0; v < allowed.size(); ++v) {
      allowed[v] = rng.Below(10) < 7;
    }
    SCOPED_TRACE(::testing::Message()
                 << "round " << round << " pattern=" << pattern.DebugString()
                 << " target=" << target.DebugString());

    uint64_t ref_states = 0;
    const auto ref = reference::FindEmbedding(pattern, target, &allowed,
                                              &ref_states);
    MatchStats stats;
    const auto mine =
        Vf2Matcher::FindEmbeddingRestricted(pattern, target, &allowed, &stats);
    ASSERT_EQ(ref.has_value(), mine.has_value());
    EXPECT_EQ(stats.states, ref_states);
    if (mine.has_value()) {
      EXPECT_TRUE(IsValidEmbedding(pattern, target, *mine));
      for (VertexId x : *mine) EXPECT_TRUE(allowed[x]);
    } else if (Vf2Matcher::FindEmbedding(pattern, target).has_value()) {
      ++flipped_by_mask;  // the mask, not the structure, blocked it
    }
  }
  EXPECT_GT(flipped_by_mask, 0u);  // masks must actually bite
}

TEST(MatcherFuzzTest, PlanReuseEntryPointsAgreeWithAdapters) {
  Rng rng(99);
  MatchContext& ctx = MatchContext::ThreadLocal();
  for (size_t round = 0; round < 60; ++round) {
    const FuzzCase c = MakeCase(rng, round);
    SCOPED_TRACE(::testing::Message() << "round " << round);
    const bool expected = Vf2Matcher::FindEmbedding(c.pattern, c.target)
                              .has_value();

    // Batch path A: plan fixed, target built per candidate.
    MatchPlan plan;
    plan.Compile(c.pattern);
    EXPECT_EQ(ContainsIn(plan, c.target, ctx), expected);

    // Batch path B (supergraph direction): target view fixed, pattern
    // compiled per candidate into the context scratch.
    CsrGraphView view(c.target);
    EXPECT_EQ(ContainsPattern(c.pattern, view, ctx), expected);

    // Direct enumeration against both oracle modes must agree.
    CsrGraphView bitset_view(c.target, CsrGraphView::EdgeOracle::kBitset);
    CsrGraphView range_view(c.target, CsrGraphView::EdgeOracle::kSortedRange);
    EXPECT_EQ(PlanContains(plan, bitset_view, ctx), expected);
    EXPECT_EQ(PlanContains(plan, range_view, ctx), expected);
    EXPECT_EQ(PlanCountEmbeddings(plan, bitset_view, ctx, 3),
              PlanCountEmbeddings(plan, range_view, ctx, 3));
  }
}

TEST(MatcherFuzzTest, ScopedAllowedDoesNotLeakIntoNextSearch) {
  // A restricted search followed by an unrestricted one on the same thread
  // must not inherit the mask (the old API took the mask per call; the
  // context-scratch design must behave identically).
  Graph target = testing::Triangle(1, 2, 3);
  Graph pattern = testing::PathGraph({1, 2});
  std::vector<bool> nothing_allowed(target.NumVertices(), false);
  EXPECT_FALSE(
      Vf2Matcher::FindEmbeddingRestricted(pattern, target, &nothing_allowed)
          .has_value());
  EXPECT_TRUE(Vf2Matcher::FindEmbedding(pattern, target).has_value());
}

}  // namespace
}  // namespace igq
