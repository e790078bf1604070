// Cross-module property tests (parameterized sweeps): invariants that must
// hold for arbitrary inputs, checked over seeded random instances.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "common/log_space.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "datasets/profiles.h"
#include "graph/algorithms.h"
#include "graph/graph_io.h"
#include "methods/feature_count_index.h"
#include "methods/registry.h"
#include "tests/oracle/vf2.h"
#include "tests/test_util.h"
#include "workload/query_generator.h"

namespace igq {
namespace {

// --- Containment chains: BFS extraction is monotone in the size budget. ---

class BfsNestingTest : public ::testing::TestWithParam<int> {};

TEST_P(BfsNestingTest, LargerBudgetsContainSmallerOnes) {
  Rng rng(5000 + GetParam());
  const Graph host = testing::RandomConnectedGraph(rng, 30, 18, 3);
  const VertexId seed = static_cast<VertexId>(rng.Below(30));
  Graph previous;
  for (size_t edges : {2u, 5u, 9u, 14u, 20u}) {
    const Graph current = BfsNeighborhoodQuery(host, seed, edges);
    EXPECT_TRUE(Vf2Matcher().Contains(current, host));
    if (!previous.Empty()) {
      EXPECT_TRUE(Vf2Matcher().Contains(previous, current))
          << "size " << edges << " does not contain its predecessor";
    }
    previous = current;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BfsNestingTest, ::testing::Range(0, 12));

// --- Subgraph relation is transitive and preserved by the matchers. ---

class TransitivityTest : public ::testing::TestWithParam<int> {};

TEST_P(TransitivityTest, ContainmentComposes) {
  Rng rng(6000 + GetParam());
  const Graph big = testing::RandomConnectedGraph(rng, 24, 14, 2);
  const Graph mid = testing::RandomSubgraphOf(rng, big, 10);
  const Graph small = testing::RandomSubgraphOf(rng, mid, 4);
  EXPECT_TRUE(Vf2Matcher().Contains(small, mid));
  EXPECT_TRUE(Vf2Matcher().Contains(mid, big));
  EXPECT_TRUE(Vf2Matcher().Contains(small, big));  // transitivity
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransitivityTest, ::testing::Range(0, 12));

// --- Every method's filter is a superset of the true answer on every
// --- dataset profile (the no-false-negative contract, broadly). ---

struct ProfileMethodCase {
  const char* dataset;
  const char* method;
};

class FilterContractTest
    : public ::testing::TestWithParam<ProfileMethodCase> {};

TEST_P(FilterContractTest, NoFalseNegativesOnProfile) {
  const GraphDatabase db = MakeDataset(GetParam().dataset, 0.004, 99);
  ASSERT_FALSE(db.graphs.empty());
  auto method =
      MethodRegistry::Create(QueryDirection::kSubgraph, GetParam().method);
  ASSERT_NE(method, nullptr);
  method->Build(db);

  WorkloadSpec spec = MakeWorkloadSpec("uni-uni", 1.4, 12, 31);
  for (const WorkloadQuery& wq : GenerateWorkload(db.graphs, spec)) {
    auto prepared = method->Prepare(wq.graph);
    std::vector<GraphId> candidates = method->Filter(*prepared);
    std::sort(candidates.begin(), candidates.end());
    for (GraphId id = 0; id < db.graphs.size(); ++id) {
      if (Vf2Matcher::FindEmbedding(wq.graph, db.graphs[id]).has_value()) {
        EXPECT_TRUE(
            std::binary_search(candidates.begin(), candidates.end(), id))
            << GetParam().method << " dropped a true answer on "
            << GetParam().dataset;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ProfilesTimesMethods, FilterContractTest,
    ::testing::Values(ProfileMethodCase{"aids", "ggsx"},
                      ProfileMethodCase{"aids", "grapes"},
                      ProfileMethodCase{"aids", "ctindex"},
                      ProfileMethodCase{"ppi", "ggsx"},
                      ProfileMethodCase{"ppi", "grapes"},
                      ProfileMethodCase{"synthetic", "ggsx"},
                      ProfileMethodCase{"synthetic", "grapes"}),
    [](const ::testing::TestParamInfo<ProfileMethodCase>& info) {
      return std::string(info.param.dataset) + "_" + info.param.method;
    });

// --- Algorithm 2's candidate set is a superset of the true subgraphs for
// --- randomly grown supergraph queries. ---

class IsuperContractTest : public ::testing::TestWithParam<int> {};

TEST_P(IsuperContractTest, CandidatesCoverTrueSubgraphs) {
  Rng rng(7000 + GetParam());
  FeatureCountIndex index;
  std::vector<Graph> stored;
  const Graph universe = testing::RandomConnectedGraph(rng, 40, 25, 3);
  for (GraphId i = 0; i < 15; ++i) {
    stored.push_back(testing::RandomSubgraphOf(rng, universe, 3 + i % 6));
    index.AddGraph(i, stored.back());
  }
  // Query: a larger region of the same universe.
  const Graph query = testing::RandomSubgraphOf(rng, universe, 18);
  std::vector<GraphId> candidates = index.FindPotentialSubgraphsOf(query);
  std::sort(candidates.begin(), candidates.end());
  for (GraphId i = 0; i < stored.size(); ++i) {
    if (Vf2Matcher::FindEmbedding(stored[i], query).has_value()) {
      EXPECT_TRUE(std::binary_search(candidates.begin(), candidates.end(), i))
          << "stored graph " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IsuperContractTest, ::testing::Range(0, 15));

// --- Graph I/O round-trips every dataset profile bit-exactly. ---

class IoRoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(IoRoundTripTest, ProfileRoundTrips) {
  const GraphDatabase db = MakeDataset(GetParam(), 0.005, 4);
  ASSERT_FALSE(db.graphs.empty());
  std::stringstream buffer;
  WriteGraphs(buffer, db.graphs);
  const auto loaded = ReadGraphs(buffer);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), db.graphs.size());
  for (size_t i = 0; i < db.graphs.size(); ++i) {
    EXPECT_TRUE((*loaded)[i] == db.graphs[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Profiles, IoRoundTripTest,
                         ::testing::Values("aids", "pdbs", "ppi", "synthetic"));

// --- LogValue arithmetic matches linear arithmetic where both exist. ---

class LogValueSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(LogValueSweepTest, SumsMatchLinearReference) {
  Rng rng(8000 + GetParam());
  double linear = 0.0;
  LogValue log_sum = LogValue::Zero();
  for (int i = 0; i < 50; ++i) {
    const double x = rng.NextDouble() * 1e6;
    linear += x;
    log_sum += LogValue::FromLinear(x);
  }
  EXPECT_NEAR(log_sum.ToLinear() / linear, 1.0, 1e-9);
}

TEST_P(LogValueSweepTest, AdditionIsCommutative) {
  Rng rng(8100 + GetParam());
  const LogValue a = LogValue::FromLog(rng.NextDouble() * 1000);
  const LogValue b = LogValue::FromLog(rng.NextDouble() * 1000);
  EXPECT_NEAR((a + b).log(), (b + a).log(), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LogValueSweepTest, ::testing::Range(0, 8));

// --- Zipf sampler: CDF is monotone and empirical rank-ordering holds. ---

TEST(ZipfPropertyTest, LowerRanksAreMoreFrequent) {
  Rng rng(17);
  ZipfSampler sampler(20, 1.4);
  std::vector<int> counts(20, 0);
  for (int i = 0; i < 20000; ++i) ++counts[sampler.Sample(rng)];
  // Aggregate adjacent ranks to smooth noise: first 5 > next 5 > rest.
  const int first = counts[0] + counts[1] + counts[2] + counts[3] + counts[4];
  int second = 0, rest = 0;
  for (int k = 5; k < 10; ++k) second += counts[k];
  for (int k = 10; k < 20; ++k) rest += counts[k];
  EXPECT_GT(first, second);
  EXPECT_GT(second, rest);
}

// --- Workload generation: zipf-zipf at high α produces repeats (the very
// --- phenomenon iGQ exploits), uni-uni at the same size does not as much.

TEST(WorkloadPropertyTest, SkewYieldsMoreExactRepeats) {
  const GraphDatabase db = MakeDataset("aids", 0.02, 3);
  auto count_repeats = [&db](const std::string& name, double alpha) {
    const WorkloadSpec spec = MakeWorkloadSpec(name, alpha, 220, 77);
    const auto workload = GenerateWorkload(db.graphs, spec);
    size_t repeats = 0;
    for (size_t i = 0; i < workload.size(); ++i) {
      for (size_t j = 0; j < i; ++j) {
        if (workload[i].graph == workload[j].graph) {
          ++repeats;
          break;
        }
      }
    }
    return repeats;
  };
  EXPECT_GE(count_repeats("zipf-zipf", 2.0), count_repeats("uni-uni", 1.4));
}

// --- Dataset profiles: deterministic, and distinct seeds give distinct
// --- collections for every profile. ---

class ProfileDeterminismTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ProfileDeterminismTest, SeedControlsContent) {
  const GraphDatabase a = MakeDataset(GetParam(), 0.004, 10);
  const GraphDatabase b = MakeDataset(GetParam(), 0.004, 10);
  const GraphDatabase c = MakeDataset(GetParam(), 0.004, 11);
  ASSERT_EQ(a.graphs.size(), b.graphs.size());
  for (size_t i = 0; i < a.graphs.size(); ++i) {
    EXPECT_TRUE(a.graphs[i] == b.graphs[i]);
  }
  bool any_difference = false;
  for (size_t i = 0; i < std::min(a.graphs.size(), c.graphs.size()); ++i) {
    if (!(a.graphs[i] == c.graphs[i])) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

INSTANTIATE_TEST_SUITE_P(Profiles, ProfileDeterminismTest,
                         ::testing::Values("aids", "pdbs", "ppi", "synthetic"));

}  // namespace
}  // namespace igq
