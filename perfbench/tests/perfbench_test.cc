// Tests of the benchmark's own machinery: the percentile helper, span
// nesting and self times, the decorators' transparency, and small runs of
// every workload.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "datasets/profiles.h"
#include "durability/fault_fs.h"
#include "durability/wal.h"
#include "igq/engine.h"
#include "methods/registry.h"
#include "lib/stats.h"
#include "lib/trace.h"
#include "lib/workloads.h"
#include "workload/query_generator.h"

namespace perfbench {
namespace {

TEST(Percentile, MatchesHandComputedValues) {
  // Sorted: 15 20 35 40 50; rank h = q * 4.
  const std::vector<double> samples = {40, 15, 50, 35, 20};
  EXPECT_DOUBLE_EQ(Percentile(samples, 0.0), 15);
  EXPECT_DOUBLE_EQ(Percentile(samples, 0.5), 35);
  EXPECT_DOUBLE_EQ(Percentile(samples, 0.4), 29);  // 20 + 0.6 * 15
  EXPECT_DOUBLE_EQ(Percentile(samples, 0.9), 46);  // 40 + 0.6 * 10
  EXPECT_DOUBLE_EQ(Percentile(samples, 1.0), 50);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0);
  EXPECT_DOUBLE_EQ(Percentile({7}, 0.99), 7);

  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT_NEAR(Percentile(hundred, 0.99), 99.01, 1e-9);  // h = 98.01
}

TEST(Percentile, CountsSamplesBeyondTheRank) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(100, 0.99), 1u);
  EXPECT_EQ(SamplesBeyond(0, 0.99), 0u);
  EXPECT_EQ(SamplesBeyond(5, 0.5), 2u);
}

Span MakeSpan(uint64_t id, uint64_t parent, int64_t start, int64_t end) {
  Span span;
  span.id = id;
  span.parent = parent;
  span.request = 1;
  span.start_ns = start;
  span.end_ns = end;
  return span;
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 100),    // root
      MakeSpan(2, 1, 10, 30),    // overlaps the next child
      MakeSpan(3, 1, 20, 50),
      MakeSpan(4, 1, 60, 70),
      MakeSpan(5, 4, 62, 65),    // grandchild: counts against span 4 only
      MakeSpan(6, 99, 0, 1000),  // parent not recorded: ignored
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 10 - 3);
  EXPECT_EQ(self[4], 3);
  EXPECT_EQ(self[5], 1000);
  EXPECT_EQ(CoveredNs({{-5, 10}, {8, 20}, {30, 200}}, 0, 100), 20 + 70);
}

// A small subgraph deployment whose method and WAL file system record spans.
struct TracedDeployment {
  igq::GraphDatabase db;
  std::unique_ptr<igq::Method> method;
  SpanRecorder recorder;
  std::unique_ptr<TracingMethod> tracing;
  igq::durability::InMemoryFileSystem memory_fs;
  std::unique_ptr<TracingFileSystem> fs;
  std::unique_ptr<igq::durability::WalWriter> wal;
  std::unique_ptr<igq::QueryEngine> engine;

  TracedDeployment() {
    db = igq::MakeDataset("aids", 0.05, 7);
    method = igq::MethodRegistry::Create(igq::QueryDirection::kSubgraph, "ggsx");
    method->Build(db);
    tracing = std::make_unique<TracingMethod>(*method, recorder);
    fs = std::make_unique<TracingFileSystem>(memory_fs, recorder);
    igq::durability::WalOptions wal_options;
    wal_options.sync_policy = igq::durability::SyncPolicy::kEveryRecord;
    wal = std::make_unique<igq::durability::WalWriter>(*fs, "wal", wal_options);
    igq::IgqOptions options;
    options.cache_capacity = 20;
    options.window_size = 5;
    options.verify_threads = 3;  // Verify spans come from pool threads too
    engine = std::make_unique<igq::QueryEngine>(db, tracing.get(), options);
    EXPECT_TRUE(wal->Open(0, 1));
    engine->AttachWal(wal.get());
  }
};

TEST(Trace, SpansNestUnderTheirRequest) {
  TracedDeployment t;
  const auto queries = igq::GenerateWorkload(
      t.db.graphs, igq::MakeWorkloadSpec("zipf-zipf", 1.4, 40, 3));
  uint64_t request = 1;
  for (const auto& query : queries) {
    RequestScope scope(t.recorder, SpanKind::kQuery, request++, true);
    t.engine->Process(query.graph);
  }
  {
    RequestScope scope(t.recorder, SpanKind::kMutation, request++, true);
    ASSERT_TRUE(t.engine->ApplyMutation(t.db, igq::GraphMutation::Add(t.db.graphs[0]))
                    .applied);
  }
  {
    RequestScope scope(t.recorder, SpanKind::kMutation, request++, true);
    ASSERT_TRUE(t.engine->ApplyMutation(t.db, igq::GraphMutation::Remove(3)).applied);
  }
  {
    // An unrecorded request leaves no spans, its children included.
    RequestScope scope(t.recorder, SpanKind::kQuery, request++, false);
    t.engine->Process(queries[0].graph);
  }

  const std::vector<Span> spans = t.recorder.Collect();
  std::map<uint64_t, const Span*> by_id;
  std::map<SpanKind, size_t> count;
  for (const Span& span : spans) {
    by_id[span.id] = &span;
    ++count[span.kind];
  }
  EXPECT_EQ(count[SpanKind::kQuery], queries.size());
  EXPECT_EQ(count[SpanKind::kMutation], 2u);
  EXPECT_EQ(count[SpanKind::kPrepare], queries.size());
  EXPECT_GT(count[SpanKind::kVerify], 0u);
  EXPECT_EQ(count[SpanKind::kOnAdd], 1u);
  EXPECT_EQ(count[SpanKind::kOnRemove], 1u);
  EXPECT_EQ(count[SpanKind::kWalAppend], 2u);
  EXPECT_EQ(count[SpanKind::kWalSync], 2u);
  for (const Span& span : spans) {
    EXPECT_LE(span.start_ns, span.end_ns);
    const bool root = span.kind == SpanKind::kQuery || span.kind == SpanKind::kMutation;
    if (root) {
      EXPECT_EQ(span.parent, 0u);
      continue;
    }
    ASSERT_TRUE(by_id.count(span.parent)) << SpanKindName(span.kind);
    const Span& parent = *by_id[span.parent];
    EXPECT_EQ(parent.parent, 0u);
    EXPECT_EQ(span.request, parent.request);
    EXPECT_GE(span.start_ns, parent.start_ns);
    EXPECT_LE(span.end_ns, parent.end_ns);
    const bool method_span = span.kind == SpanKind::kPrepare ||
                             span.kind == SpanKind::kFilter ||
                             span.kind == SpanKind::kVerify;
    EXPECT_EQ(parent.kind, method_span ? SpanKind::kQuery : SpanKind::kMutation);
  }
  for (int64_t self : SelfTimesNs(spans)) EXPECT_GE(self, 0);
}

TEST(Trace, DecoratedMethodAnswersLikeTheHostMethod) {
  TracedDeployment t;
  igq::IgqOptions options;
  options.cache_capacity = 20;
  options.window_size = 5;
  igq::QueryEngine plain(t.db, t.method.get(), options);
  const auto queries = igq::GenerateWorkload(
      t.db.graphs, igq::MakeWorkloadSpec("zipf-zipf", 1.4, 60, 5));
  uint64_t request = 1;
  for (const auto& query : queries) {
    igq::QueryStats traced_stats, plain_stats;
    std::vector<igq::GraphId> traced;
    {
      RequestScope scope(t.recorder, SpanKind::kQuery, request++, true);
      traced = t.engine->Process(query.graph, &traced_stats);
    }
    EXPECT_EQ(traced, plain.Process(query.graph, &plain_stats));
    EXPECT_EQ(traced_stats.iso_tests, plain_stats.iso_tests);
  }
}

RunOptions SmallRun(bool trace) {
  RunOptions options;
  options.seed = 3;
  options.seconds = 0.5;
  options.trace = trace;
  options.scratch_dir = "perfbench_test_scratch";
  return options;
}

// Tracing must not change what the engine computes: the counted queries of
// the deterministic workloads get identical answers and iso-test counts.
void ExpectTransparent(const std::string& name) {
  const WorkloadSpec spec = Shrunk(*FindWorkload(name), 0.05);
  const RunResult plain = RunWorkload(spec, SmallRun(false));
  const RunResult traced = RunWorkload(spec, SmallRun(true));
  EXPECT_TRUE(plain.correct);
  EXPECT_TRUE(traced.correct);
  EXPECT_EQ(plain.failed, 0u);
  EXPECT_EQ(traced.failed, 0u);
  ASSERT_FALSE(plain.counted_answers.empty());
  EXPECT_EQ(plain.counted_answers, traced.counted_answers);
  EXPECT_EQ(plain.counted_iso_tests_per_query, traced.counted_iso_tests_per_query);
}

TEST(Workloads, TracingIsTransparentOnPdbsCold) { ExpectTransparent("pdbs-cold"); }
TEST(Workloads, TracingIsTransparentOnAidsSuper) { ExpectTransparent("aids-super"); }

std::map<std::string, double> MetricMap(const RunResult& result) {
  std::map<std::string, double> metrics;
  for (const Metric& metric : result.metrics) metrics[metric.name] = metric.value;
  return metrics;
}

TEST(Workloads, EveryWorkloadRunsCorrectlyAndAccountsItsSampledQuery) {
  std::vector<std::string> untraced_names, traced_names;
  for (const WorkloadSpec& full : AllWorkloads()) {
    const WorkloadSpec spec = Shrunk(full, 0.05);
    const RunResult untraced = RunWorkload(spec, SmallRun(false));
    const RunResult traced = RunWorkload(spec, SmallRun(true));
    for (const RunResult* result : {&untraced, &traced}) {
      EXPECT_TRUE(result->correct) << full.name;
      EXPECT_EQ(result->failed, 0u) << full.name;
      EXPECT_GT(result->attempted, 0u) << full.name;
    }
    // The sampled query's self time plus what its children cover is its
    // whole span.
    EXPECT_GT(traced.sample_span_ns, 0) << full.name;
    EXPECT_GE(traced.sample_self_ns, 0) << full.name;
    EXPECT_EQ(traced.sample_self_ns + traced.sample_covered_ns, traced.sample_span_ns)
        << full.name;
    const auto metrics = MetricMap(traced);
    EXPECT_GT(metrics.at("methods.verify_calls"), 0) << full.name;
    EXPECT_GE(metrics.at("igq.self_us"), 0) << full.name;
    EXPECT_GT(metrics.at("durability.bytes_per_mutation"), 0) << full.name;

    // Every workload reports the same metric names.
    std::vector<std::string> names;
    for (const Metric& metric : untraced.metrics) names.push_back(metric.name);
    if (untraced_names.empty()) untraced_names = names;
    EXPECT_EQ(names, untraced_names) << full.name;
    names.clear();
    for (const Metric& metric : traced.metrics) names.push_back(metric.name);
    if (traced_names.empty()) traced_names = names;
    EXPECT_EQ(names, traced_names) << full.name;
  }
}

}  // namespace
}  // namespace perfbench
