#include "lib/workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <numeric>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/rng.h"
#include "common/zipf.h"
#include "datasets/profiles.h"
#include "durability/fault_fs.h"
#include "durability/wal.h"
#include "features/canonical.h"
#include "graph/algorithms.h"
#include "igq/concurrent_engine.h"
#include "igq/engine.h"
#include "methods/registry.h"
#include "workload/query_generator.h"
#include "lib/stats.h"
#include "lib/trace.h"

namespace perfbench {

namespace {

using igq::Graph;
using igq::GraphDatabase;
using igq::GraphId;
using igq::GraphMutation;
using igq::QueryStats;
using igq::ShortcutKind;

/// Every dataset and query pool is generated from this fixed seed, as the
/// paper's datasets are fixed files; --seed drives the order and sampling
/// of requests and the writer's mutations. Runs under different seeds
/// therefore differ only by sampling, which keeps their spread small.
constexpr uint64_t kDatasetSeed = 2016;
/// Alternation period of untraced and traced windows in a traced run.
constexpr double kTraceWindowSeconds = 0.25;
/// Mean queries per reporting window (see the aggregation in RunWorkload).
constexpr size_t kWindowQueries = 1500;

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }
double Micros(int64_t ns) { return static_cast<double>(ns) * 1e-3; }
double Mb(size_t bytes) { return static_cast<double>(bytes) / (1024.0 * 1024.0); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double Ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

uint64_t HashAnswer(const std::vector<GraphId>& answer) {
  uint64_t hash = 1469598103934665603ULL ^ answer.size();
  for (GraphId id : answer) {
    hash ^= id;
    hash *= 1099511628211ULL;
    hash ^= hash >> 29;
  }
  return hash;
}

// ---- Fragment library (the supergraph workload's dataset) -----------------

struct FragmentSizes {
  size_t molecules;
  size_t fragments;
};

FragmentSizes FragmentSizesFor(double scale) {
  return {std::max<size_t>(20, static_cast<size_t>(2000 * scale)),
          std::max<size_t>(20, static_cast<size_t>(3000 * scale))};
}

Graph RandomFragment(const std::vector<Graph>& molecules, igq::Rng& rng) {
  const Graph& molecule = molecules[rng.Below(molecules.size())];
  return igq::BfsNeighborhoodQuery(
      molecule, static_cast<igq::VertexId>(rng.Below(molecule.NumVertices())),
      4 + rng.Below(7));
}

// ---- Engines behind one interface ------------------------------------------

class Engine {
 public:
  virtual ~Engine() = default;
  virtual std::vector<GraphId> Process(const Graph& query, QueryStats* stats) = 0;
  virtual igq::MutationResult ApplyMutation(GraphDatabase& db,
                                            const GraphMutation& mutation) = 0;
  virtual void AttachWal(igq::durability::WalWriter* wal) = 0;
  virtual size_t CacheMemoryBytes() const = 0;
  virtual int64_t MaintenanceMicros() const = 0;
};

template <typename E>
class EngineOf : public Engine {
 public:
  EngineOf(const GraphDatabase& db, igq::Method* method,
           const igq::IgqOptions& options)
      : engine_(db, method, options) {}
  std::vector<GraphId> Process(const Graph& query, QueryStats* stats) override {
    return engine_.Process(query, stats);
  }
  igq::MutationResult ApplyMutation(GraphDatabase& db,
                                    const GraphMutation& mutation) override {
    return engine_.ApplyMutation(db, mutation);
  }
  void AttachWal(igq::durability::WalWriter* wal) override {
    engine_.AttachWal(wal);
  }
  size_t CacheMemoryBytes() const override {
    return engine_.cache().MemoryBytes();
  }
  int64_t MaintenanceMicros() const override {
    return engine_.cache().maintenance_micros();
  }

 private:
  E engine_;
};

// ---- Set-up -----------------------------------------------------------------

/// One set-up of a workload: dataset, built host method, engine, open WAL.
/// Members are destroyed bottom-up, so the engine goes before what it uses.
struct Deployment {
  GraphDatabase db;
  std::vector<Graph> molecules;  // supergraph workload: the query universe
  std::unique_ptr<igq::Method> method;
  std::unique_ptr<TracingMethod> tracing_method;
  std::unique_ptr<TracingFileSystem> tracing_fs;
  std::unique_ptr<igq::durability::WalWriter> wal;
  std::unique_ptr<Engine> engine;

  igq::Method& engine_method() {
    return tracing_method ? *tracing_method : *method;
  }
};

struct SetupTimes {
  double generate_s = 0;
  double build_s = 0;
  double total_s = 0;
};

void GenerateDataset(const WorkloadSpec& spec, Deployment& d) {
  if (spec.dataset == "fragments") {
    const FragmentSizes sizes = FragmentSizesFor(spec.scale);
    igq::AidsLikeParams params;
    params.num_graphs = sizes.molecules;
    d.molecules = igq::MakeAidsLike(params, kDatasetSeed);
    igq::Rng rng(kDatasetSeed + 1);
    for (size_t i = 0; i < sizes.fragments; ++i) {
      d.db.graphs.push_back(RandomFragment(d.molecules, rng));
    }
    d.db.RefreshLabelCount();
  } else {
    d.db = igq::MakeDataset(spec.dataset, spec.scale, kDatasetSeed);
  }
}

igq::IgqOptions EngineOptions(const WorkloadSpec& spec) {
  igq::IgqOptions options;
  options.cache_capacity = spec.cache_capacity;
  options.window_size = spec.window_size;
  options.cache_shards = spec.cache_shards;
  options.verify_threads = spec.verify_threads;
  return options;
}

std::unique_ptr<Deployment> SetUp(const WorkloadSpec& spec,
                                  const std::string& wal_dir,
                                  SpanRecorder* recorder, SetupTimes* times) {
  const int64_t t0 = NowNs();
  auto d = std::make_unique<Deployment>();
  GenerateDataset(spec, *d);
  const int64_t t1 = NowNs();
  d->method = igq::MethodRegistry::Create(spec.direction, spec.method);
  d->method->Build(d->db);
  const int64_t t2 = NowNs();
  igq::durability::FileSystem* fs = &igq::durability::RealFileSystem::Instance();
  if (recorder != nullptr) {
    d->tracing_method = std::make_unique<TracingMethod>(*d->method, *recorder);
    d->tracing_fs = std::make_unique<TracingFileSystem>(*fs, *recorder);
    fs = d->tracing_fs.get();
  }
  const igq::IgqOptions options = EngineOptions(spec);
  if (spec.concurrent) {
    d->engine = std::make_unique<EngineOf<igq::ConcurrentQueryEngine>>(
        d->db, &d->engine_method(), options);
  } else {
    d->engine = std::make_unique<EngineOf<igq::QueryEngine>>(
        d->db, &d->engine_method(), options);
  }
  std::filesystem::remove_all(wal_dir);
  std::filesystem::create_directories(wal_dir);
  igq::durability::WalOptions wal_options;
  igq::durability::ParseSyncPolicy(spec.sync_policy, &wal_options);
  d->wal = std::make_unique<igq::durability::WalWriter>(*fs, wal_dir, wal_options);
  if (!d->wal->Open(d->db.mutation_epoch, 1)) return nullptr;
  d->engine->AttachWal(d->wal.get());
  const int64_t t3 = NowNs();
  times->generate_s = Seconds(t1 - t0);
  times->build_s = Seconds(t2 - t1);
  times->total_s = Seconds(t3 - t0);
  return d;
}

// ---- Query source -------------------------------------------------------------

/// The graphs queries are drawn from (fixed by the workload), and how a
/// stream walks them.
struct QuerySource {
  std::vector<Graph> graphs;
  /// Walk the pool in an order shuffled by the run's seed, instead of
  /// resampling it.
  bool in_order = false;
  std::vector<uint32_t> zipf_order;  // supergraph: popularity rank -> graph
  std::unique_ptr<igq::ZipfSampler> zipf;
};

QuerySource MakeQuerySource(const WorkloadSpec& spec, const Deployment& d) {
  QuerySource source;
  if (spec.direction == igq::QueryDirection::kSupergraph) {
    source.graphs = d.molecules;
    source.zipf_order.resize(source.graphs.size());
    std::iota(source.zipf_order.begin(), source.zipf_order.end(), 0u);
    igq::Rng rng(kDatasetSeed + 2);
    std::shuffle(source.zipf_order.begin(), source.zipf_order.end(), rng);
    source.zipf = std::make_unique<igq::ZipfSampler>(source.graphs.size(), spec.alpha);
    return source;
  }
  const igq::WorkloadSpec workload = igq::MakeWorkloadSpec(
      spec.query_dist, spec.alpha, spec.pool_queries, kDatasetSeed + 3);
  for (igq::WorkloadQuery& query : igq::GenerateWorkload(d.db.graphs, workload)) {
    source.graphs.push_back(std::move(query.graph));
  }
  source.in_order = !spec.resample;
  return source;
}

/// One client stream's walk over a QuerySource, driven by its own seed.
class QueryStream {
 public:
  QueryStream(const QuerySource& source, uint64_t seed)
      : source_(&source), rng_(seed) {
    if (source.in_order) {
      order_.resize(source.graphs.size());
      std::iota(order_.begin(), order_.end(), 0u);
      std::shuffle(order_.begin(), order_.end(), rng_);
    }
  }
  uint32_t Next() {
    if (source_->zipf) {
      return source_->zipf_order[source_->zipf->Sample(rng_)];
    }
    if (!order_.empty()) return order_[position_++ % order_.size()];
    return static_cast<uint32_t>(rng_.Below(source_->graphs.size()));
  }

 private:
  const QuerySource* source_;
  igq::Rng rng_;
  std::vector<uint32_t> order_;
  size_t position_ = 0;
};

// ---- Client loops ---------------------------------------------------------------

struct QuerySample {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t answer_hash = 0;
  uint32_t index = 0;
  uint32_t iso_tests = 0;
  uint32_t probe_iso_tests = 0;
  uint32_t candidates_initial = 0;
  uint32_t candidates_final = 0;
  int32_t probe_us = 0;
  int32_t verify_us = 0;
  ShortcutKind shortcut = ShortcutKind::kNone;
  bool assisted = false;
  bool traced = false;
};

struct MutationSample {
  int64_t due_ns = 0;  // == start_ns for a closed-loop writer
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool add = false;
  bool ok = false;
};

/// Which requests are traced: none in an untraced run; in a traced run,
/// every request (window_ns == 0) or those starting in every second window.
struct TraceClock {
  bool trace = false;
  int64_t start_ns = 0;
  int64_t window_ns = 0;
  bool TracedAt(int64_t t) const {
    if (!trace) return false;
    if (window_ns == 0) return true;
    return t >= start_ns && ((t - start_ns) / window_ns) % 2 == 1;
  }
};

struct RunContext {
  Deployment* d = nullptr;
  SpanRecorder* recorder = nullptr;
  std::atomic<uint64_t> next_request{1};
};

QuerySample RunQuery(RunContext& run, const QuerySource& source, uint32_t index,
                     bool traced) {
  QuerySample sample;
  sample.index = index;
  sample.traced = traced;
  QueryStats stats;
  std::vector<GraphId> answer;
  const uint64_t request = run.next_request.fetch_add(1);
  sample.start_ns = NowNs();
  {
    RequestScope scope(*run.recorder, SpanKind::kQuery, request, traced);
    answer = run.d->engine->Process(source.graphs[index], &stats);
  }
  sample.end_ns = NowNs();
  sample.answer_hash = HashAnswer(answer);
  sample.iso_tests = static_cast<uint32_t>(stats.iso_tests);
  sample.probe_iso_tests = static_cast<uint32_t>(stats.probe_iso_tests);
  sample.candidates_initial = static_cast<uint32_t>(stats.candidates_initial);
  sample.candidates_final = static_cast<uint32_t>(stats.candidates_final);
  sample.probe_us = static_cast<int32_t>(stats.probe_micros);
  sample.verify_us = static_cast<int32_t>(stats.verify_micros);
  sample.shortcut = stats.shortcut;
  sample.assisted = stats.shortcut != ShortcutKind::kNone || stats.isub_hits > 0 ||
                    stats.isuper_hits > 0;
  return sample;
}

/// The writer's script: alternately add a graph and remove a random one of
/// the graphs it added earlier (only adds until kMinRemovable of those are
/// live). Removals never touch the original dataset: the Zipf pools draw
/// from a few popular graphs, and whether a run happened to remove one of
/// them would decide its whole regime. The graphs to add are fixed by the
/// workload (generated from the dataset seed); `seed` picks their order and
/// the graphs removed.
class MutationScript {
 public:
  static constexpr size_t kMinRemovable = 32;

  MutationScript(const WorkloadSpec& spec, const Deployment& d, size_t adds,
                 uint64_t seed)
      : rng_(seed) {
    const uint64_t add_seed = kDatasetSeed + 4;
    if (spec.dataset == "aids") {
      igq::AidsLikeParams params;
      params.num_graphs = adds;
      adds_ = igq::MakeAidsLike(params, add_seed);
    } else if (spec.dataset == "pdbs") {
      igq::PdbsLikeParams params;
      params.num_graphs = adds;
      adds_ = igq::MakePdbsLike(params, add_seed);
    } else {
      igq::Rng rng(add_seed);
      for (size_t i = 0; i < adds; ++i) adds_.push_back(RandomFragment(d.molecules, rng));
    }
    std::shuffle(adds_.begin(), adds_.end(), rng_);
  }

  GraphMutation Next() {
    if (live_.size() < kMinRemovable || issued_++ % 2 == 0) {
      return GraphMutation::Add(adds_[next_add_++ % adds_.size()]);
    }
    const size_t slot = rng_.Below(live_.size());
    const GraphId id = live_[slot];
    live_[slot] = live_.back();
    live_.pop_back();
    return GraphMutation::Remove(id);
  }

  void Applied(const GraphMutation& mutation, const igq::MutationResult& result) {
    if (mutation.kind == igq::MutationKind::kAddGraph && result.applied) {
      live_.push_back(result.id);
    }
  }

 private:
  igq::Rng rng_;
  std::vector<GraphId> live_;
  std::vector<Graph> adds_;
  size_t next_add_ = 0;
  size_t issued_ = 0;
};

/// Issues mutations until `count` are issued or the next one falls due
/// at/after `deadline_ns`. With `rate` > 0 the loop is open: mutation i is
/// due at start_ns + i / rate regardless of earlier ones. With `rate` == 0
/// it is closed: each mutation is due when the previous one returns.
std::vector<MutationSample> RunWriter(RunContext& run, MutationScript& script,
                                      double rate, int64_t start_ns,
                                      int64_t deadline_ns, size_t count,
                                      const TraceClock& clock) {
  std::vector<MutationSample> samples;
  const double period_ns = rate > 0 ? 1e9 / rate : 0;
  for (size_t i = 0; i < count; ++i) {
    MutationSample sample;
    GraphMutation mutation = script.Next();
    if (rate > 0) {
      sample.due_ns = start_ns + static_cast<int64_t>(period_ns * static_cast<double>(i));
      if (sample.due_ns >= deadline_ns) break;
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(sample.due_ns)));
      sample.start_ns = NowNs();
    } else {
      sample.start_ns = sample.due_ns = NowNs();
      if (sample.due_ns >= deadline_ns) break;
    }
    sample.add = mutation.kind == igq::MutationKind::kAddGraph;
    igq::MutationResult result;
    {
      RequestScope scope(*run.recorder, SpanKind::kMutation,
                         run.next_request.fetch_add(1), clock.TracedAt(sample.start_ns));
      result = run.d->engine->ApplyMutation(run.d->db, mutation);
    }
    sample.end_ns = NowNs();
    sample.ok = result.applied && !result.wal_failed;
    script.Applied(mutation, result);
    samples.push_back(sample);
  }
  return samples;
}

// ---- Correctness oracle -------------------------------------------------------

/// Answers of `method` with iGQ off (filter, then verify every candidate)
/// for each graph index in `indices`, computed on up to four threads.
std::unordered_map<uint32_t, uint64_t> OracleHashes(
    const igq::Method& method, const QuerySource& source,
    const std::vector<uint32_t>& indices) {
  std::vector<uint64_t> hashes(indices.size());
  std::atomic<size_t> cursor{0};
  auto work = [&] {
    for (size_t i = cursor.fetch_add(1); i < indices.size(); i = cursor.fetch_add(1)) {
      const auto prepared = method.Prepare(source.graphs[indices[i]]);
      std::vector<GraphId> answer;
      for (GraphId id : method.Filter(*prepared)) {
        if (method.Verify(*prepared, id)) answer.push_back(id);
      }
      hashes[i] = HashAnswer(answer);
    }
  };
  const size_t threads = std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
  std::vector<std::thread> pool;
  for (size_t t = 1; t < threads; ++t) pool.emplace_back(work);
  work();
  for (std::thread& thread : pool) thread.join();
  std::unordered_map<uint32_t, uint64_t> by_index;
  for (size_t i = 0; i < indices.size(); ++i) by_index.emplace(indices[i], hashes[i]);
  return by_index;
}

/// Checks every sample's answer against the oracle; returns mismatches.
uint64_t CheckAnswers(const igq::Method& method, const QuerySource& source,
                      const std::vector<const std::vector<QuerySample>*>& groups) {
  std::unordered_set<uint32_t> distinct;
  for (const auto* group : groups) {
    for (const QuerySample& sample : *group) distinct.insert(sample.index);
  }
  const auto oracle = OracleHashes(
      method, source, std::vector<uint32_t>(distinct.begin(), distinct.end()));
  uint64_t wrong = 0;
  for (const auto* group : groups) {
    for (const QuerySample& sample : *group) {
      wrong += oracle.at(sample.index) != sample.answer_hash;
    }
  }
  return wrong;
}

// ---- Metrics --------------------------------------------------------------------

std::string Format(const char* format, double a, double b = 0, double c = 0,
                   double d = 0) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), format, a, b, c, d);
  return buffer;
}

/// Sum over `queries` of their overlap with the (disjoint) `mutations`.
int64_t OverlapNs(const std::vector<std::pair<int64_t, int64_t>>& queries,
                  std::vector<std::pair<int64_t, int64_t>> mutations) {
  std::sort(mutations.begin(), mutations.end());
  int64_t total = 0;
  for (const auto& [start, end] : queries) {
    auto it = std::lower_bound(mutations.begin(), mutations.end(),
                               std::make_pair(start, int64_t{0}));
    if (it != mutations.begin()) --it;
    for (; it != mutations.end() && it->first < end; ++it) {
      total += std::max<int64_t>(0, std::min(end, it->second) - std::max(start, it->first));
    }
  }
  return total;
}

}  // namespace

// ---- Workload table ------------------------------------------------------------

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> workloads = [] {
    std::vector<WorkloadSpec> all;
    WorkloadSpec hot;
    // Hot working set on a shared cache: the canonical-key fast path,
    // singleflight, probe/prune and maintenance dominate.
    hot.name = "aids-hot";
    hot.dataset = "aids";
    hot.scale = 1.667;
    hot.method = "ggsx";
    hot.concurrent = true;
    hot.query_dist = "zipf-zipf";
    hot.alpha = 1.4;
    hot.pool_queries = 2000;
    hot.resample = true;
    hot.reader_streams = 3;
    hot.warmup_queries = 2000;
    hot.probe_mutations = 1000;
    hot.setup_repeats = 5;
    all.push_back(hot);

    WorkloadSpec cold;
    // Distinct queries far outnumber the cache: verification on large
    // sparse graphs dominates and probing is pure overhead.
    cold.name = "pdbs-cold";
    cold.dataset = "pdbs";
    cold.method = "grapes";
    cold.query_dist = "uni-zipf";
    cold.alpha = 1.1;
    cold.pool_queries = 20000;
    cold.warmup_queries = 600;
    cold.counted_queries = 5000;
    cold.probe_mutations = 1000;
    cold.setup_repeats = 5;
    all.push_back(cold);

    WorkloadSpec super;
    // Supergraph queries over a fragment library: the §4.4 role inversion
    // and the Algorithm 1/2 feature-count method.
    super.name = "aids-super";
    super.dataset = "fragments";
    super.method = "featurecount";
    super.direction = igq::QueryDirection::kSupergraph;
    super.alpha = 1.1;
    super.warmup_queries = 600;
    super.counted_queries = 8000;
    super.probe_mutations = 1000;
    super.setup_repeats = 9;
    all.push_back(super);

    // An open-loop writer beside readers: writer-gate stalls, cache
    // patching, index hooks and WAL appends. Runs, but is not gated in
    // BENCHMARK.json: under churn the cache's lazy removal darkens entries
    // faster than flushes compact them, and runs of one seed moved 30% in
    // qps and 50% in p99 between regimes.
    WorkloadSpec churn = hot;
    churn.name = "aids-churn";
    churn.reader_streams = 2;
    churn.think_us = 200;
    churn.warmup_seconds = 3;
    churn.writer_rate = 40;
    churn.probe_mutations = 0;
    all.push_back(churn);
    return all;
  }();
  return workloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

WorkloadSpec Shrunk(const WorkloadSpec& spec, double factor) {
  auto scaled = [factor](size_t value) {
    return value == 0 ? size_t{0}
                      : std::max<size_t>(1, static_cast<size_t>(
                                                static_cast<double>(value) * factor));
  };
  WorkloadSpec small = spec;
  small.scale = spec.scale * factor;
  small.cache_capacity = std::max<size_t>(8, scaled(spec.cache_capacity));
  small.window_size = std::max<size_t>(2, scaled(spec.window_size));
  small.cache_shards = std::min(spec.cache_shards, small.cache_capacity);
  small.pool_queries = scaled(spec.pool_queries);
  small.warmup_queries = scaled(spec.warmup_queries);
  small.counted_queries = scaled(spec.counted_queries);
  small.probe_mutations = scaled(spec.probe_mutations);
  small.end_probe_queries = scaled(spec.end_probe_queries);
  small.warmup_seconds = spec.warmup_seconds * factor;
  small.setup_repeats = 1;
  return small;
}

// ---- The run ----------------------------------------------------------------------

RunResult RunWorkload(const WorkloadSpec& spec, const RunOptions& options) {
  RunResult result;
  auto fail = [&](uint64_t count) {
    result.failed += count;
    if (count > 0) result.correct = false;
  };
  // Removes the WAL directory once the deployment below is gone.
  struct DirectoryRemover {
    std::string path;
    ~DirectoryRemover() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  } wal_dir_remover{options.scratch_dir + "/wal-" + spec.name};
  const std::string& wal_dir = wal_dir_remover.path;
  SpanRecorder recorder;

  // Set-up, repeated; the last deployment serves the run.
  std::vector<double> setup_s, generate_s, build_s;
  std::unique_ptr<Deployment> d;
  for (size_t rep = 0; rep < std::max<size_t>(1, spec.setup_repeats); ++rep) {
    d.reset();
    SetupTimes times;
    d = SetUp(spec, wal_dir, options.trace ? &recorder : nullptr, &times);
    if (d == nullptr) {
      result.notes.push_back("set-up failed: cannot open the WAL in " + wal_dir);
      fail(1);
      ++result.attempted;
      return result;
    }
    setup_s.push_back(times.total_s);
    generate_s.push_back(times.generate_s);
    build_s.push_back(times.build_s);
  }
  RunContext run;
  run.d = d.get();
  run.recorder = &recorder;

  const QuerySource source = MakeQuerySource(spec, *d);
  std::vector<QueryStream> streams;
  for (size_t s = 0; s < spec.reader_streams; ++s) {
    streams.emplace_back(source, options.seed * 1000003ULL + s + 1);
  }

  // Warm-up (untimed, untraced): fills the cache. Sequential workloads
  // continue stream 0's sequence, so the measured segment follows it.
  std::vector<QuerySample> warmup;
  QueryStream warm_stream(source, options.seed * 7919ULL + 17);
  QueryStream& warm = spec.concurrent ? warm_stream : streams[0];
  for (size_t i = 0; i < spec.warmup_queries; ++i) {
    warmup.push_back(RunQuery(run, source, warm.Next(), false));
  }
  const bool mutates_during_segment = spec.writer_rate > 0;
  if (mutates_during_segment) {
    fail(CheckAnswers(*d->method, source, {&warmup}));
  }

  // Measured segment: reader streams (closed loop), optionally beside the
  // open-loop writer.
  const int64_t seconds_ns = static_cast<int64_t>(options.seconds * 1e9);
  TraceClock clock;
  clock.trace = options.trace;
  clock.window_ns = std::min<int64_t>(static_cast<int64_t>(kTraceWindowSeconds * 1e9),
                                      std::max<int64_t>(1, seconds_ns / 4));
  std::vector<std::vector<QuerySample>> samples(spec.reader_streams);
  std::vector<MutationSample> mutations;
  std::unique_ptr<MutationScript> script;
  if (mutates_during_segment) {
    const size_t adds = static_cast<size_t>(
        spec.writer_rate * (options.seconds + spec.warmup_seconds) / 2) +
        MutationScript::kMinRemovable;
    script = std::make_unique<MutationScript>(spec, *d, adds, options.seed + 101);
  }
  // With a writer, readers and writer first run `warmup_seconds` unmeasured
  // so the cache reaches its steady state under churn.
  const int64_t writer_start = NowNs();
  const int64_t segment_start =
      writer_start + static_cast<int64_t>(spec.warmup_seconds * 1e9);
  clock.start_ns = segment_start;
  const int64_t deadline = segment_start + seconds_ns;
  int64_t maintenance_before = d->engine->MaintenanceMicros();
  auto reader = [&](size_t s) {
    const size_t minimum = s == 0 ? spec.counted_queries : 0;
    std::vector<QuerySample>& out = samples[s];
    bool measuring = false;
    for (;;) {
      const int64_t now = NowNs();
      if (now >= deadline && out.size() >= minimum) break;
      if (s == 0 && !measuring && now >= segment_start) {
        measuring = true;
        maintenance_before = d->engine->MaintenanceMicros();
      }
      out.push_back(RunQuery(run, source, streams[s].Next(), clock.TracedAt(now)));
      if (spec.think_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(spec.think_us));
      }
    }
  };
  {
    std::vector<std::thread> threads;
    for (size_t s = 1; s < spec.reader_streams; ++s) threads.emplace_back(reader, s);
    if (mutates_during_segment) {
      threads.emplace_back([&] {
        mutations = RunWriter(run, *script, spec.writer_rate, writer_start, deadline,
                              SIZE_MAX, clock);
      });
    }
    reader(0);
    for (std::thread& thread : threads) thread.join();
  }
  const int64_t maintenance_us = d->engine->MaintenanceMicros() - maintenance_before;
  const size_t index_bytes = d->method->IndexMemoryBytes();
  const size_t cache_bytes = d->engine->CacheMemoryBytes();

  // Every answer of a read-only segment against the host method, iGQ off.
  if (!mutates_during_segment) {
    std::vector<const std::vector<QuerySample>*> groups = {&warmup};
    for (const auto& stream : samples) groups.push_back(&stream);
    fail(CheckAnswers(*d->method, source, groups));
  }

  // Read-only workloads measure mutations after the readers stop.
  if (!mutates_during_segment && spec.probe_mutations > 0) {
    script = std::make_unique<MutationScript>(
        spec, *d, spec.probe_mutations / 2 + MutationScript::kMinRemovable,
        options.seed + 101);
    TraceClock probe_clock;
    probe_clock.trace = options.trace;
    mutations = RunWriter(run, *script, 0, NowNs(), INT64_MAX, spec.probe_mutations,
                          probe_clock);
  }
  uint64_t refused = 0;
  for (const MutationSample& m : mutations) refused += !m.ok;
  fail(refused);

  // End state: a fixed probe set against a host method built afresh over
  // the (mutated) dataset.
  {
    auto fresh = igq::MethodRegistry::Create(spec.direction, spec.method);
    fresh->Build(d->db);
    std::vector<QuerySample> end_checks;
    const size_t probes = std::min(spec.end_probe_queries, source.graphs.size());
    for (uint32_t i = 0; i < probes; ++i) {
      end_checks.push_back(RunQuery(run, source, i, false));
    }
    fail(CheckAnswers(*fresh, source, {&end_checks}));
    result.attempted += end_checks.size();
  }

  // ---- Aggregation ----
  std::vector<const QuerySample*> measured;  // started inside the segment
  for (const auto& stream : samples) {
    for (const QuerySample& sample : stream) {
      if (sample.start_ns >= segment_start && sample.start_ns < deadline) {
        measured.push_back(&sample);
      }
    }
  }
  // Mutations due during the unmeasured lead-in still happened (and were
  // checked); only those due inside the segment are measured.
  std::vector<MutationSample> measured_mutations;
  for (const MutationSample& m : mutations) {
    if (m.due_ns >= segment_start) measured_mutations.push_back(m);
  }
  result.attempted += warmup.size() + mutations.size();
  for (const auto& stream : samples) result.attempted += stream.size();

  const std::vector<QuerySample>& stream0 = samples[0];
  const size_t counted =
      spec.counted_queries > 0 ? std::min(spec.counted_queries, stream0.size()) : 0;
  for (size_t i = 0; i < counted; ++i) {
    result.counted_answers.push_back(stream0[i].answer_hash);
  }

  // Query figures are medians over equal windows of the segment, so a
  // burst of interference from outside the process moves one window, not
  // the result. Windows are at least a second and hold kWindowQueries
  // queries on average, so each window's p99 rests on about 15 samples.
  // Sequential workloads count iso tests over the fixed prefix instead.
  const int64_t windows = std::clamp<int64_t>(
      static_cast<int64_t>(measured.size() / kWindowQueries), 1,
      std::max<int64_t>(1, seconds_ns / 1'000'000'000));
  const int64_t window_ns = seconds_ns / windows;
  std::vector<std::vector<const QuerySample*>> by_window(windows);
  for (const QuerySample* sample : measured) {
    by_window[std::min<int64_t>(windows - 1, (sample->start_ns - segment_start) / window_ns)]
        .push_back(sample);
  }
  std::vector<double> window_qps, window_p50, window_p99, window_iso;
  size_t fewest_beyond_p99 = SIZE_MAX;
  for (const auto& window : by_window) {
    std::vector<double> latency_us;
    double iso = 0;
    for (const QuerySample* sample : window) {
      latency_us.push_back(Micros(sample->end_ns - sample->start_ns));
      iso += sample->iso_tests;
    }
    window_qps.push_back(static_cast<double>(window.size()) / Seconds(window_ns));
    window_p50.push_back(Percentile(latency_us, 0.5));
    window_p99.push_back(Percentile(latency_us, 0.99));
    window_iso.push_back(Ratio(iso, static_cast<double>(window.size())));
    fewest_beyond_p99 = std::min(fewest_beyond_p99, SamplesBeyond(window.size(), 0.99));
  }
  double iso_tests_per_query = Median(window_iso);
  if (counted > 0) {
    double iso = 0;
    for (size_t i = 0; i < counted; ++i) iso += stream0[i].iso_tests;
    iso_tests_per_query = iso / static_cast<double>(counted);
  }
  result.counted_iso_tests_per_query = iso_tests_per_query;

  // Mutations: adds and removes cost an order of magnitude apart, so each
  // kind gets its own median (the median of the mix would sit between them).
  std::vector<double> add_us, remove_us, mutation_us;
  double writer_late_ms = 0;
  for (const MutationSample& m : measured_mutations) {
    const double us = Micros(m.end_ns - m.due_ns);
    (m.add ? add_us : remove_us).push_back(us);
    mutation_us.push_back(us);
    writer_late_ms = std::max(writer_late_ms, Seconds(m.start_ns - m.due_ns) * 1e3);
  }

  result.notes.push_back(Format(
      "queries measured %.0f in %.0f windows (warm-up %.0f); the thinnest "
      "window has %.0f samples beyond its p99",
      static_cast<double>(measured.size()), static_cast<double>(windows),
      static_cast<double>(warmup.size()), static_cast<double>(fewest_beyond_p99)));
  result.notes.push_back(Format(
      "mutations measured %.0f (%.0f adds, %.0f removes), %.0f beyond p99",
      static_cast<double>(measured_mutations.size()), static_cast<double>(add_us.size()),
      static_cast<double>(remove_us.size()),
      static_cast<double>(SamplesBeyond(measured_mutations.size(), 0.99))));
  result.notes.back() += Format(", refused %.0f", static_cast<double>(refused));

  if (!options.trace) {
    result.metrics = {
        {"qps", Median(window_qps), "1/s"},
        {"query_p50_us", Median(window_p50), "us"},
        {"query_p99_us", Median(window_p99), "us"},
        {"iso_tests_per_query", iso_tests_per_query, "count"},
        {"setup_s", Median(setup_s), "s"},
        {"memory_mb", Mb(index_bytes + cache_bytes), "MB"},
    };
    return result;
  }

  // ---- Traced run: per-layer metrics ----
  const std::vector<Span> spans = recorder.Collect();
  const std::vector<int64_t> self = SelfTimesNs(spans);
  if (!options.spans_path.empty() && !WriteSpans(options.spans_path, spans)) {
    result.notes.push_back("could not write spans to " + options.spans_path);
  }
  std::vector<double> by_kind_us[kSpanKinds];
  std::vector<double> self_us[kSpanKinds];
  uint64_t count_sum[kSpanKinds] = {};
  std::vector<std::pair<int64_t, int64_t>> query_intervals, mutation_intervals;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const size_t k = static_cast<size_t>(span.kind);
    by_kind_us[k].push_back(Micros(span.end_ns - span.start_ns));
    self_us[k].push_back(Micros(self[i]));
    count_sum[k] += span.count;
    if (span.kind == SpanKind::kQuery) {
      query_intervals.emplace_back(span.start_ns, span.end_ns);
    }
    if (span.kind == SpanKind::kMutation) {
      mutation_intervals.emplace_back(span.start_ns, span.end_ns);
    }
  }
  auto kind = [](SpanKind k) { return static_cast<size_t>(k); };
  const double traced_queries = static_cast<double>(by_kind_us[kind(SpanKind::kQuery)].size());
  const double traced_mutations =
      static_cast<double>(by_kind_us[kind(SpanKind::kMutation)].size());

  // Sampled query for the accounting check: the traced query span with the
  // most children.
  {
    std::unordered_map<uint64_t, size_t> children;
    for (const Span& span : spans) {
      if (span.parent != 0) ++children[span.parent];
    }
    size_t best = SIZE_MAX, best_children = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].kind != SpanKind::kQuery) continue;
      const size_t n = children.count(spans[i].id) ? children[spans[i].id] : 0;
      if (best == SIZE_MAX || n > best_children) {
        best = i;
        best_children = n;
      }
    }
    if (best != SIZE_MAX) {
      std::vector<std::pair<int64_t, int64_t>> intervals;
      int64_t child_self_sum = 0;
      for (size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent != spans[best].id) continue;
        intervals.emplace_back(spans[i].start_ns, spans[i].end_ns);
        child_self_sum += self[i];
      }
      result.sample_span_ns = spans[best].end_ns - spans[best].start_ns;
      result.sample_self_ns = self[best];
      result.sample_covered_ns =
          CoveredNs(intervals, spans[best].start_ns, spans[best].end_ns);
      result.notes.push_back(Format(
          "trace check: query span %.1f us = self %.1f us + children cover %.1f us "
          "(children's own self times sum to %.1f us)",
          Micros(result.sample_span_ns), Micros(result.sample_self_ns),
          Micros(result.sample_covered_ns), Micros(child_self_sum)));
    }
  }

  // QueryStats over every measured query; span-based figures over the
  // traced windows only.
  double probe_us = 0, probe_iso = 0, verify_stage_us = 0, traced_verify_stage_us = 0;
  double exact = 0, coalesced = 0, assisted = 0, initial = 0, final_candidates = 0;
  double traced_qps_n = 0, untraced_qps_n = 0;
  for (const QuerySample* sample : measured) {
    probe_us += sample->probe_us;
    probe_iso += sample->probe_iso_tests;
    verify_stage_us += sample->verify_us;
    exact += sample->shortcut == ShortcutKind::kExactHit;
    coalesced += sample->shortcut == ShortcutKind::kCoalescedHit;
    assisted += sample->assisted;
    initial += sample->candidates_initial;
    final_candidates += sample->candidates_final;
    if (sample->traced) {
      traced_verify_stage_us += sample->verify_us;
      ++traced_qps_n;
    } else {
      ++untraced_qps_n;
    }
  }
  // Time spent in each kind of window inside the segment.
  double traced_s = 0, untraced_s = 0;
  for (int64_t t = segment_start; t < deadline; t += clock.window_ns) {
    const double len = Seconds(std::min(deadline, t + clock.window_ns) - t);
    (clock.TracedAt(t) ? traced_s : untraced_s) += len;
  }
  const double n = static_cast<double>(measured.size());
  const double verify_span_us = std::accumulate(
      by_kind_us[kind(SpanKind::kVerify)].begin(), by_kind_us[kind(SpanKind::kVerify)].end(), 0.0);
  const double query_self_us = Mean(self_us[kind(SpanKind::kQuery)]);
  const double mutation_self_us = Mean(self_us[kind(SpanKind::kMutation)]);

  // Writer lateness and gate stalls are 0 by construction unless a writer
  // runs beside the readers (aids-churn), so they are notes, not metrics.
  result.notes.push_back(Format(
      "writer: largest lag behind schedule %.3f ms; queries overlapped mutations "
      "by %.1f us each",
      writer_late_ms,
      Ratio(Micros(OverlapNs(query_intervals, mutation_intervals)), traced_queries)));

  // Canonicalization side pass over the workload's queries.
  std::vector<double> canonical_us;
  size_t code_bytes = 0;
  for (size_t i = 0; i < std::min<size_t>(500, source.graphs.size()); ++i) {
    const int64_t t0 = NowNs();
    code_bytes += igq::GraphCanonicalCode(source.graphs[i]).size();
    canonical_us.push_back(Micros(NowNs() - t0));
  }
  result.notes.push_back(Format("canonical side pass: %.0f queries, %.0f code bytes",
                                static_cast<double>(canonical_us.size()),
                                static_cast<double>(code_bytes)));

  result.metrics = {
      {"datasets.generate_s", Median(generate_s), "s"},
      {"features.canonical_us", Mean(canonical_us), "us"},
      {"methods.build_s", Median(build_s), "s"},
      {"methods.index_mb", Mb(index_bytes), "MB"},
      {"methods.prepare_us", Mean(by_kind_us[kind(SpanKind::kPrepare)]), "us"},
      {"methods.filter_us", Mean(by_kind_us[kind(SpanKind::kFilter)]), "us"},
      {"methods.filter_candidates",
       Ratio(static_cast<double>(count_sum[kind(SpanKind::kFilter)]),
             static_cast<double>(by_kind_us[kind(SpanKind::kFilter)].size())),
       "count"},
      {"methods.verify_calls",
       Ratio(static_cast<double>(by_kind_us[kind(SpanKind::kVerify)].size()), traced_queries),
       "count"},
      {"methods.verify_us", Mean(by_kind_us[kind(SpanKind::kVerify)]), "us"},
      {"methods.verify_p99_us", Percentile(by_kind_us[kind(SpanKind::kVerify)], 0.99), "us"},
      {"methods.verify_true_frac",
       Ratio(static_cast<double>(count_sum[kind(SpanKind::kVerify)]),
             static_cast<double>(by_kind_us[kind(SpanKind::kVerify)].size())),
       "fraction"},
      {"methods.on_add_us", Mean(by_kind_us[kind(SpanKind::kOnAdd)]), "us"},
      {"methods.on_remove_us", Mean(by_kind_us[kind(SpanKind::kOnRemove)]), "us"},
      {"igq.self_us", query_self_us, "us"},
      {"igq.probe_us", Ratio(probe_us, n), "us"},
      {"igq.probe_iso_tests", Ratio(probe_iso, n), "count"},
      {"igq.exact_hit_frac", Ratio(exact, n), "fraction"},
      {"igq.coalesced_frac", Ratio(coalesced, n), "fraction"},
      {"igq.assist_frac", Ratio(assisted, n), "fraction"},
      {"igq.prune_frac", initial == 0 ? 0.0 : 1.0 - final_candidates / initial, "fraction"},
      {"igq.verify_stage_us", Ratio(verify_stage_us, n), "us"},
      {"igq.verify_pool_util",
       Ratio(verify_span_us,
             traced_verify_stage_us * static_cast<double>(spec.verify_threads)),
       "fraction"},
      {"igq.maintenance_ms", static_cast<double>(maintenance_us) * 1e-3, "ms"},
      {"igq.cache_mb", Mb(cache_bytes), "MB"},
      {"igq.mutation_self_us", mutation_self_us, "us"},
      {"durability.append_us", Mean(by_kind_us[kind(SpanKind::kWalAppend)]), "us"},
      {"durability.sync_us", Mean(by_kind_us[kind(SpanKind::kWalSync)]), "us"},
      {"durability.bytes_per_mutation",
       Ratio(static_cast<double>(count_sum[kind(SpanKind::kWalAppend)]), traced_mutations),
       "bytes"},
      {"mutation_add_p50_us", Percentile(add_us, 0.5), "us"},
      {"mutation_remove_p50_us", Percentile(remove_us, 0.5), "us"},
      {"mutation_p99_us", Percentile(mutation_us, 0.99), "us"},
      {"trace.overhead_frac",
       1.0 - Ratio(Ratio(traced_qps_n, traced_s), Ratio(untraced_qps_n, untraced_s)),
       "fraction"},
  };

  return result;
}

}  // namespace perfbench
