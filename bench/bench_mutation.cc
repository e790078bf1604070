// Online mutation benchmark: incremental maintenance (method hooks +
// in-place cache patching via QueryEngine::ApplyMutation) versus the
// rebuild-then-query baseline a mutation-oblivious server would run
// (apply the dataset change, full Method::Build, cache flushed because its
// answers went stale). The dataset churns through interleaved batches of
// mutations and queries until `churn` × |D| graphs have been added/removed
// (default 50%).
//
// Reported per arm: amortized per-mutation maintenance cost, query time,
// and the exact-hit rate — the incremental arm must RETAIN its cache
// across mutations (no flush), the rebuild arm starts cold after every
// batch. The bench exits 1 on any answer divergence between the arms;
// docs/REPRODUCING.md quotes the measured run (incremental maintenance is
// required to be >= 5x cheaper per mutation at 50% churn).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "igq/mutation.h"
#include "methods/registry.h"

namespace igq {
namespace bench {
namespace {

struct ArmTotals {
  int64_t mutate_micros = 0;
  int64_t query_micros = 0;
  uint64_t queries = 0;
  uint64_t exact_hits = 0;
  uint64_t mutations = 0;
};

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const bool smoke = flags.Has("smoke");
  const std::string profile = flags.GetString("profile", "aids");
  const double scale = flags.GetDouble("scale", smoke ? 0.05 : 1.667);
  const std::string method_name = flags.GetString("method", "grapes");
  const double churn = flags.GetDouble("churn", 0.5);
  const size_t batch_mutations =
      flags.GetSize("batch-mutations", smoke ? 20 : 250);
  const size_t batch_queries = flags.GetSize("batch-queries", smoke ? 10 : 50);
  const size_t warm_queries = flags.GetSize("warm-queries", smoke ? 40 : 300);
  const uint64_t seed = flags.GetSize("seed", 2016);

  PrintHeader("Online mutation — incremental maintenance vs rebuild",
              "Interleaved mutation/query batches at the requested churn. "
              "Incremental: ApplyMutation (index hooks + cache patched in "
              "place). Rebuild: dataset change + full Build + cold cache. "
              "Answers must be identical arm for arm.");

  const GraphDatabase db0 = BuildDataset(profile, scale, seed);
  const size_t total_mutations = std::max<size_t>(
      batch_mutations,
      static_cast<size_t>(churn * static_cast<double>(db0.graphs.size())));

  // One shared mutation script: adds clone random dataset graphs (feature
  // distribution stays representative), removes pick random live ids. Both
  // arms replay it verbatim, so their databases stay identical.
  Rng rng(seed + 11);
  std::vector<GraphMutation> script;
  {
    std::vector<GraphId> live;
    for (GraphId i = 0; i < db0.graphs.size(); ++i) live.push_back(i);
    size_t next_id = db0.graphs.size();
    script.reserve(total_mutations);
    for (size_t i = 0; i < total_mutations; ++i) {
      if (rng.Chance(0.5) || live.size() < db0.graphs.size() / 2) {
        const Graph& source = db0.graphs[rng.Below(db0.graphs.size())];
        script.push_back(GraphMutation::Add(source));
        live.push_back(static_cast<GraphId>(next_id++));
      } else {
        const size_t slot = rng.Below(live.size());
        script.push_back(GraphMutation::Remove(live[slot]));
        live.erase(live.begin() + static_cast<ptrdiff_t>(slot));
      }
    }
  }

  // Zipf-skewed workload: repeats across batches are what give the
  // retained cache its hits.
  const WorkloadSpec spec = MakeWorkloadSpec(
      "zipf-zipf", 1.4, warm_queries + 4 * batch_queries, seed + 3);
  const auto workload = GenerateWorkload(db0.graphs, spec);

  IgqOptions options;
  // Smoke geometry is scaled down so the short warm-up still flushes the
  // window — exact hits need flushed entries.
  options.cache_capacity = flags.GetSize("cache", smoke ? 120 : 500);
  options.window_size = flags.GetSize("window", smoke ? 10 : 100);
  options.verify_threads =
      MethodRegistry::Defaults(QueryDirection::kSubgraph, method_name)
          .verify_threads;

  // Incremental arm.
  GraphDatabase db_inc = db0;
  auto method_inc = BuildMethod(method_name, db_inc);
  if (method_inc == nullptr) return 1;
  QueryEngine engine_inc(db_inc, method_inc.get(), options);

  // Rebuild arm: same database trajectory, but every mutation batch costs
  // a full Build and a cold cache (the engine is reconstructed).
  GraphDatabase db_reb = db0;
  auto method_reb = BuildMethod(method_name, db_reb);
  auto engine_reb =
      std::make_unique<QueryEngine>(db_reb, method_reb.get(), options);

  // Warm both caches before the churn starts.
  for (size_t i = 0; i < warm_queries && i < workload.size(); ++i) {
    engine_inc.Process(workload[i].graph);
    engine_reb->Process(workload[i].graph);
  }
  const size_t warm_cache_entries = engine_inc.cache().size();

  ArmTotals inc, reb;
  size_t script_pos = 0, workload_pos = warm_queries;
  bool identical = true;
  while (script_pos < script.size() && identical) {
    const size_t batch_end =
        std::min(script.size(), script_pos + batch_mutations);

    // Incremental: per-mutation ApplyMutation, cache untouched otherwise.
    {
      Timer timer;
      for (size_t i = script_pos; i < batch_end; ++i) {
        engine_inc.ApplyMutation(db_inc, script[i]);
        ++inc.mutations;
      }
      inc.mutate_micros += timer.ElapsedMicros();
    }
    // Rebuild: the batch's dataset changes, then one full Build and a
    // fresh (cold) engine.
    {
      Timer timer;
      for (size_t i = script_pos; i < batch_end; ++i) {
        if (script[i].kind == MutationKind::kAddGraph) {
          db_reb.AddGraph(script[i].graph);
        } else {
          db_reb.RemoveGraph(script[i].id);
        }
        ++reb.mutations;
      }
      method_reb->Build(db_reb);
      engine_reb =
          std::make_unique<QueryEngine>(db_reb, method_reb.get(), options);
      reb.mutate_micros += timer.ElapsedMicros();
    }
    script_pos = batch_end;

    // The query slice after the batch, identical for both arms.
    for (size_t q = 0; q < batch_queries; ++q) {
      const Graph& query =
          workload[(workload_pos + q) % workload.size()].graph;
      QueryStats stats_inc, stats_reb;
      Timer timer_inc;
      const auto answer_inc = engine_inc.Process(query, &stats_inc);
      inc.query_micros += timer_inc.ElapsedMicros();
      Timer timer_reb;
      const auto answer_reb = engine_reb->Process(query, &stats_reb);
      reb.query_micros += timer_reb.ElapsedMicros();
      ++inc.queries;
      ++reb.queries;
      inc.exact_hits += stats_inc.shortcut == ShortcutKind::kExactHit;
      reb.exact_hits += stats_reb.shortcut == ShortcutKind::kExactHit;
      if (answer_inc != answer_reb) {
        std::fprintf(stderr,
                     "ANSWER DIVERGENCE at mutation %zu, query %zu\n",
                     script_pos, q);
        identical = false;
        break;
      }
    }
    workload_pos += batch_queries;
  }

  const auto per_mutation = [](const ArmTotals& totals) {
    return totals.mutations == 0
               ? 0.0
               : static_cast<double>(totals.mutate_micros) /
                     static_cast<double>(totals.mutations);
  };
  const auto hit_rate = [](const ArmTotals& totals) {
    return totals.queries == 0 ? 0.0
                               : 100.0 * static_cast<double>(totals.exact_hits) /
                                     static_cast<double>(totals.queries);
  };
  const double mutation_speedup = Speedup(per_mutation(reb), per_mutation(inc));

  TablePrinter table;
  table.SetHeader({"arm", "per-mutation us", "query us", "exact-hit %",
                   "cache entries"});
  table.AddRow({"rebuild + cold cache", TablePrinter::Num(per_mutation(reb), 1),
                TablePrinter::Num(static_cast<double>(reb.query_micros) /
                                      static_cast<double>(reb.queries),
                                  1),
                TablePrinter::Num(hit_rate(reb), 1),
                std::to_string(engine_reb->cache().size())});
  table.AddRow({"incremental + patched cache",
                TablePrinter::Num(per_mutation(inc), 1),
                TablePrinter::Num(static_cast<double>(inc.query_micros) /
                                      static_cast<double>(inc.queries),
                                  1),
                TablePrinter::Num(hit_rate(inc), 1),
                std::to_string(engine_inc.cache().size())});
  table.Print();
  std::printf("mutations applied        : %llu (churn %.0f%%)\n",
              static_cast<unsigned long long>(inc.mutations),
              100.0 * static_cast<double>(inc.mutations) /
                  static_cast<double>(db0.graphs.size()));
  std::printf("per-mutation speedup     : %.2fx\n", mutation_speedup);
  std::printf("cache retained across churn : %zu -> %zu entries (no flush)\n",
              warm_cache_entries, engine_inc.cache().size());
  std::printf("answers identical        : %s\n", identical ? "yes" : "NO");

  BenchJson json(flags, "mutation", "BENCH_mutation.json");
  json.AddRow({{"profile", profile},
               {"method", method_name},
               {"dataset_graphs", std::to_string(db0.graphs.size())},
               {"churn", std::to_string(churn)},
               {"mutations", std::to_string(inc.mutations)},
               {"arm", "rebuild"},
               {"mutate_micros", std::to_string(reb.mutate_micros)},
               {"per_mutation_micros", std::to_string(per_mutation(reb))},
               {"query_micros", std::to_string(reb.query_micros)},
               {"queries", std::to_string(reb.queries)},
               {"exact_hits", std::to_string(reb.exact_hits)}});
  json.AddRow({{"profile", profile},
               {"method", method_name},
               {"dataset_graphs", std::to_string(db0.graphs.size())},
               {"churn", std::to_string(churn)},
               {"mutations", std::to_string(inc.mutations)},
               {"arm", "incremental"},
               {"mutate_micros", std::to_string(inc.mutate_micros)},
               {"per_mutation_micros", std::to_string(per_mutation(inc))},
               {"query_micros", std::to_string(inc.query_micros)},
               {"queries", std::to_string(inc.queries)},
               {"exact_hits", std::to_string(inc.exact_hits)},
               {"mutation_speedup", std::to_string(mutation_speedup)},
               {"cache_entries_retained",
                std::to_string(engine_inc.cache().size())}});

  return identical ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace igq

int main(int argc, char** argv) { return igq::bench::Main(argc, argv); }
