// Chemical substructure search — the paper's motivating scenario (§1).
//
// Chemical queries are naturally hierarchical: elements ⊆ functional groups
// ⊆ compounds ⊆ compound clusters. This example builds an AIDS-like
// molecule database, issues such a hierarchy of fragment queries, and shows
// how iGQ exploits the sub/supergraph relationships among the queries
// themselves: the same workload is run with iGQ off and on, and the
// verification work is compared.
//
// Build: cmake --build build && ./build/examples/chemical_search
#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "datasets/profiles.h"
#include "graph/algorithms.h"
#include "igq/engine.h"
#include "methods/grapes.h"
#include "workload/query_generator.h"

using igq::Graph;
using igq::GraphDatabase;

int main() {
  // An AIDS-like molecule database (600 molecules, 62 atom labels).
  igq::AidsLikeParams params;
  params.num_graphs = 2000;
  GraphDatabase db;
  db.graphs = MakeAidsLike(params, /*seed=*/7);
  db.RefreshLabelCount();
  std::printf("molecule database: %zu graphs, %zu atom labels\n",
              db.graphs.size(), db.num_labels);

  igq::GrapesMethod method(/*threads=*/2);
  method.Build(db);

  // A hierarchical query log: for each of 60 "research sessions", a chemist
  // drills down around one substructure at increasing sizes (4 -> 20 bonds),
  // then revisits the most interesting fragment (an exact repeat).
  std::vector<Graph> query_log;
  igq::Rng rng(41);
  for (int session = 0; session < 60; ++session) {
    const Graph& molecule = db.graphs[rng.Below(db.graphs.size())];
    const igq::VertexId atom =
        static_cast<igq::VertexId>(rng.Below(molecule.NumVertices()));
    for (size_t bonds : {4u, 8u, 12u, 16u, 20u}) {
      query_log.push_back(igq::BfsNeighborhoodQuery(molecule, atom, bonds));
    }
    query_log.push_back(igq::BfsNeighborhoodQuery(molecule, atom, 8));
  }

  auto run = [&](bool enable_igq) {
    igq::IgqOptions options;
    options.enabled = enable_igq;
    options.cache_capacity = 200;
    options.window_size = 20;
    options.verify_threads = 2;
    igq::QueryEngine engine(db, &method, options);
    // The whole session log goes through one batch call on one stream: the
    // queries run in order on this thread, and the engine reuses its
    // verification pool across all of them instead of spawning threads per
    // query.
    size_t tests = 0, answers = 0;
    int64_t micros = 0;
    for (const igq::QueryResult& result :
         engine.ProcessConcurrent(query_log, /*streams=*/1)) {
      tests += result.stats.iso_tests;
      answers += result.stats.answer_size;
      micros += result.stats.total_micros;
    }
    return std::make_tuple(tests, answers, micros);
  };

  const auto [base_tests, base_answers, base_micros] = run(false);
  const auto [igq_tests, igq_answers, igq_micros] = run(true);

  std::printf("\n%zu hierarchical queries (answers identical: %s)\n",
              query_log.size(), base_answers == igq_answers ? "yes" : "NO");
  std::printf("  plain Grapes : %zu isomorphism tests, %.1f ms\n", base_tests,
              base_micros / 1000.0);
  std::printf("  iGQ + Grapes : %zu isomorphism tests, %.1f ms\n", igq_tests,
              igq_micros / 1000.0);
  std::printf("  -> %.2fx fewer tests, %.2fx faster\n",
              static_cast<double>(base_tests) /
                  static_cast<double>(igq_tests == 0 ? 1 : igq_tests),
              static_cast<double>(base_micros) /
                  static_cast<double>(igq_micros == 0 ? 1 : igq_micros));
  return 0;
}
