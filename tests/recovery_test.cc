// End-to-end crash recovery: engines journal their mutations through the WAL
// (durability/wal.h), snapshots land via SaveSnapshotAtomic, and after a
// simulated crash RecoverEngine (durability/recovery.h) must walk its
// degradation ladder to a state BIT-IDENTICAL to a reference engine that
// lived through the same durable prefix — the same differential standard the
// mutate-vs-rebuild harness holds (tests/state_diff.h). Byte-level WAL fault
// coverage lives in durability_test.cc; this file crashes whole engines.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "durability/fault_fs.h"
#include "durability/recovery.h"
#include "durability/wal.h"
#include "igq/concurrent_engine.h"
#include "igq/engine.h"
#include "igq/mutation.h"
#include "methods/registry.h"
#include "snapshot/snapshot.h"
#include "tests/state_diff.h"
#include "tests/test_util.h"

namespace igq {
namespace durability {
namespace {

using igq::testing::ExpectSameCacheState;
using igq::testing::ExpectSameStats;
using igq::testing::RandomConnectedGraph;
using igq::testing::RandomSubgraphOf;

IgqOptions TestOptions() {
  IgqOptions options;
  options.cache_capacity = 50;
  options.window_size = 2;  // small window: queries promote into the cache
  return options;
}

GraphDatabase MakeBase(uint64_t seed, size_t n) {
  Rng rng(seed);
  GraphDatabase db;
  for (size_t i = 0; i < n; ++i) {
    db.graphs.push_back(RandomConnectedGraph(rng, 6 + rng.Below(3), 2, 3));
  }
  db.RefreshLabelCount();
  return db;
}

/// A database + method + engine bundle recovery can be pointed at.
struct World {
  std::unique_ptr<GraphDatabase> db;
  std::unique_ptr<Method> method;
  std::unique_ptr<QueryEngine> engine;
};

World MakeWorld(const GraphDatabase& base, bool build) {
  World w;
  w.db = std::make_unique<GraphDatabase>(base);
  w.method = MethodRegistry::Create(QueryDirection::kSubgraph, "grapes");
  if (build) w.method->Build(*w.db);
  w.engine =
      std::make_unique<QueryEngine>(*w.db, w.method.get(), TestOptions());
  return w;
}

/// The 12-mutation script every timeline test replays: adds of random graphs
/// interleaved with removes of ids that are live at that point (base ids
/// 0..11, adds assigned 12, 13, ... in order).
std::vector<GraphMutation> TimelineScript(uint64_t seed) {
  Rng rng(seed);
  auto add = [&] {
    return GraphMutation::Add(RandomConnectedGraph(rng, 5 + rng.Below(3), 2, 3));
  };
  return {add(),
          GraphMutation::Remove(2),
          add(),
          GraphMutation::Remove(12),  // the first added graph
          add(),
          GraphMutation::Remove(5),
          add(),
          GraphMutation::Remove(0),
          add(),
          GraphMutation::Remove(7),
          add(),
          GraphMutation::Remove(1)};
}

std::vector<Graph> TimelineQueries(const GraphDatabase& base, uint64_t seed) {
  Rng rng(seed);
  std::vector<Graph> queries;
  for (size_t i = 0; i < 4; ++i) {
    queries.push_back(
        RandomSubgraphOf(rng, base.graphs[rng.Below(base.graphs.size())], 4));
  }
  return queries;
}

void ExpectSameDatabase(const GraphDatabase& a, const GraphDatabase& b) {
  EXPECT_EQ(a.mutation_epoch, b.mutation_epoch);
  EXPECT_EQ(a.graphs.size(), b.graphs.size());
  EXPECT_EQ(a.tombstones, b.tombstones);
  EXPECT_EQ(a.num_labels, b.num_labels);
}

/// Strongest equivalence we can assert: database fields, full cache state,
/// and identical answers + stats on a few fresh probe queries.
void ExpectEquivalentWorlds(World& recovered, World& reference,
                            const GraphDatabase& base, uint64_t probe_seed) {
  ExpectSameDatabase(*recovered.db, *reference.db);
  ExpectSameCacheState(recovered.engine->cache(), reference.engine->cache(),
                       /*op=*/0);
  Rng rng(probe_seed);
  for (size_t i = 0; i < 3; ++i) {
    const Graph probe =
        RandomSubgraphOf(rng, base.graphs[rng.Below(base.graphs.size())], 4);
    QueryStats sa, sb;
    const auto answer_a = recovered.engine->Process(probe, &sa);
    const auto answer_b = reference.engine->Process(probe, &sb);
    EXPECT_EQ(answer_a, answer_b) << "probe " << i;
    ExpectSameStats(sa, sb, i);
    ExpectSameCacheState(recovered.engine->cache(), reference.engine->cache(),
                         i + 1);
  }
}

// ---------------------------------------------------------------------------
// The crash-point sweep: cut the log at every record boundary and at every
// byte of the final record; recovery must come back bit-identical to a
// reference engine that applied exactly the surviving records.

TEST(CrashPointSweep, EveryBoundaryAndEveryByteOfFinalRecord) {
  InMemoryFileSystem fs;
  const GraphDatabase base = MakeBase(211, 12);
  const std::vector<GraphMutation> script = TimelineScript(212);

  // Live run: every mutation journaled and synced.
  World live = MakeWorld(base, /*build=*/true);
  WalWriter wal(fs, "wal", WalOptions{});
  ASSERT_TRUE(wal.Open(0, 1));
  live.engine->AttachWal(&wal);
  const std::string path = wal.current_path();
  std::vector<size_t> boundaries = {fs.FileSize(path)};  // [0] = header end
  for (const GraphMutation& mutation : script) {
    ASSERT_TRUE(live.engine->ApplyMutation(*live.db, mutation).applied);
    boundaries.push_back(fs.FileSize(path));
  }
  std::string full;
  ASSERT_TRUE(fs.ReadFile(path, &full));
  ASSERT_EQ(boundaries.back(), full.size());

  // Cut points: every record boundary, plus every byte of the last record.
  std::vector<size_t> cuts(boundaries.begin(), boundaries.end());
  for (size_t b = boundaries[boundaries.size() - 2] + 1; b < full.size(); ++b) {
    cuts.push_back(b);
  }

  for (size_t cut : cuts) {
    ASSERT_TRUE(fs.TruncateFile(path, cut));
    // Records whose frames fully fit below the cut survive.
    size_t r = 0;
    while (r + 1 < boundaries.size() && boundaries[r + 1] <= cut) ++r;

    World recovered = MakeWorld(base, /*build=*/false);
    RecoverySpec spec;
    spec.wal_dir = "wal";
    const RecoveryReport report =
        RecoverEngine(fs, spec, *recovered.db, *recovered.method,
                      *recovered.engine);
    ASSERT_EQ(report.wal_records, r) << "cut " << cut;
    ASSERT_EQ(report.recovered_epoch, r) << "cut " << cut;
    EXPECT_EQ(report.next_wal_sequence, r + 1) << "cut " << cut;
    EXPECT_EQ(report.rung, r == 0 ? RecoveryRung::kColdRebuild
                                  : RecoveryRung::kLogOnly)
        << "cut " << cut;
    EXPECT_EQ(report.wal_truncated_tail,
              cut >= boundaries[0] && cut != boundaries[r])
        << "cut " << cut;

    World reference = MakeWorld(base, /*build=*/true);
    for (size_t i = 0; i < r; ++i) {
      ASSERT_TRUE(
          reference.engine->ApplyMutation(*reference.db, script[i]).applied);
    }
    ExpectEquivalentWorlds(recovered, reference, base, /*probe_seed=*/300 + cut);

    ASSERT_TRUE(fs.SetContents(path, full));  // restore for the next cut
  }
}

// ---------------------------------------------------------------------------
// The degradation ladder. One shared timeline:
//   m0..m3 | q0 q1 | snapA@4 | q2 q3 | m4..m7 | snapB@8 | m8..m11 | CRASH
// Recovery from snapB keeps the warm cache (q0..q3); falling back to snapA
// keeps q0,q1 only; log-only comes back cold but at the right epoch.

struct Timeline {
  GraphDatabase base;
  std::vector<GraphMutation> script;
  std::vector<Graph> queries;
};

Timeline RunTimeline(InMemoryFileSystem& fs) {
  Timeline t;
  t.base = MakeBase(221, 12);
  t.script = TimelineScript(222);
  t.queries = TimelineQueries(t.base, 223);

  World live = MakeWorld(t.base, /*build=*/true);
  WalWriter wal(fs, "wal", WalOptions{});
  EXPECT_TRUE(wal.Open(0, 1));
  live.engine->AttachWal(&wal);
  auto save = [&](const std::string& path) {
    std::string error;
    EXPECT_TRUE(SaveSnapshotAtomic(
        fs, path,
        [&](std::ostream& out, std::string* err) {
          return live.engine->SaveSnapshot(out, err);
        },
        &error))
        << error;
    EXPECT_TRUE(wal.Rotate(live.db->mutation_epoch));
  };

  for (size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(live.engine->ApplyMutation(*live.db, t.script[i]).applied);
  }
  live.engine->Process(t.queries[0]);
  live.engine->Process(t.queries[1]);
  save("snapA");
  live.engine->Process(t.queries[2]);
  live.engine->Process(t.queries[3]);
  for (size_t i = 4; i < 8; ++i) {
    EXPECT_TRUE(live.engine->ApplyMutation(*live.db, t.script[i]).applied);
  }
  save("snapB");
  for (size_t i = 8; i < 12; ++i) {
    EXPECT_TRUE(live.engine->ApplyMutation(*live.db, t.script[i]).applied);
  }
  return t;  // the WalWriter dtor syncs; the "crash" loses nothing here
}

RecoverySpec TimelineSpec() {
  RecoverySpec spec;
  spec.wal_dir = "wal";
  spec.snapshot_paths = {"snapA", "snapB", "snapC-never-existed"};
  return spec;
}

/// Reference arm living through the timeline's durable prefix: mutations
/// m0..m[mutations), with the first `queries` probe queries interleaved at
/// their original positions.
World ReferenceWorld(const Timeline& t, size_t mutations, size_t queries) {
  World w = MakeWorld(t.base, /*build=*/true);
  for (size_t i = 0; i < mutations; ++i) {
    if (i == 4) {
      for (size_t q = 0; q < queries; ++q) w.engine->Process(t.queries[q]);
    }
    EXPECT_TRUE(w.engine->ApplyMutation(*w.db, t.script[i]).applied);
  }
  return w;
}

TEST(Ladder, NewestSnapshotKeepsTheWarmCache) {
  InMemoryFileSystem fs;
  const Timeline t = RunTimeline(fs);

  World recovered = MakeWorld(t.base, /*build=*/false);
  const RecoveryReport report = RecoverEngine(
      fs, TimelineSpec(), *recovered.db, *recovered.method, *recovered.engine);
  EXPECT_EQ(report.rung, RecoveryRung::kNewestSnapshot);
  EXPECT_EQ(report.snapshot_path, "snapB");
  EXPECT_EQ(report.snapshot_epoch, 8u);
  EXPECT_EQ(report.recovered_epoch, 12u);
  EXPECT_EQ(report.wal_records, 12u);
  EXPECT_EQ(report.db_replayed_records, 8u);
  EXPECT_EQ(report.engine_replayed_records, 4u);
  EXPECT_EQ(report.next_wal_sequence, 13u);
  EXPECT_FALSE(report.wal_truncated_tail);
  EXPECT_FALSE(report.Summary().empty());

  World reference = ReferenceWorld(t, 12, 4);
  ExpectEquivalentWorlds(recovered, reference, t.base, 401);
}

TEST(Ladder, OlderSnapshotAfterNewestIsCorrupted) {
  InMemoryFileSystem fs;
  const Timeline t = RunTimeline(fs);
  ASSERT_TRUE(fs.FlipBit("snapB", fs.FileSize("snapB") / 2, 3));

  World recovered = MakeWorld(t.base, /*build=*/false);
  const RecoveryReport report = RecoverEngine(
      fs, TimelineSpec(), *recovered.db, *recovered.method, *recovered.engine);
  EXPECT_EQ(report.rung, RecoveryRung::kOlderSnapshot);
  EXPECT_EQ(report.snapshot_path, "snapA");
  EXPECT_EQ(report.snapshot_epoch, 4u);
  EXPECT_EQ(report.recovered_epoch, 12u);
  EXPECT_EQ(report.engine_replayed_records, 8u);
  EXPECT_FALSE(report.notes.empty());  // says why snapB was rejected

  // q2, q3 ran after snapA and are not journaled: that warmth is lost, by
  // design. The reference arm therefore only saw q0, q1.
  World reference = ReferenceWorld(t, 12, 2);
  ExpectEquivalentWorlds(recovered, reference, t.base, 402);
}

TEST(Ladder, LogOnlyWhenEverySnapshotIsCorrupt) {
  InMemoryFileSystem fs;
  const Timeline t = RunTimeline(fs);
  ASSERT_TRUE(fs.FlipBit("snapA", fs.FileSize("snapA") / 3, 5));
  ASSERT_TRUE(fs.FlipBit("snapB", fs.FileSize("snapB") / 2, 3));

  World recovered = MakeWorld(t.base, /*build=*/false);
  const RecoveryReport report = RecoverEngine(
      fs, TimelineSpec(), *recovered.db, *recovered.method, *recovered.engine);
  EXPECT_EQ(report.rung, RecoveryRung::kLogOnly);
  EXPECT_EQ(report.snapshot_path, "");
  EXPECT_EQ(report.recovered_epoch, 12u);
  EXPECT_EQ(report.engine_replayed_records, 12u);

  World reference = ReferenceWorld(t, 12, 0);  // cold cache
  ExpectEquivalentWorlds(recovered, reference, t.base, 403);
}

TEST(Ladder, ColdRebuildWhenNothingIsUsable) {
  InMemoryFileSystem fs;
  const Timeline t = RunTimeline(fs);
  ASSERT_TRUE(fs.FlipBit("snapA", fs.FileSize("snapA") / 3, 5));
  ASSERT_TRUE(fs.FlipBit("snapB", fs.FileSize("snapB") / 2, 3));
  for (const std::string& name : fs.ListDir("wal")) {
    ASSERT_TRUE(fs.Remove("wal/" + name));
  }

  World recovered = MakeWorld(t.base, /*build=*/false);
  const RecoveryReport report = RecoverEngine(
      fs, TimelineSpec(), *recovered.db, *recovered.method, *recovered.engine);
  EXPECT_EQ(report.rung, RecoveryRung::kColdRebuild);
  EXPECT_EQ(report.recovered_epoch, 0u);
  EXPECT_FALSE(report.notes.empty());

  // The worst rung still yields a working engine on the base dataset.
  World reference = MakeWorld(t.base, /*build=*/true);
  ExpectEquivalentWorlds(recovered, reference, t.base, 404);
}

TEST(Ladder, SnapshotAheadOfTheTornLogIsSkipped) {
  InMemoryFileSystem fs;
  const GraphDatabase base = MakeBase(231, 12);
  const std::vector<GraphMutation> script = TimelineScript(232);

  World live = MakeWorld(base, /*build=*/true);
  WalWriter wal(fs, "wal", WalOptions{});
  ASSERT_TRUE(wal.Open(0, 1));
  live.engine->AttachWal(&wal);
  std::vector<size_t> boundaries = {fs.FileSize(wal.current_path())};
  for (size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(live.engine->ApplyMutation(*live.db, script[i]).applied);
    boundaries.push_back(fs.FileSize(wal.current_path()));
  }
  std::string error;
  ASSERT_TRUE(SaveSnapshotAtomic(
      fs, "snap",
      [&](std::ostream& out, std::string* err) {
        return live.engine->SaveSnapshot(out, err);
      },
      &error))
      << error;
  // The log loses record 2 (say the disk ate it): the epoch-2 snapshot now
  // points past anything the log can replay to, so it is unusable.
  ASSERT_TRUE(fs.TruncateFile(wal.current_path(), boundaries[1]));

  World recovered = MakeWorld(base, /*build=*/false);
  RecoverySpec spec;
  spec.wal_dir = "wal";
  spec.snapshot_paths = {"snap"};
  const RecoveryReport report = RecoverEngine(
      fs, spec, *recovered.db, *recovered.method, *recovered.engine);
  EXPECT_EQ(report.rung, RecoveryRung::kLogOnly);
  EXPECT_EQ(report.recovered_epoch, 1u);
  EXPECT_FALSE(report.notes.empty());

  World reference = MakeWorld(base, /*build=*/true);
  ASSERT_TRUE(reference.engine->ApplyMutation(*reference.db, script[0]).applied);
  ExpectEquivalentWorlds(recovered, reference, base, 405);
}

// ---------------------------------------------------------------------------
// Atomic snapshot saves: a crash mid-save must leave the previous snapshot
// loadable, and recovery must then use it.

TEST(AtomicSave, CrashMidSavePreservesThePreviousSnapshot) {
  InMemoryFileSystem fs;
  const GraphDatabase base = MakeBase(241, 12);
  const std::vector<GraphMutation> script = TimelineScript(242);

  World live = MakeWorld(base, /*build=*/true);
  WalWriter wal(fs, "wal", WalOptions{});
  ASSERT_TRUE(wal.Open(0, 1));
  live.engine->AttachWal(&wal);
  auto save_through = [&](FileSystem& target_fs, std::string* error) {
    return SaveSnapshotAtomic(
        target_fs, "snap",
        [&](std::ostream& out, std::string* err) {
          return live.engine->SaveSnapshot(out, err);
        },
        error);
  };

  for (size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(live.engine->ApplyMutation(*live.db, script[i]).applied);
  }
  std::string error;
  ASSERT_TRUE(save_through(fs, &error)) << error;
  ASSERT_TRUE(wal.Rotate(2));
  for (size_t i = 2; i < 4; ++i) {
    ASSERT_TRUE(live.engine->ApplyMutation(*live.db, script[i]).applied);
  }

  // The periodic re-save of the same path dies partway through the tmp
  // file; then the machine crashes, dropping every unsynced byte.
  FaultFs faulty(fs);
  faulty.plan.crash_after_bytes = 100;
  EXPECT_FALSE(save_through(faulty, nullptr));
  fs.SimulateCrash();

  World recovered = MakeWorld(base, /*build=*/false);
  RecoverySpec spec;
  spec.wal_dir = "wal";
  spec.snapshot_paths = {"snap"};
  const RecoveryReport report = RecoverEngine(
      fs, spec, *recovered.db, *recovered.method, *recovered.engine);
  EXPECT_EQ(report.rung, RecoveryRung::kNewestSnapshot);
  EXPECT_EQ(report.snapshot_epoch, 2u);
  EXPECT_EQ(report.recovered_epoch, 4u);
  EXPECT_EQ(report.engine_replayed_records, 2u);

  World reference = MakeWorld(base, /*build=*/true);
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(reference.engine->ApplyMutation(*reference.db, script[i]).applied);
  }
  ExpectEquivalentWorlds(recovered, reference, base, 406);
}

// ---------------------------------------------------------------------------
// Snapshot epoch peeking and typed load errors.

TEST(SnapshotInspection, PeekSnapshotEpochReadsTheEpoch) {
  const GraphDatabase base = MakeBase(251, 10);
  const std::vector<GraphMutation> script = TimelineScript(252);
  World w = MakeWorld(base, /*build=*/true);
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(w.engine->ApplyMutation(*w.db, script[i]).applied);
  }
  std::ostringstream out;
  ASSERT_TRUE(w.engine->SaveSnapshot(out));
  const std::string snapshot = std::move(out).str();

  uint64_t epoch = 0;
  std::string error;
  ASSERT_TRUE(PeekSnapshotEpoch(snapshot, &epoch, &error)) << error;
  EXPECT_EQ(epoch, 3u);

  // A never-mutated engine's snapshot peeks as epoch 0.
  World w0 = MakeWorld(base, /*build=*/true);
  std::ostringstream out0;
  ASSERT_TRUE(w0.engine->SaveSnapshot(out0));
  ASSERT_TRUE(PeekSnapshotEpoch(std::move(out0).str(), &epoch, &error));
  EXPECT_EQ(epoch, 0u);

  // Corruption anywhere fails the peek instead of returning garbage.
  std::string bent = snapshot;
  bent[bent.size() / 2] = static_cast<char>(bent[bent.size() / 2] ^ 0x10);
  EXPECT_FALSE(PeekSnapshotEpoch(bent, &epoch, &error));
  EXPECT_FALSE(PeekSnapshotEpoch(snapshot.substr(0, snapshot.size() / 2),
                                 &epoch, &error));
  EXPECT_FALSE(PeekSnapshotEpoch("", &epoch, &error));

  // So does a checksum-valid snapshot whose mutation-state payload carries
  // an unknown payload version.
  std::istringstream in(snapshot);
  igq::snapshot::SnapshotSections sections;
  ASSERT_TRUE(igq::snapshot::ReadSnapshot(in, &sections, &error)) << error;
  ASSERT_TRUE(sections.cache && sections.mutation_state);
  (*sections.mutation_state)[0] = 99;  // u32 payload version, little-endian
  std::ostringstream skewed;
  igq::snapshot::WriteSnapshotHeader(skewed);
  igq::snapshot::WriteSection(skewed, igq::snapshot::kSectionCache,
                              *sections.cache);
  igq::snapshot::WriteSection(skewed, igq::snapshot::kSectionMutationState,
                              *sections.mutation_state);
  igq::snapshot::WriteSnapshotEnd(skewed);
  EXPECT_FALSE(PeekSnapshotEpoch(std::move(skewed).str(), &epoch, &error));
}

TEST(SnapshotInspection, LoadSnapshotClassifiesFailures) {
  const GraphDatabase base = MakeBase(253, 10);
  const std::vector<GraphMutation> script = TimelineScript(254);
  World w = MakeWorld(base, /*build=*/true);
  for (size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(w.engine->ApplyMutation(*w.db, script[i]).applied);
  }
  std::ostringstream out;
  ASSERT_TRUE(w.engine->SaveSnapshot(out));
  const std::string snapshot = std::move(out).str();

  // A same-state twin loads cleanly: kNone.
  auto twin = [&] {
    World t = MakeWorld(base, /*build=*/true);
    for (size_t i = 0; i < 2; ++i) {
      EXPECT_TRUE(t.engine->ApplyMutation(*t.db, script[i]).applied);
    }
    return t;
  };
  {
    World t = twin();
    std::istringstream in(snapshot);
    SnapshotLoadInfo info;
    ASSERT_TRUE(t.engine->LoadSnapshot(in, nullptr, &info));
    EXPECT_EQ(info.error_kind, snapshot::SnapshotErrorKind::kNone);
    EXPECT_EQ(info.mutation_epoch, 2u);
  }
  {
    // Truncation → corrupt bytes.
    World t = twin();
    std::istringstream in(snapshot.substr(0, snapshot.size() / 2));
    SnapshotLoadInfo info;
    std::string error;
    EXPECT_FALSE(t.engine->LoadSnapshot(in, &error, &info));
    EXPECT_EQ(info.error_kind, snapshot::SnapshotErrorKind::kCorrupt) << error;
  }
  {
    // Container version bump → version skew, not "corrupt".
    World t = twin();
    std::string skewed = snapshot;
    skewed[4] = static_cast<char>(snapshot::kSnapshotVersion + 1);
    std::istringstream in(skewed);
    SnapshotLoadInfo info;
    EXPECT_FALSE(t.engine->LoadSnapshot(in, nullptr, &info));
    EXPECT_EQ(info.error_kind, snapshot::SnapshotErrorKind::kVersionSkew);
  }
  {
    // Intact snapshot, wrong database state → dataset divergence.
    World t = MakeWorld(base, /*build=*/true);  // still at epoch 0
    std::istringstream in(snapshot);
    SnapshotLoadInfo info;
    std::string error;
    EXPECT_FALSE(t.engine->LoadSnapshot(in, &error, &info));
    EXPECT_EQ(info.error_kind,
              snapshot::SnapshotErrorKind::kDatasetDivergence)
        << error;
  }
}

// ---------------------------------------------------------------------------
// Life goes on after recovery: the WAL reopens at the recovered epoch, new
// mutations journal into a fresh segment, and a second crash recovers both
// generations — including the resume-after-torn-tail segment layout.

TEST(Continuation, SecondGenerationSurvivesASecondCrash) {
  InMemoryFileSystem fs;
  const GraphDatabase base = MakeBase(261, 12);
  const std::vector<GraphMutation> script = TimelineScript(262);

  World live = MakeWorld(base, /*build=*/true);
  {
    WalWriter wal(fs, "wal", WalOptions{});
    ASSERT_TRUE(wal.Open(0, 1));
    live.engine->AttachWal(&wal);
    std::vector<size_t> boundaries = {fs.FileSize(wal.current_path())};
    for (size_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(live.engine->ApplyMutation(*live.db, script[i]).applied);
      boundaries.push_back(fs.FileSize(wal.current_path()));
    }
    live.engine->AttachWal(nullptr);
    // Crash tears record 4 in half.
    ASSERT_TRUE(fs.TruncateFile(
        wal.current_path(), (boundaries[3] + boundaries[4]) / 2));
  }

  World gen2 = MakeWorld(base, /*build=*/false);
  RecoverySpec spec;
  spec.wal_dir = "wal";
  const RecoveryReport first = RecoverEngine(
      fs, spec, *gen2.db, *gen2.method, *gen2.engine);
  ASSERT_EQ(first.recovered_epoch, 3u);
  ASSERT_EQ(first.next_wal_sequence, 4u);
  EXPECT_TRUE(first.wal_truncated_tail);

  // Second generation: reopen the log where recovery left off and keep
  // mutating. The new segment starts mid-chain, at the recovered epoch.
  Rng rng(263);
  WalWriter wal2(fs, "wal", WalOptions{});
  ASSERT_TRUE(wal2.Open(first.recovered_epoch, first.next_wal_sequence));
  gen2.engine->AttachWal(&wal2);
  std::vector<GraphMutation> extra;
  for (size_t i = 0; i < 3; ++i) {
    extra.push_back(
        GraphMutation::Add(RandomConnectedGraph(rng, 5, 2, 3)));
    ASSERT_TRUE(gen2.engine->ApplyMutation(*gen2.db, extra.back()).applied);
  }
  gen2.engine->AttachWal(nullptr);

  World gen3 = MakeWorld(base, /*build=*/false);
  const RecoveryReport second = RecoverEngine(
      fs, spec, *gen3.db, *gen3.method, *gen3.engine);
  EXPECT_EQ(second.recovered_epoch, 6u);
  EXPECT_EQ(second.wal_records, 6u);
  EXPECT_EQ(second.next_wal_sequence, 7u);
  EXPECT_FALSE(second.wal_truncated_tail);

  World reference = MakeWorld(base, /*build=*/true);
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        reference.engine->ApplyMutation(*reference.db, script[i]).applied);
  }
  for (const GraphMutation& mutation : extra) {
    ASSERT_TRUE(reference.engine->ApplyMutation(*reference.db, mutation).applied);
  }
  ExpectEquivalentWorlds(gen3, reference, base, 407);
}

// ---------------------------------------------------------------------------
// The concurrent engine: queries stream while the writer journals mutations
// under the gate (run under TSan in CI), and the ConcurrentQueryEngine
// recovery overload brings a crashed instance back.

TEST(ConcurrentWal, QueriesStreamWhileMutationsJournal) {
  InMemoryFileSystem fs;
  const GraphDatabase base = MakeBase(271, 16);
  auto db = std::make_unique<GraphDatabase>(base);
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "grapes");
  method->Build(*db);
  ConcurrentQueryEngine engine(*db, method.get(), TestOptions());

  WalWriter wal(fs, "wal", WalOptions{});
  ASSERT_TRUE(wal.Open(0, 1));
  engine.AttachWal(&wal);

  constexpr size_t kQueryThreads = 3;
  constexpr size_t kQueriesPerThread = 24;
  constexpr size_t kMutations = 12;
  std::vector<std::thread> workers;
  for (size_t thread_id = 0; thread_id < kQueryThreads; ++thread_id) {
    workers.emplace_back([&, thread_id] {
      Rng rng(273 + thread_id);
      for (size_t i = 0; i < kQueriesPerThread; ++i) {
        const Graph query = RandomSubgraphOf(
            rng, base.graphs[rng.Below(base.graphs.size())], 4);
        engine.Process(query);
      }
    });
  }
  Rng rng(272);
  size_t applied = 0;
  for (size_t i = 0; i < kMutations; ++i) {
    const GraphMutation mutation =
        i % 2 == 0 ? GraphMutation::Add(RandomConnectedGraph(rng, 5, 2, 3))
                   : GraphMutation::Remove(static_cast<GraphId>(i));
    const MutationResult result = engine.ApplyMutation(*db, mutation);
    ASSERT_TRUE(result.applied);
    ASSERT_FALSE(result.wal_failed);
    ASSERT_EQ(result.wal_sequence, applied + 1);
    ++applied;
  }
  for (std::thread& worker : workers) worker.join();
  engine.AttachWal(nullptr);

  const WalScan scan = ScanWal(fs, "wal");
  ASSERT_EQ(scan.records.size(), applied);
  EXPECT_EQ(scan.last_epoch, db->mutation_epoch);

  // Bring a crashed twin back through the concurrent-engine overload.
  auto db2 = std::make_unique<GraphDatabase>(base);
  auto method2 = MethodRegistry::Create(QueryDirection::kSubgraph, "grapes");
  ConcurrentQueryEngine engine2(*db2, method2.get(), TestOptions());
  RecoverySpec spec;
  spec.wal_dir = "wal";
  const RecoveryReport report =
      RecoverEngine(fs, spec, *db2, *method2, engine2);
  EXPECT_EQ(report.rung, RecoveryRung::kLogOnly);
  EXPECT_EQ(report.recovered_epoch, db->mutation_epoch);
  EXPECT_EQ(db2->graphs.size(), db->graphs.size());
  EXPECT_EQ(db2->tombstones, db->tombstones);

  // And it answers: same result as a sequential engine on the same state.
  Rng probe_rng(274);
  const Graph probe = RandomSubgraphOf(probe_rng, base.graphs[1], 4);
  QueryEngine oracle(*db2, method2.get(), TestOptions());
  EXPECT_EQ(engine2.Process(probe), oracle.Process(probe));
}

}  // namespace
}  // namespace durability
}  // namespace igq
