// Tests for the warm-start persistence subsystem: serializer primitives,
// method-index save/load, full engine snapshot round trips (the restored
// engine must replay a query stream *identically* — answers, shortcut and
// hit sequences, replacement victims), and rejection of corrupted,
// truncated, or version-mismatched snapshots.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "features/canonical.h"
#include "igq/engine.h"
#include "igq/mutation.h"
#include "igq/sharded_cache.h"
#include "methods/feature_count_index.h"
#include "methods/ggsx.h"
#include "methods/grapes.h"
#include "methods/path_trie.h"
#include "methods/registry.h"
#include "snapshot/mutation_state.h"
#include "snapshot/serializer.h"
#include "snapshot/snapshot.h"
#include "tests/cache_payload.h"
#include "tests/test_util.h"

namespace igq {
namespace {

using testing::BruteForceSubgraphAnswer;
using testing::RandomConnectedGraph;
using testing::RandomSubgraphOf;

GraphDatabase MakeDb(uint64_t seed, size_t num_graphs = 30) {
  Rng rng(seed);
  GraphDatabase db;
  for (size_t i = 0; i < num_graphs; ++i) {
    db.graphs.push_back(
        RandomConnectedGraph(rng, 10 + rng.Below(14), 4 + rng.Below(10), 3));
  }
  db.RefreshLabelCount();
  return db;
}

// Workload with repeats and nested queries so the cache sees hits, prunes,
// window flushes, and evictions.
std::vector<Graph> MakeWorkload(const GraphDatabase& db, uint64_t seed,
                                size_t count) {
  Rng rng(seed);
  std::vector<Graph> queries;
  while (queries.size() < count) {
    const Graph& source = db.graphs[rng.Below(db.graphs.size())];
    queries.push_back(RandomSubgraphOf(rng, source, 4 + rng.Below(10)));
    if (rng.Chance(0.3) && queries.size() > 1) {
      queries.push_back(queries[rng.Below(queries.size())]);
    }
  }
  queries.resize(count);
  return queries;
}

// The behavioral fingerprint of one processed query — everything that must
// be identical between an engine and its snapshot-restored clone.
struct QueryTrace {
  std::vector<GraphId> answer;
  ShortcutKind shortcut;
  size_t isub_hits, isuper_hits, iso_tests, candidates_final;
  std::vector<uint64_t> cached_ids;  // surviving entries => eviction victims

  bool operator==(const QueryTrace&) const = default;
};

QueryTrace TraceQuery(QueryEngine& engine, const Graph& query) {
  QueryTrace trace;
  QueryStats stats;
  trace.answer = engine.Process(query, &stats);
  trace.shortcut = stats.shortcut;
  trace.isub_hits = stats.isub_hits;
  trace.isuper_hits = stats.isuper_hits;
  trace.iso_tests = stats.iso_tests;
  trace.candidates_final = stats.candidates_final;
  for (const CachedQuery& entry : engine.cache().Entries()) {
    trace.cached_ids.push_back(entry.id);
  }
  return trace;
}

TEST(SerializerTest, PrimitivesRoundTrip) {
  std::stringstream buffer;
  snapshot::BinaryWriter writer(buffer);
  writer.WriteU8(7);
  writer.WriteU32(0xDEADBEEF);
  writer.WriteU64(uint64_t{1} << 53);
  writer.WriteDouble(-3.25);
  writer.WriteString("igq");
  ASSERT_TRUE(writer.ok());

  snapshot::BinaryReader reader(buffer);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  double d = 0;
  std::string s;
  EXPECT_TRUE(reader.ReadU8(&u8));
  EXPECT_TRUE(reader.ReadU32(&u32));
  EXPECT_TRUE(reader.ReadU64(&u64));
  EXPECT_TRUE(reader.ReadDouble(&d));
  EXPECT_TRUE(reader.ReadString(&s));
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 0xDEADBEEF);
  EXPECT_EQ(u64, uint64_t{1} << 53);
  EXPECT_EQ(d, -3.25);
  EXPECT_EQ(s, "igq");
  EXPECT_EQ(writer.crc(), reader.crc());
}

TEST(SerializerTest, Crc32MatchesKnownValue) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  EXPECT_EQ(snapshot::Crc32("123456789", 9), 0xCBF43926u);
}

TEST(SerializerTest, ReadPastEndFails) {
  std::stringstream buffer;
  snapshot::BinaryWriter writer(buffer);
  writer.WriteU32(1);
  snapshot::BinaryReader reader(buffer);
  uint64_t value = 0;
  EXPECT_FALSE(reader.ReadU64(&value));
  EXPECT_FALSE(reader.ok());
}

TEST(SerializerTest, OversizedStringLengthRejectedWithoutAllocating) {
  std::stringstream buffer;
  snapshot::BinaryWriter writer(buffer);
  writer.WriteU64(uint64_t{1} << 60);  // absurd length, no payload
  snapshot::BinaryReader reader(buffer);
  std::string value;
  EXPECT_FALSE(reader.ReadString(&value));
}

TEST(SerializerTest, GraphRoundTrip) {
  Rng rng(11);
  const Graph original = RandomConnectedGraph(rng, 12, 8, 4);
  std::stringstream buffer;
  snapshot::BinaryWriter writer(buffer);
  snapshot::WriteGraph(writer, original);
  snapshot::BinaryReader reader(buffer);
  Graph restored;
  ASSERT_TRUE(snapshot::ReadGraph(reader, &restored));
  EXPECT_TRUE(restored == original);
}

TEST(SectionTest, UnknownSectionsAreSkippedKnownOnesDecoded) {
  std::stringstream buffer;
  snapshot::WriteSnapshotHeader(buffer);
  snapshot::WriteSection(buffer, 42, "future payload");
  snapshot::WriteSection(buffer, snapshot::kSectionCache, "cache!");
  snapshot::WriteSnapshotEnd(buffer);

  std::string error;
  ASSERT_TRUE(snapshot::ReadSnapshotHeader(buffer, &error)) << error;
  snapshot::Section section;
  ASSERT_TRUE(snapshot::ReadSection(buffer, &section, &error)) << error;
  EXPECT_EQ(section.id, 42u);
  ASSERT_TRUE(snapshot::ReadSection(buffer, &section, &error)) << error;
  EXPECT_EQ(section.id, snapshot::kSectionCache);
  EXPECT_EQ(section.payload, "cache!");
  ASSERT_TRUE(snapshot::ReadSection(buffer, &section, &error)) << error;
  EXPECT_EQ(section.id, snapshot::kSectionEnd);
}

TEST(SectionTest, FlippedPayloadByteFailsChecksum) {
  std::stringstream buffer;
  snapshot::WriteSnapshotHeader(buffer);
  snapshot::WriteSection(buffer, snapshot::kSectionCache, "sensitive bytes");
  std::string bytes = buffer.str();
  bytes[bytes.size() - 6] ^= 0x40;  // inside the payload, before the CRC
  std::stringstream corrupted(bytes);
  std::string error;
  ASSERT_TRUE(snapshot::ReadSnapshotHeader(corrupted, &error));
  snapshot::Section section;
  EXPECT_FALSE(snapshot::ReadSection(corrupted, &section, &error));
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

TEST(PathTrieLoadTest, OutOfRangeLocationRejected) {
  // Hand-craft a payload per docs/FORMATS.md: one root node with a single
  // posting whose location exceeds the target graph's vertex count. The
  // bytes are internally consistent (they would survive any checksum), so
  // only Load's own validation stands between them and an out-of-bounds
  // write in Grapes verification.
  std::stringstream buffer;
  snapshot::BinaryWriter writer(buffer);
  writer.WriteU8(1);   // store_locations
  writer.WriteU64(1);  // one node (the root)
  writer.WriteU32(0);  // no children
  writer.WriteU32(1);  // one posting
  writer.WriteU32(0);  // graph_id 0
  writer.WriteU32(1);  // count
  writer.WriteU32(1);  // one location
  writer.WriteU32(99);  // vertex 99 of a 3-vertex graph
  snapshot::BinaryReader reader(buffer);
  PathTrie trie(/*store_locations=*/true);
  const std::vector<Graph> graphs{testing::Triangle()};
  EXPECT_FALSE(trie.Load(reader, 1, std::span<const Graph>(graphs)));
}

TEST(PathTrieLoadTest, DuplicatePostingRejected) {
  std::stringstream buffer;
  snapshot::BinaryWriter writer(buffer);
  writer.WriteU8(0);   // no locations
  writer.WriteU64(1);  // one node
  writer.WriteU32(0);  // no children
  writer.WriteU32(2);  // two postings for the same graph: double-counts
  writer.WriteU32(0);
  writer.WriteU32(1);
  writer.WriteU32(0);
  writer.WriteU32(1);
  snapshot::BinaryReader reader(buffer);
  PathTrie trie;
  EXPECT_FALSE(trie.Load(reader, 1));
}

class MethodIndexRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(MethodIndexRoundTrip, FilterAndVerifyIdenticalAfterLoad) {
  const GraphDatabase db = MakeDb(7);
  auto built = MethodRegistry::Create(QueryDirection::kSubgraph, GetParam());
  ASSERT_NE(built, nullptr);
  built->Build(db);

  std::stringstream buffer;
  ASSERT_TRUE(built->SaveIndex(buffer));

  auto restored = MethodRegistry::Create(QueryDirection::kSubgraph, GetParam());
  ASSERT_TRUE(restored->LoadIndex(db, buffer));
  // MemoryBytes counts vector capacities, which differ between a
  // push_back-grown and a deserialized trie — only sanity-check it.
  EXPECT_GT(restored->IndexMemoryBytes(), 0u);

  Rng rng(21);
  for (int i = 0; i < 20; ++i) {
    const Graph query =
        RandomSubgraphOf(rng, db.graphs[rng.Below(db.graphs.size())], 6);
    const auto built_prepared = built->Prepare(query);
    const auto restored_prepared = restored->Prepare(query);
    const auto candidates = built->Filter(*built_prepared);
    EXPECT_EQ(restored->Filter(*restored_prepared), candidates);
    for (GraphId id : candidates) {
      EXPECT_EQ(restored->Verify(*restored_prepared, id),
                built->Verify(*built_prepared, id));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PathMethods, MethodIndexRoundTrip,
                         ::testing::Values("ggsx", "grapes", "grapes6"));

TEST(MethodIndexTest, SupergraphFeatureCountRoundTrip) {
  const GraphDatabase db = MakeDb(9, 20);
  auto built =
      MethodRegistry::Create(QueryDirection::kSupergraph, "featurecount");
  built->Build(db);
  std::stringstream buffer;
  ASSERT_TRUE(built->SaveIndex(buffer));

  auto restored =
      MethodRegistry::Create(QueryDirection::kSupergraph, "featurecount");
  ASSERT_TRUE(restored->LoadIndex(db, buffer));

  Rng rng(33);
  for (int i = 0; i < 10; ++i) {
    const Graph query = RandomConnectedGraph(rng, 16, 10, 3);
    const auto prepared = restored->Prepare(query);
    EXPECT_EQ(restored->Filter(*prepared),
              built->Filter(*built->Prepare(query)));
  }
}

TEST(MethodIndexTest, UnbuiltMethodRefusesToSave) {
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  std::stringstream buffer;
  EXPECT_FALSE(method->SaveIndex(buffer));
}

TEST(MethodIndexTest, MismatchedConfigurationRejected) {
  const GraphDatabase db = MakeDb(13, 10);
  GgsxMethod shallow(/*max_path_edges=*/2);
  shallow.Build(db);
  std::stringstream buffer;
  ASSERT_TRUE(shallow.SaveIndex(buffer));
  GgsxMethod deep(/*max_path_edges=*/4);
  EXPECT_FALSE(deep.LoadIndex(db, buffer));
}

TEST(MethodIndexTest, LocationStorageMismatchRejected) {
  const GraphDatabase db = MakeDb(14, 10);
  GgsxMethod ggsx;  // no locations
  ggsx.Build(db);
  std::stringstream buffer;
  ASSERT_TRUE(ggsx.SaveIndex(buffer));
  GrapesMethod grapes;  // stores locations
  EXPECT_FALSE(grapes.LoadIndex(db, buffer));
}

// The acceptance-criteria test: a restored engine answers a query stream
// identically to the engine that produced the snapshot — same answers,
// same shortcut/hit sequence, same iso-test counts, same eviction victims.
TEST(EngineSnapshotTest, RestoredEngineReplaysStreamIdentically) {
  const GraphDatabase db = MakeDb(101);
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  method->Build(db);

  IgqOptions options;
  options.cache_capacity = 8;  // tiny: forces evictions during the suffix
  options.window_size = 3;
  QueryEngine producer(db, method.get(), options);

  const std::vector<Graph> workload = MakeWorkload(db, 55, 80);
  const size_t split = 37;  // mid-window: Itemp must survive the round trip
  for (size_t i = 0; i < split; ++i) producer.Process(workload[i]);

  std::stringstream buffer;
  std::string error;
  ASSERT_TRUE(producer.SaveSnapshot(buffer, &error)) << error;

  auto consumer_method =
      MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  QueryEngine consumer(db, consumer_method.get(), options);
  SnapshotLoadInfo info;
  ASSERT_TRUE(consumer.LoadSnapshot(buffer, &error, &info)) << error;
  EXPECT_TRUE(info.method_index_restored);
  EXPECT_EQ(info.cached_queries, producer.cache().size());
  EXPECT_EQ(consumer.cache().window_fill(), producer.cache().window_fill());
  EXPECT_EQ(consumer.cache().queries_processed(),
            producer.cache().queries_processed());

  for (size_t i = split; i < workload.size(); ++i) {
    const QueryTrace expected = TraceQuery(producer, workload[i]);
    const QueryTrace actual = TraceQuery(consumer, workload[i]);
    EXPECT_EQ(actual, expected) << "divergence at query " << i;
    EXPECT_EQ(expected.answer, BruteForceSubgraphAnswer(db.graphs, workload[i]))
        << "query " << i;
  }
}

TEST(EngineSnapshotTest, SupergraphEngineRoundTrips) {
  const GraphDatabase db = MakeDb(17, 20);
  auto method =
      MethodRegistry::Create(QueryDirection::kSupergraph, "featurecount");
  method->Build(db);
  IgqOptions options;
  options.cache_capacity = 6;
  options.window_size = 2;
  QueryEngine producer(db, method.get(), options);

  Rng rng(71);
  std::vector<Graph> workload;
  for (int i = 0; i < 40; ++i) {
    workload.push_back(RandomConnectedGraph(rng, 14 + rng.Below(8), 10, 3));
  }
  for (size_t i = 0; i < 25; ++i) producer.Process(workload[i]);

  std::stringstream buffer;
  std::string error;
  ASSERT_TRUE(producer.SaveSnapshot(buffer, &error)) << error;

  auto consumer_method =
      MethodRegistry::Create(QueryDirection::kSupergraph, "featurecount");
  QueryEngine consumer(db, consumer_method.get(), options);
  ASSERT_TRUE(consumer.LoadSnapshot(buffer, &error)) << error;
  for (size_t i = 25; i < workload.size(); ++i) {
    EXPECT_EQ(TraceQuery(consumer, workload[i]),
              TraceQuery(producer, workload[i]))
        << "divergence at query " << i;
  }
}

// Builds a valid snapshot of a lightly warmed engine for corruption tests.
std::string MakeValidSnapshot(const GraphDatabase& db) {
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  method->Build(db);
  IgqOptions options;
  options.cache_capacity = 8;
  options.window_size = 3;
  QueryEngine engine(db, method.get(), options);
  const std::vector<Graph> workload = MakeWorkload(db, 5, 12);
  for (const Graph& query : workload) engine.Process(query);
  std::stringstream buffer;
  std::string error;
  EXPECT_TRUE(engine.SaveSnapshot(buffer, &error)) << error;
  return buffer.str();
}

// A fresh engine whose LoadSnapshot failed must keep working (and stay
// empty) — rejection, never a crash or a half-loaded state.
void ExpectRejectedButUsable(const GraphDatabase& db, const std::string& bytes,
                             const char* label) {
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  method->Build(db);
  IgqOptions options;
  options.cache_capacity = 8;
  options.window_size = 3;
  QueryEngine engine(db, method.get(), options);
  std::stringstream stream(bytes);
  std::string error;
  EXPECT_FALSE(engine.LoadSnapshot(stream, &error)) << label;
  EXPECT_FALSE(error.empty()) << label;
  EXPECT_EQ(engine.cache().size(), 0u) << label;
  EXPECT_EQ(engine.cache().window_fill(), 0u) << label;
  Rng rng(3);
  const Graph probe = RandomSubgraphOf(rng, db.graphs[0], 5);
  EXPECT_EQ(engine.Process(probe), BruteForceSubgraphAnswer(db.graphs, probe))
      << label;
}

TEST(SnapshotRejectionTest, TruncatedSnapshotsRejectedAtEveryPrefix) {
  const GraphDatabase db = MakeDb(41, 12);
  const std::string bytes = MakeValidSnapshot(db);
  ASSERT_GT(bytes.size(), 16u);
  // One engine absorbs every failed load — sections are checksummed and
  // decoded before any state is touched, so no prefix may leak state in.
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  method->Build(db);
  IgqOptions options;
  options.cache_capacity = 8;
  options.window_size = 3;
  QueryEngine engine(db, method.get(), options);
  // Step a prime through the strict prefixes to keep runtime sane.
  for (size_t len = 0; len < bytes.size(); len += 13) {
    std::stringstream stream(bytes.substr(0, len));
    std::string error;
    ASSERT_FALSE(engine.LoadSnapshot(stream, &error)) << "prefix " << len;
    ASSERT_EQ(engine.cache().size(), 0u) << "prefix " << len;
  }
  Rng rng(3);
  const Graph probe = RandomSubgraphOf(rng, db.graphs[0], 5);
  EXPECT_EQ(engine.Process(probe), BruteForceSubgraphAnswer(db.graphs, probe));
}

TEST(SnapshotRejectionTest, CorruptedBytesRejected) {
  const GraphDatabase db = MakeDb(41, 12);
  const std::string bytes = MakeValidSnapshot(db);
  for (size_t pos : {size_t{9}, bytes.size() / 2, bytes.size() - 5}) {
    std::string corrupted = bytes;
    corrupted[pos] ^= 0x20;
    ExpectRejectedButUsable(db, corrupted, "bit flip");
  }
}

TEST(SnapshotRejectionTest, WrongMagicAndVersionRejected) {
  const GraphDatabase db = MakeDb(41, 12);
  const std::string bytes = MakeValidSnapshot(db);
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  ExpectRejectedButUsable(db, bad_magic, "bad magic");
  std::string bad_version = bytes;
  bad_version[4] = 99;  // version u32 (little-endian) follows the magic
  ExpectRejectedButUsable(db, bad_version, "bad version");
  ExpectRejectedButUsable(db, "", "empty file");
  ExpectRejectedButUsable(db, "not a snapshot at all", "garbage");
}

TEST(SnapshotRejectionTest, DifferentCacheGeometryRejected) {
  const GraphDatabase db = MakeDb(41, 12);
  const std::string bytes = MakeValidSnapshot(db);  // capacity 8, window 3
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  method->Build(db);
  IgqOptions options;
  options.cache_capacity = 16;  // flush cadence and evictions would differ
  options.window_size = 3;
  QueryEngine engine(db, method.get(), options);
  std::stringstream stream(bytes);
  std::string error;
  EXPECT_FALSE(engine.LoadSnapshot(stream, &error));
  EXPECT_EQ(engine.cache().size(), 0u);
}

TEST(SnapshotRejectionTest, DifferentDatasetRejected) {
  const GraphDatabase db = MakeDb(41, 12);
  const std::string bytes = MakeValidSnapshot(db);
  // Both a different-size dataset and a same-size, different-content one
  // must be rejected — answers are ids into the producer's dataset.
  for (const GraphDatabase& other_db : {MakeDb(42, 9), MakeDb(42, 12)}) {
    auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
    method->Build(other_db);
    IgqOptions options;
    options.cache_capacity = 8;
    options.window_size = 3;
    QueryEngine engine(other_db, method.get(), options);
    std::stringstream stream(bytes);
    std::string error;
    EXPECT_FALSE(engine.LoadSnapshot(stream, &error));
    EXPECT_EQ(engine.cache().size(), 0u);
  }
}

TEST(SnapshotRejectionTest, IncompatibleIndexLeavesCacheUntouched) {
  const GraphDatabase db = MakeDb(41, 12);
  // Producer and consumer agree on everything except the method's path
  // depth: the cache section is acceptable, the index payload is not. The
  // load must fail without committing the cache.
  GgsxMethod producer_method(/*max_path_edges=*/2);
  producer_method.Build(db);
  IgqOptions options;
  options.cache_capacity = 8;
  options.window_size = 3;
  QueryEngine producer(db, &producer_method, options);
  const std::vector<Graph> workload = MakeWorkload(db, 5, 12);
  for (const Graph& query : workload) producer.Process(query);
  std::stringstream buffer;
  std::string error;
  ASSERT_TRUE(producer.SaveSnapshot(buffer, &error)) << error;

  GgsxMethod consumer_method(/*max_path_edges=*/4);  // rejects the payload
  consumer_method.Build(db);
  QueryEngine consumer(db, &consumer_method, options);
  EXPECT_FALSE(consumer.LoadSnapshot(buffer, &error));
  EXPECT_EQ(consumer.cache().size(), 0u);
  EXPECT_EQ(consumer.cache().window_fill(), 0u);
  // Both engines remain fully usable after the failed load.
  Rng rng(3);
  const Graph probe = RandomSubgraphOf(rng, db.graphs[0], 5);
  EXPECT_EQ(consumer.Process(probe), BruteForceSubgraphAnswer(db.graphs, probe));
}

TEST(SnapshotRejectionTest, DifferentPathLengthOptionsRejected) {
  const GraphDatabase db = MakeDb(41, 12);
  const std::string bytes = MakeValidSnapshot(db);
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  method->Build(db);
  IgqOptions options;
  options.path_max_edges = 3;  // producer used 4
  QueryEngine engine(db, method.get(), options);
  std::stringstream stream(bytes);
  std::string error;
  EXPECT_FALSE(engine.LoadSnapshot(stream, &error));
}

TEST(SnapshotRejectionTest, MethodNameMismatchRejectedBeforeCacheCommit) {
  const GraphDatabase db = MakeDb(41, 12);
  const std::string bytes = MakeValidSnapshot(db);  // produced by ggsx
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "grapes");
  method->Build(db);
  IgqOptions options;
  options.cache_capacity = 8;  // match the producer so only the name differs
  options.window_size = 3;
  QueryEngine engine(db, method.get(), options);
  std::stringstream stream(bytes);
  std::string error;
  EXPECT_FALSE(engine.LoadSnapshot(stream, &error));
  EXPECT_NE(error.find("GGSX"), std::string::npos) << error;
  // The rejection must leave the engine fully untouched — cache included.
  EXPECT_EQ(engine.cache().size(), 0u);
  EXPECT_EQ(engine.cache().window_fill(), 0u);
}

TEST(SnapshotRejectionTest, SectionIdCorruptionRejected) {
  const GraphDatabase db = MakeDb(41, 12);
  const std::string bytes = MakeValidSnapshot(db);
  // The cache section's id is the u32 right after the 8-byte header. A
  // flip to an unknown id must fail the framing checksum; a flip to the
  // end-marker id (0) must be caught as trailing bytes. Either way: reject.
  std::string unknown_id = bytes;
  unknown_id[8] = 7;
  ExpectRejectedButUsable(db, unknown_id, "unknown section id");
  std::string premature_end = bytes;
  premature_end[8] = 0;
  ExpectRejectedButUsable(db, premature_end, "id flipped to end marker");
  // Garbage after a valid end marker is likewise corruption, not slack.
  ExpectRejectedButUsable(db, bytes + "tail", "trailing bytes");
}

// ---------------------------------------------------------------------------
// The mutation-state section (kSectionMutationState): codec round trip,
// rejection of malformed payloads (out-of-range / unsorted tombstone ids,
// truncation, unknown version), and the engine-level contract that a
// snapshot is only restored at the exact mutation state it was taken at.

/// Brute-force subgraph answer over the LIVE graphs only.
std::vector<GraphId> LiveSubgraphAnswer(const GraphDatabase& db,
                                        const Graph& query) {
  std::vector<GraphId> answer;
  for (GraphId id : BruteForceSubgraphAnswer(db.graphs, query)) {
    if (db.IsLive(id)) answer.push_back(id);
  }
  return answer;
}

TEST(MutationStateSectionTest, RoundTripValidates) {
  GraphDatabase db = MakeDb(51, 10);
  Rng rng(5);
  db.AddGraph(RandomConnectedGraph(rng, 8, 3, 3));
  ASSERT_TRUE(db.RemoveGraph(2));
  ASSERT_TRUE(db.RemoveGraph(7));

  std::stringstream buffer;
  snapshot::BinaryWriter writer(buffer);
  snapshot::WriteMutationState(writer, db);

  snapshot::BinaryReader reader(buffer);
  uint64_t epoch = 0;
  size_t count = 0;
  std::string error;
  EXPECT_TRUE(
      snapshot::ValidateMutationState(reader, db, &epoch, &count, &error))
      << error;
  EXPECT_EQ(epoch, db.mutation_epoch);
  EXPECT_EQ(count, 2u);
}

TEST(MutationStateSectionTest, DivergedDatabaseRejected) {
  GraphDatabase db = MakeDb(51, 10);
  ASSERT_TRUE(db.RemoveGraph(2));
  std::stringstream buffer;
  snapshot::BinaryWriter writer(buffer);
  snapshot::WriteMutationState(writer, db);

  ASSERT_TRUE(db.RemoveGraph(5));  // the database moves on past the payload
  snapshot::BinaryReader reader(buffer);
  std::string error;
  EXPECT_FALSE(
      snapshot::ValidateMutationState(reader, db, nullptr, nullptr, &error));
  EXPECT_NE(error.find("different mutation state"), std::string::npos)
      << error;
}

TEST(MutationStateSectionTest, MalformedPayloadsRejected) {
  GraphDatabase db = MakeDb(51, 10);
  ASSERT_TRUE(db.RemoveGraph(3));

  const auto expect_rejected = [&db](const std::string& bytes,
                                     const char* expect_substring) {
    std::stringstream stream(bytes);
    snapshot::BinaryReader reader(stream);
    std::string error;
    EXPECT_FALSE(snapshot::ValidateMutationState(reader, db, nullptr, nullptr,
                                                 &error))
        << expect_substring;
    EXPECT_NE(error.find(expect_substring), std::string::npos)
        << "got: " << error;
  };
  const auto craft = [](uint32_t version, uint64_t epoch,
                        uint64_t count, const std::vector<uint32_t>& ids) {
    std::stringstream buffer;
    snapshot::BinaryWriter writer(buffer);
    writer.WriteU32(version);
    writer.WriteU64(epoch);
    writer.WriteU64(count);
    for (uint32_t id : ids) writer.WriteU32(id);
    return buffer.str();
  };

  expect_rejected(craft(99, 1, 1, {3}), "unknown payload version");
  expect_rejected(craft(1, 1, 1, {999}), "out of range");
  expect_rejected(craft(1, 2, 2, {3, 3}), "not strictly ascending");
  expect_rejected(craft(1, 2, 2, {3}), "truncated");  // count says two ids
  expect_rejected(craft(1, 1, 11, {}), "more tombstones than graphs");
  expect_rejected(craft(1, 1, 1, {4}), "tombstones differ");
  expect_rejected(craft(1, 7, 1, {3}), "epoch or tombstone count differs");
}

TEST(EngineSnapshotTest, MutatedEngineRoundTripsAndReplaysIdentically) {
  // The database must outlive both engines at a stable address.
  auto db = std::make_unique<GraphDatabase>(MakeDb(61, 14));
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "grapes");
  method->Build(*db);
  IgqOptions options;
  options.cache_capacity = 8;
  options.window_size = 3;
  QueryEngine producer(*db, method.get(), options);

  const std::vector<Graph> workload = MakeWorkload(*db, 55, 40);
  for (size_t i = 0; i < 12; ++i) producer.Process(workload[i]);

  // Interleave mutations with the stream, then snapshot mid-window.
  Rng rng(61);
  ASSERT_TRUE(
      producer.ApplyMutation(*db, GraphMutation::Remove(4)).applied);
  ASSERT_TRUE(producer
                  .ApplyMutation(*db, GraphMutation::Add(RandomConnectedGraph(
                                          rng, 12, 5, 3)))
                  .applied);
  for (size_t i = 12; i < 20; ++i) producer.Process(workload[i]);
  ASSERT_TRUE(
      producer.ApplyMutation(*db, GraphMutation::Remove(9)).applied);

  std::stringstream buffer;
  std::string error;
  ASSERT_TRUE(producer.SaveSnapshot(buffer, &error)) << error;

  auto consumer_method =
      MethodRegistry::Create(QueryDirection::kSubgraph, "grapes");
  QueryEngine consumer(*db, consumer_method.get(), options);
  SnapshotLoadInfo info;
  ASSERT_TRUE(consumer.LoadSnapshot(buffer, &error, &info)) << error;
  EXPECT_TRUE(info.method_index_restored);
  EXPECT_EQ(info.mutation_epoch, db->mutation_epoch);
  EXPECT_EQ(info.tombstones, db->tombstones.size());

  for (size_t i = 20; i < workload.size(); ++i) {
    const QueryTrace expected = TraceQuery(producer, workload[i]);
    const QueryTrace actual = TraceQuery(consumer, workload[i]);
    EXPECT_EQ(actual, expected) << "divergence at query " << i;
    EXPECT_EQ(expected.answer, LiveSubgraphAnswer(*db, workload[i]))
        << "query " << i;
  }
}

TEST(SnapshotRejectionTest, PreMutationSnapshotRejectedByMutatedDatabase) {
  auto db = std::make_unique<GraphDatabase>(MakeDb(63, 12));
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "grapes");
  method->Build(*db);
  IgqOptions options;
  options.cache_capacity = 8;
  options.window_size = 3;
  QueryEngine producer(*db, method.get(), options);
  const std::vector<Graph> workload = MakeWorkload(*db, 5, 10);
  for (const Graph& query : workload) producer.Process(query);

  std::stringstream buffer;
  std::string error;
  ASSERT_TRUE(producer.SaveSnapshot(buffer, &error)) << error;  // epoch 0

  // The dataset mutates after the save: the snapshot (which carries no
  // mutation section) no longer describes this database.
  ASSERT_TRUE(
      producer.ApplyMutation(*db, GraphMutation::Remove(1)).applied);

  auto consumer_method =
      MethodRegistry::Create(QueryDirection::kSubgraph, "grapes");
  consumer_method->Build(*db);
  QueryEngine consumer(*db, consumer_method.get(), options);
  EXPECT_FALSE(consumer.LoadSnapshot(buffer, &error));
  EXPECT_NE(error.find("no mutation state"), std::string::npos) << error;
  EXPECT_EQ(consumer.cache().size(), 0u);
}

TEST(SnapshotRejectionTest, StaleMutationStateRejected) {
  auto db = std::make_unique<GraphDatabase>(MakeDb(65, 12));
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "grapes");
  method->Build(*db);
  IgqOptions options;
  options.cache_capacity = 8;
  options.window_size = 3;
  QueryEngine producer(*db, method.get(), options);
  for (const Graph& query : MakeWorkload(*db, 5, 8)) producer.Process(query);
  ASSERT_TRUE(
      producer.ApplyMutation(*db, GraphMutation::Remove(2)).applied);

  std::stringstream buffer;
  std::string error;
  ASSERT_TRUE(producer.SaveSnapshot(buffer, &error)) << error;

  // One more mutation after the save: the stamped epoch/tombstones are
  // stale and the load must refuse.
  ASSERT_TRUE(
      producer.ApplyMutation(*db, GraphMutation::Remove(6)).applied);

  auto consumer_method =
      MethodRegistry::Create(QueryDirection::kSubgraph, "grapes");
  consumer_method->Build(*db);
  QueryEngine consumer(*db, consumer_method.get(), options);
  EXPECT_FALSE(consumer.LoadSnapshot(buffer, &error));
  EXPECT_NE(error.find("different mutation state"), std::string::npos)
      << error;
  EXPECT_EQ(consumer.cache().size(), 0u);
}

TEST(SnapshotRejectionTest, MutationSectionCorruptionSwept) {
  // The byte-flip / truncation sweep over a snapshot that CARRIES a
  // mutation-state section: every corruption is rejected and the engine
  // stays empty and usable, exactly as for the pre-mutation sections.
  auto db = std::make_unique<GraphDatabase>(MakeDb(67, 12));
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "grapes");
  method->Build(*db);
  IgqOptions options;
  options.cache_capacity = 8;
  options.window_size = 3;
  QueryEngine producer(*db, method.get(), options);
  for (const Graph& query : MakeWorkload(*db, 5, 10)) producer.Process(query);
  ASSERT_TRUE(
      producer.ApplyMutation(*db, GraphMutation::Remove(3)).applied);
  std::stringstream buffer;
  std::string error;
  ASSERT_TRUE(producer.SaveSnapshot(buffer, &error)) << error;
  const std::string bytes = buffer.str();

  auto consumer_method =
      MethodRegistry::Create(QueryDirection::kSubgraph, "grapes");
  consumer_method->Build(*db);
  QueryEngine consumer(*db, consumer_method.get(), options);
  // Truncation sweep (prime stride), then byte flips across the tail of
  // the file, where the mutation section lives (it is written last).
  for (size_t len = 0; len < bytes.size(); len += 37) {
    std::stringstream stream(bytes.substr(0, len));
    ASSERT_FALSE(consumer.LoadSnapshot(stream, &error)) << "prefix " << len;
    ASSERT_EQ(consumer.cache().size(), 0u) << "prefix " << len;
  }
  const size_t tail = bytes.size() > 120 ? bytes.size() - 120 : 0;
  for (size_t pos = tail; pos < bytes.size(); pos += 7) {
    std::string corrupted = bytes;
    corrupted[pos] ^= 0x40;
    std::stringstream stream(corrupted);
    ASSERT_FALSE(consumer.LoadSnapshot(stream, &error)) << "flip " << pos;
    ASSERT_EQ(consumer.cache().size(), 0u) << "flip " << pos;
  }
  // Still usable, and the intact snapshot still loads.
  Rng rng(3);
  const Graph probe = RandomSubgraphOf(rng, db->graphs[0], 5);
  EXPECT_EQ(consumer.Process(probe), LiveSubgraphAnswer(*db, probe));
  // A processed query leaves cache state behind; a fresh consumer proves
  // the intact bytes round-trip.
  auto clean_method =
      MethodRegistry::Create(QueryDirection::kSubgraph, "grapes");
  QueryEngine clean(*db, clean_method.get(), options);
  std::stringstream stream(bytes);
  EXPECT_TRUE(clean.LoadSnapshot(stream, &error)) << error;
}

// ---- Canonical-key persistence (record version 2 + v1 fallback). ----

IgqOptions OneShardOptions(size_t capacity, size_t window) {
  IgqOptions options;
  options.cache_capacity = capacity;
  options.window_size = window;
  options.cache_shards = 1;
  return ValidatedIgqOptions(options);
}

// An exact-hit lookup that credits nothing.
bool ExactHit(ShardedQueryCache& cache, const std::string& key,
              std::vector<GraphId>* answer) {
  return cache.TryExactHit(
      key, [](std::span<const GraphId>) { return ShardedQueryCache::Credit{}; },
      answer);
}

TEST(CacheStateTest, RoundTripPreservesCanonicalKeys) {
  const IgqOptions validated = OneShardOptions(32, 4);
  ShardedQueryCache cache(validated, /*universe=*/20);

  Rng rng(71);
  for (int i = 0; i < 12; ++i) {
    cache.Insert(RandomConnectedGraph(rng, 6 + rng.Below(5), 4, 3),
                 {static_cast<GraphId>(i)});
  }
  cache.FlushAll();
  ASSERT_GT(cache.size(), 0u);

  std::ostringstream payload;
  {
    snapshot::BinaryWriter writer(payload);
    cache.Save(writer, /*num_graphs=*/20, /*dataset_crc=*/0xABCD);
    ASSERT_TRUE(writer.ok());
  }
  ShardedQueryCache restored(validated, /*universe=*/20);
  std::istringstream in(payload.str());
  snapshot::BinaryReader reader(in);
  ASSERT_TRUE(restored.Load(reader, 20, 0xABCD));

  // The stored keys survive byte-identically, and the rebuilt map resolves
  // each of them to its entry's answer.
  const std::vector<CachedQuery> entries = cache.Entries();
  const std::vector<CachedQuery> restored_entries = restored.Entries();
  ASSERT_EQ(restored_entries.size(), entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    const std::string& key = entries[i].canonical;
    EXPECT_FALSE(key.empty());
    EXPECT_EQ(restored_entries[i].canonical, key) << "entry " << i;
    std::vector<GraphId> answer;
    EXPECT_TRUE(ExactHit(restored, key, &answer)) << "entry " << i;
    EXPECT_EQ(answer, entries[i].answer.ToVector()) << "entry " << i;
  }
}

TEST(CacheStateTest, Version1PayloadLoadsByRecomputingCanonicalKeys) {
  // A hand-built version-1 section-1 payload — the exact pre-key layout, no
  // canonical string in the records — must still load, with the keys
  // recomputed from the graphs so the fast path works on old snapshots.
  const IgqOptions validated = OneShardOptions(8, 2);

  std::ostringstream payload;
  snapshot::BinaryWriter writer(payload);
  testing::WriteCacheHeader(writer, /*version=*/1, validated,
                            /*num_graphs=*/10, /*dataset_crc=*/0x1234,
                            /*queries_processed=*/5, /*next_id=*/2);
  const Graph a = testing::PathGraph({1, 2, 3});
  const Graph b = testing::Triangle(4, 4, 4);
  writer.WriteU64(2);  // flushed entries
  const std::vector<GraphId> answer_a{1, 4};
  const std::vector<GraphId> answer_b{2};
  testing::WriteRecord(writer, 1, 0, a, answer_a, {});
  testing::WriteRecord(writer, 1, 1, b, answer_b, {});
  writer.WriteU64(0);  // empty window
  ASSERT_TRUE(writer.ok());

  ShardedQueryCache cache(validated, /*universe=*/10);
  std::istringstream in(payload.str());
  snapshot::BinaryReader reader(in);
  ASSERT_TRUE(cache.Load(reader, 10, 0x1234, /*with_shard_count=*/false));
  ASSERT_EQ(cache.size(), 2u);
  const std::vector<CachedQuery> entries = cache.Entries();
  EXPECT_EQ(entries[0].canonical, GraphCanonicalCode(a));
  EXPECT_EQ(entries[1].canonical, GraphCanonicalCode(b));

  // The recomputed keys are live in the map: an isomorphic copy (the same
  // path written from the other end) resolves to the restored entry.
  const Graph reversed = testing::PathGraph({3, 2, 1});
  std::vector<GraphId> answer;
  EXPECT_TRUE(ExactHit(cache, GraphCanonicalCode(reversed), &answer));
  EXPECT_EQ(answer, answer_a);
}

TEST(CacheStateTest, OneShardSectionSnapshotLoadsIntoQueryEngine) {
  // A snapshot as older builds' sequential engine wrote it: the cache state
  // in section 1, payload version 2, no shard count. It must restore into
  // QueryEngine with its entries, answers, window, and §5.1 metadata.
  const GraphDatabase db = MakeDb(83, 16);
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  method->Build(db);
  const IgqOptions options = OneShardOptions(8, 3);

  Rng rng(84);
  std::vector<Graph> graphs;
  std::vector<std::vector<GraphId>> answers;
  std::vector<QueryGraphMetadata> metas;
  for (uint64_t i = 0; i < 3; ++i) {
    graphs.push_back(RandomSubgraphOf(rng, db.graphs[i], 4 + i));
    answers.push_back(BruteForceSubgraphAnswer(db.graphs, graphs.back()));
    QueryGraphMetadata meta;
    meta.hits = i + 1;
    meta.inserted_at = i;
    meta.removed_candidates = 10 * (i + 1);
    meta.cost_saved = LogValue::FromLinear(1000.0 * static_cast<double>(i + 1));
    meta.last_hit_at = 4 + i;
    metas.push_back(meta);
  }
  std::ostringstream payload;
  {
    snapshot::BinaryWriter writer(payload);
    testing::WriteCacheHeader(writer, /*version=*/2, options,
                              db.graphs.size(),
                              snapshot::DatasetFingerprint(db.graphs),
                              /*queries_processed=*/9, /*next_id=*/3);
    writer.WriteU64(2);  // flushed entries
    testing::WriteRecord(writer, 2, 0, graphs[0], answers[0], metas[0]);
    testing::WriteRecord(writer, 2, 1, graphs[1], answers[1], metas[1]);
    writer.WriteU64(1);  // one window (Itemp) entry
    testing::WriteRecord(writer, 2, 2, graphs[2], answers[2], metas[2]);
    ASSERT_TRUE(writer.ok());
  }
  std::stringstream file;
  snapshot::WriteSnapshotHeader(file);
  snapshot::WriteSection(file, snapshot::kSectionOneShardCache, payload.str());
  snapshot::WriteSnapshotEnd(file);

  QueryEngine engine(db, method.get(), options);
  std::string error;
  SnapshotLoadInfo info;
  ASSERT_TRUE(engine.LoadSnapshot(file, &error, &info)) << error;
  EXPECT_FALSE(info.method_index_restored);
  EXPECT_EQ(info.cached_queries, 2u);
  EXPECT_EQ(engine.cache().size(), 2u);
  EXPECT_EQ(engine.cache().window_fill(), 1u);
  EXPECT_EQ(engine.cache().queries_processed(), 9u);
  const std::vector<CachedQuery> entries = engine.cache().Entries();
  ASSERT_EQ(entries.size(), 3u);
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].id, i);
    EXPECT_EQ(entries[i].graph, graphs[i]) << "entry " << i;
    EXPECT_EQ(entries[i].canonical, GraphCanonicalCode(graphs[i]));
    EXPECT_EQ(entries[i].answer.ToVector(), answers[i]) << "entry " << i;
    EXPECT_EQ(entries[i].meta.hits, metas[i].hits);
    EXPECT_EQ(entries[i].meta.inserted_at, metas[i].inserted_at);
    EXPECT_EQ(entries[i].meta.removed_candidates,
              metas[i].removed_candidates);
    EXPECT_EQ(entries[i].meta.cost_saved.log(), metas[i].cost_saved.log());
    EXPECT_EQ(entries[i].meta.last_hit_at, metas[i].last_hit_at);
  }

  // The restored window entry answers its repeat as an exact hit.
  QueryStats stats;
  EXPECT_EQ(engine.Process(graphs[2], &stats), answers[2]);
  EXPECT_EQ(stats.shortcut, ShortcutKind::kExactHit);

  // A cache of more than one shard cannot take the one-shard layout.
  IgqOptions sharded = options;
  sharded.cache_shards = 2;
  ShardedQueryCache two_shards(ValidatedIgqOptions(sharded), db.graphs.size());
  std::istringstream in(payload.str());
  snapshot::BinaryReader reader(in);
  EXPECT_FALSE(two_shards.Load(reader, db.graphs.size(),
                               snapshot::DatasetFingerprint(db.graphs),
                               /*with_shard_count=*/false));
}

TEST(CacheStateTest, ForgedCanonicalKeyRejected) {
  // A checksum-valid cache section whose one record holds the path 1-2 and
  // its answer {0}. Stored with its own key it loads; stored with the key
  // of the path 7-8 it must be rejected — trusting that key would answer
  // 7-8 with {0} although only graph 1 contains it — and the engine's
  // cache must stay untouched.
  GraphDatabase db;
  db.graphs.push_back(testing::PathGraph({1, 2}));
  db.graphs.push_back(testing::PathGraph({7, 8}));
  db.RefreshLabelCount();
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  method->Build(db);
  const IgqOptions options = OneShardOptions(8, 2);
  const Graph cached = testing::PathGraph({1, 2});
  const Graph forged = testing::PathGraph({7, 8});

  auto snapshot_with_key = [&](const std::string& key) {
    std::ostringstream payload;
    snapshot::BinaryWriter writer(payload);
    testing::WriteCacheHeader(writer, /*version=*/2, options, db.graphs.size(),
                              snapshot::DatasetFingerprint(db.graphs),
                              /*queries_processed=*/1, /*next_id=*/1,
                              /*shard_count=*/1);
    writer.WriteU64(1);  // flushed entries
    const std::vector<GraphId> answer{0};
    testing::WriteRecord(writer, 2, 0, cached, answer, {}, key);
    writer.WriteU64(0);  // empty window
    EXPECT_TRUE(writer.ok());
    std::stringstream file;
    snapshot::WriteSnapshotHeader(file);
    snapshot::WriteSection(file, snapshot::kSectionCache, payload.str());
    snapshot::WriteSnapshotEnd(file);
    return file.str();
  };

  {
    QueryEngine engine(db, method.get(), options);
    std::istringstream in(snapshot_with_key(GraphCanonicalCode(cached)));
    std::string error;
    ASSERT_TRUE(engine.LoadSnapshot(in, &error)) << error;
    EXPECT_EQ(engine.cache().size(), 1u);
  }
  QueryEngine engine(db, method.get(), options);
  std::istringstream in(snapshot_with_key(GraphCanonicalCode(forged)));
  EXPECT_FALSE(engine.LoadSnapshot(in));
  EXPECT_EQ(engine.cache().size(), 0u);
  const std::vector<GraphId> expected =
      BruteForceSubgraphAnswer(db.graphs, forged);
  ASSERT_EQ(expected, std::vector<GraphId>{1});
  EXPECT_EQ(engine.Process(forged), expected);
}

}  // namespace
}  // namespace igq
