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

// ---- Cache state: derived keys, one key per entry, one format. ----

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

  // Load derives every key again, byte-identical to the saved cache's, and
  // the rebuilt map resolves each of them to its entry's answer.
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

TEST(CacheStateTest, DuplicateKeysAndOlderFormatsRejected) {
  // Load derives every record's key, and one key names one entry. A
  // checksum-valid snapshot whose one record is the path 1-2 with its
  // answer {0} loads. The same path written from both ends — two records,
  // one key, which Save never writes because Insert keeps one copy of each
  // key — is rejected, as are files of any other container or cache-state
  // version; each rejection leaves the engine's cache untouched.
  GraphDatabase db;
  db.graphs.push_back(testing::PathGraph({1, 2}));
  db.graphs.push_back(testing::PathGraph({7, 8}));
  db.RefreshLabelCount();
  auto method = MethodRegistry::Create(QueryDirection::kSubgraph, "ggsx");
  method->Build(db);
  const IgqOptions options = OneShardOptions(8, 2);
  const Graph path = testing::PathGraph({1, 2});
  const Graph reversed = testing::PathGraph({2, 1});
  const std::vector<GraphId> expected =
      BruteForceSubgraphAnswer(db.graphs, reversed);
  ASSERT_EQ(expected, std::vector<GraphId>{0});

  // A snapshot whose cache section holds `records` (flushed, each answered
  // by `expected`) under cache-state version `version`.
  auto snapshot_of = [&](const std::vector<Graph>& records,
                         uint8_t version) {
    std::ostringstream payload;
    snapshot::BinaryWriter writer(payload);
    testing::WriteCacheHeader(writer, options, db.graphs.size(),
                              snapshot::DatasetFingerprint(db.graphs),
                              /*queries_processed=*/1,
                              /*next_id=*/records.size());
    writer.WriteU64(records.size());  // flushed entries
    for (size_t i = 0; i < records.size(); ++i) {
      testing::WriteRecord(writer, i, records[i], expected, {});
    }
    writer.WriteU64(0);  // empty window
    EXPECT_TRUE(writer.ok());
    std::string bytes = std::move(payload).str();
    bytes[0] = static_cast<char>(version);  // u32 version, little-endian
    std::stringstream file;
    snapshot::WriteSnapshotHeader(file);
    snapshot::WriteSection(file, snapshot::kSectionCache, bytes);
    snapshot::WriteSnapshotEnd(file);
    return file.str();
  };
  auto expect_rejected = [&](const std::string& bytes, const char* label) {
    QueryEngine engine(db, method.get(), options);
    std::istringstream in(bytes);
    std::string error;
    SnapshotLoadInfo info;
    EXPECT_FALSE(engine.LoadSnapshot(in, &error, &info)) << label;
    EXPECT_FALSE(error.empty()) << label;
    EXPECT_EQ(engine.cache().size(), 0u) << label;
    EXPECT_EQ(engine.cache().window_fill(), 0u) << label;
    EXPECT_EQ(engine.Process(reversed), expected) << label;
    return info.error_kind;
  };

  const std::string valid = snapshot_of({path}, 3);
  {
    QueryEngine engine(db, method.get(), options);
    std::istringstream in(valid);
    std::string error;
    ASSERT_TRUE(engine.LoadSnapshot(in, &error)) << error;
    EXPECT_EQ(engine.cache().size(), 1u);
    // The derived key is live: the isomorph is an exact hit.
    QueryStats stats;
    EXPECT_EQ(engine.Process(reversed, &stats), expected);
    EXPECT_EQ(stats.shortcut, ShortcutKind::kExactHit);
  }

  expect_rejected(snapshot_of({path, reversed}, 3), "two records, one key");

  std::string old_container = valid;
  old_container[4] = 1;  // container version u32 follows the magic
  EXPECT_EQ(expect_rejected(old_container, "container version 1"),
            snapshot::SnapshotErrorKind::kVersionSkew);

  expect_rejected(snapshot_of({path}, 2), "cache-state version 2");
  expect_rejected(snapshot_of({path}, 4), "cache-state version 4");
}

}  // namespace
}  // namespace igq
