// Hand-built cache-state payloads in the layouts docs/FORMATS.md describes,
// for tests that load what older builds wrote — record version 1 (no
// canonical key) and version 2 (with it), in the one-shard section layout —
// or bytes no build writes, such as a record whose stored key is wrong.
#ifndef IGQ_TESTS_CACHE_PAYLOAD_H_
#define IGQ_TESTS_CACHE_PAYLOAD_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "features/canonical.h"
#include "graph/graph.h"
#include "igq/options.h"
#include "igq/query_record.h"
#include "snapshot/serializer.h"

namespace igq {
namespace testing {

/// Writes one cached-query record in the given record version (1: no
/// canonical key; 2: with it). Version 2 stores `key` when given, else the
/// graph's own canonical code.
inline void WriteRecord(snapshot::BinaryWriter& writer, uint32_t version,
                        uint64_t id, const Graph& graph,
                        std::span<const GraphId> answer,
                        const QueryGraphMetadata& meta,
                        const std::optional<std::string>& key = std::nullopt) {
  writer.WriteU64(id);
  snapshot::WriteGraph(writer, graph);
  if (version >= 2) {
    writer.WriteString(key.has_value() ? *key : GraphCanonicalCode(graph));
  }
  writer.WriteU64(answer.size());
  for (GraphId member : answer) writer.WriteU32(member);
  writer.WriteU64(meta.hits);
  writer.WriteU64(meta.inserted_at);
  writer.WriteU64(meta.removed_candidates);
  writer.WriteDouble(meta.cost_saved.log());
  writer.WriteU64(meta.last_hit_at);
}

/// Writes the header of a cache-state payload: section 3's layout when
/// `shard_count` is given, else section 1's (one shard, no shard count).
inline void WriteCacheHeader(
    snapshot::BinaryWriter& writer, uint32_t version,
    const IgqOptions& options, uint64_t num_graphs, uint32_t dataset_crc,
    uint64_t queries_processed, uint64_t next_id,
    std::optional<uint32_t> shard_count = std::nullopt) {
  writer.WriteU32(version);
  writer.WriteU32(static_cast<uint32_t>(options.path_max_edges));
  writer.WriteU64(options.cache_capacity);
  writer.WriteU64(options.window_size);
  writer.WriteU8(static_cast<uint8_t>(options.replacement_policy));
  if (shard_count.has_value()) writer.WriteU32(*shard_count);
  writer.WriteU64(num_graphs);
  writer.WriteU32(dataset_crc);
  writer.WriteU64(queries_processed);
  writer.WriteU64(next_id);
}

}  // namespace testing
}  // namespace igq

#endif  // IGQ_TESTS_CACHE_PAYLOAD_H_
