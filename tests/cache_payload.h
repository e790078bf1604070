// Hand-built cache-state payloads in the layout docs/FORMATS.md describes
// (cache-state version 3), for tests that need bytes no build writes, such
// as two records sharing one canonical key.
#ifndef IGQ_TESTS_CACHE_PAYLOAD_H_
#define IGQ_TESTS_CACHE_PAYLOAD_H_

#include <cstdint>
#include <span>

#include "graph/graph.h"
#include "igq/options.h"
#include "igq/query_record.h"
#include "snapshot/serializer.h"

namespace igq {
namespace testing {

/// Writes one cached-query record: id, graph, sorted answer, metadata.
inline void WriteRecord(snapshot::BinaryWriter& writer, uint64_t id,
                        const Graph& graph, std::span<const GraphId> answer,
                        const QueryGraphMetadata& meta) {
  writer.WriteU64(id);
  snapshot::WriteGraph(writer, graph);
  writer.WriteU64(answer.size());
  for (GraphId member : answer) writer.WriteU32(member);
  writer.WriteU64(meta.hits);
  writer.WriteU64(meta.inserted_at);
  writer.WriteU64(meta.removed_candidates);
  writer.WriteDouble(meta.cost_saved.log());
  writer.WriteU64(meta.last_hit_at);
}

/// Writes the header of a cache-state payload for a cache built with
/// `options` (its shard count is options.cache_shards). The payload version
/// is the u32 at offset 0.
inline void WriteCacheHeader(snapshot::BinaryWriter& writer,
                             const IgqOptions& options, uint64_t num_graphs,
                             uint32_t dataset_crc, uint64_t queries_processed,
                             uint64_t next_id) {
  writer.WriteU32(3);  // cache-state version
  writer.WriteU32(static_cast<uint32_t>(options.path_max_edges));
  writer.WriteU64(options.cache_capacity);
  writer.WriteU64(options.window_size);
  writer.WriteU8(static_cast<uint8_t>(options.replacement_policy));
  writer.WriteU32(static_cast<uint32_t>(options.cache_shards));
  writer.WriteU64(num_graphs);
  writer.WriteU32(dataset_crc);
  writer.WriteU64(queries_processed);
  writer.WriteU64(next_id);
}

}  // namespace testing
}  // namespace igq

#endif  // IGQ_TESTS_CACHE_PAYLOAD_H_
