#include "snapshot/snapshot.h"

#include <algorithm>
#include <istream>
#include <ostream>

#include "snapshot/serializer.h"

namespace igq {
namespace snapshot {
namespace {

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

void SetKind(SnapshotErrorKind* kind, SnapshotErrorKind value) {
  if (kind != nullptr) *kind = value;
}

}  // namespace

const char* SnapshotErrorKindName(SnapshotErrorKind kind) {
  switch (kind) {
    case SnapshotErrorKind::kNone: return "none";
    case SnapshotErrorKind::kIo: return "io";
    case SnapshotErrorKind::kCorrupt: return "corrupt";
    case SnapshotErrorKind::kVersionSkew: return "version-skew";
    case SnapshotErrorKind::kDatasetDivergence: return "dataset-divergence";
  }
  return "?";
}

void WriteSnapshotHeader(std::ostream& out) {
  BinaryWriter writer(out);
  writer.WriteBytes(kSnapshotMagic, sizeof(kSnapshotMagic));
  writer.WriteU32(kSnapshotVersion);
}

void WriteSection(std::ostream& out, uint32_t id, const std::string& payload) {
  BinaryWriter writer(out);
  writer.WriteU32(id);
  writer.WriteU64(payload.size());
  if (!payload.empty()) writer.WriteBytes(payload.data(), payload.size());
  // The checksum covers the id and size fields too, so a bit flip in the
  // framing (not just the payload) is caught.
  writer.WriteU32(writer.crc());
}

void WriteSnapshotEnd(std::ostream& out) {
  BinaryWriter writer(out);
  writer.WriteU32(kSectionEnd);
}

bool ReadSnapshotHeader(std::istream& in, std::string* error,
                        SnapshotErrorKind* kind) {
  BinaryReader reader(in);
  uint8_t magic[4] = {0, 0, 0, 0};
  if (!reader.ReadBytes(magic, sizeof(magic))) {
    SetError(error, "truncated snapshot: missing magic");
    SetKind(kind, SnapshotErrorKind::kCorrupt);
    return false;
  }
  for (size_t i = 0; i < sizeof(magic); ++i) {
    if (magic[i] != kSnapshotMagic[i]) {
      SetError(error, "not an iGQ snapshot (bad magic)");
      SetKind(kind, SnapshotErrorKind::kCorrupt);
      return false;
    }
  }
  uint32_t version = 0;
  if (!reader.ReadU32(&version)) {
    SetError(error, "truncated snapshot: missing version");
    SetKind(kind, SnapshotErrorKind::kCorrupt);
    return false;
  }
  if (version != kSnapshotVersion) {
    SetError(error, "unsupported snapshot version " + std::to_string(version) +
                        " (expected " + std::to_string(kSnapshotVersion) + ")");
    SetKind(kind, SnapshotErrorKind::kVersionSkew);
    return false;
  }
  return true;
}

bool ReadSection(std::istream& in, Section* section, std::string* error,
                 SnapshotErrorKind* kind) {
  // Every failure mode below is damaged bytes.
  SetKind(kind, SnapshotErrorKind::kCorrupt);
  BinaryReader reader(in);
  uint32_t id = 0;
  if (!reader.ReadU32(&id)) {
    SetError(error, "truncated snapshot: missing section id or end marker");
    return false;
  }
  if (id == kSectionEnd) {
    section->id = kSectionEnd;
    section->payload.clear();
    SetKind(kind, SnapshotErrorKind::kNone);
    return true;
  }
  uint64_t size = 0;
  if (!reader.ReadU64(&size)) {
    SetError(error, "truncated snapshot: missing section size");
    return false;
  }
  if (size > kMaxSectionBytes) {
    SetError(error, "corrupt snapshot: section size " + std::to_string(size) +
                        " exceeds the " + std::to_string(kMaxSectionBytes) +
                        "-byte limit");
    return false;
  }
  // Forged-length guard: on a seekable stream, a declared size larger than
  // the bytes actually remaining (payload + 4-byte checksum) is rejected
  // BEFORE any buffer growth — no allocation ever happens for a length the
  // file cannot back.
  const std::istream::pos_type here = in.tellg();
  if (here != std::istream::pos_type(-1)) {
    in.seekg(0, std::ios::end);
    const std::istream::pos_type end = in.tellg();
    in.seekg(here);
    if (end != std::istream::pos_type(-1) && end >= here &&
        size + 4 > static_cast<uint64_t>(end - here)) {
      SetError(error, "corrupt snapshot: section " + std::to_string(id) +
                          " declares " + std::to_string(size) +
                          " bytes but only " +
                          std::to_string(static_cast<uint64_t>(end - here)) +
                          " remain");
      return false;
    }
  }
  // Chunked read: grow the buffer as bytes actually arrive, so a corrupted
  // size field hits EOF instead of a multi-gigabyte allocation.
  constexpr size_t kChunk = size_t{1} << 20;
  std::string payload;
  while (payload.size() < size) {
    const size_t want =
        static_cast<size_t>(std::min<uint64_t>(kChunk, size - payload.size()));
    const size_t offset = payload.size();
    payload.resize(offset + want);
    if (!reader.ReadBytes(payload.data() + offset, want)) {
      SetError(error, "truncated snapshot: section " + std::to_string(id) +
                          " payload cut short");
      return false;
    }
  }
  const uint32_t actual_crc = reader.crc();  // id + size + payload bytes
  uint32_t stored_crc = 0;
  if (!reader.ReadU32(&stored_crc)) {
    SetError(error, "truncated snapshot: section " + std::to_string(id) +
                        " missing checksum");
    return false;
  }
  if (stored_crc != actual_crc) {
    SetError(error, "corrupt snapshot: checksum mismatch in section " +
                        std::to_string(id));
    return false;
  }
  section->id = id;
  section->payload = std::move(payload);
  SetKind(kind, SnapshotErrorKind::kNone);
  return true;
}

bool ReadSnapshot(std::istream& in, SnapshotSections* sections,
                  std::string* error, SnapshotErrorKind* kind) {
  *sections = SnapshotSections{};
  if (!ReadSnapshotHeader(in, error, kind)) return false;
  for (;;) {
    Section section;
    if (!ReadSection(in, &section, error, kind)) return false;
    if (section.id == kSectionEnd) break;
    if (section.id == kSectionCache) {
      sections->cache = std::move(section.payload);
    } else if (section.id == kSectionMethodIndex) {
      sections->method_index = std::move(section.payload);
    } else if (section.id == kSectionMutationState) {
      sections->mutation_state = std::move(section.payload);
    }
  }
  // The end marker itself carries no checksum, so a section id corrupted
  // into 0 would silently drop the file's tail — require EOF behind it.
  if (in.peek() != std::char_traits<char>::eof()) {
    SetError(error, "corrupt snapshot: trailing bytes after the end marker");
    SetKind(kind, SnapshotErrorKind::kCorrupt);
    return false;
  }
  SetKind(kind, SnapshotErrorKind::kNone);
  return true;
}

}  // namespace snapshot
}  // namespace igq
