// The iGQ snapshot container format (docs/FORMATS.md): a fixed header
// (magic + format version) followed by a sequence of checksummed sections
// and a terminating end marker. Sections carry opaque payloads — the cache
// state produced by ShardedQueryCache::Save(), the method index produced
// by Method::SaveIndex() and the mutation state — so the container can
// evolve (new section ids) without breaking old readers, and a reader can
// skip sections it does not understand. ReadSnapshot is the one reader.
//
// Every section's payload is read fully into memory and its CRC-32
// verified *before* any payload parsing happens; corrupted or truncated
// files are therefore rejected with an error message, never parsed.
#ifndef IGQ_SNAPSHOT_SNAPSHOT_H_
#define IGQ_SNAPSHOT_SNAPSHOT_H_

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

namespace igq {
namespace snapshot {

/// First bytes of every snapshot file: 'I' 'G' 'Q' 'S'.
inline constexpr uint8_t kSnapshotMagic[4] = {'I', 'G', 'Q', 'S'};
/// Container format version; bumped on any incompatible layout change.
inline constexpr uint32_t kSnapshotVersion = 2;

/// Known section ids. kSectionEnd terminates the file and has no payload.
enum SectionId : uint32_t {
  kSectionEnd = 0,
  kSectionMethodIndex = 2,    // method name + Method::SaveIndex() payload
  kSectionCache = 3,          // ShardedQueryCache::Save() payload
  kSectionMutationState = 4,  // mutation epoch + dataset tombstones
};

/// Hard ceiling on a single section payload (guards against allocating
/// from a corrupted length field before the checksum can catch it).
inline constexpr uint64_t kMaxSectionBytes = uint64_t{1} << 31;

/// One decoded section: its id and raw (checksum-verified) payload bytes.
struct Section {
  uint32_t id = kSectionEnd;
  std::string payload;
};

/// The checksum-verified payloads of a snapshot's known sections, each
/// present only when the file carries that section.
struct SnapshotSections {
  std::optional<std::string> cache;           // kSectionCache
  std::optional<std::string> method_index;    // kSectionMethodIndex
  std::optional<std::string> mutation_state;  // kSectionMutationState
};

/// Broad classification of why a snapshot was rejected, for callers that
/// act differently per class (igq_tool maps these to distinct exit codes;
/// recovery's ladder logs them). The `error` strings stay the precise
/// human-readable account.
enum class SnapshotErrorKind : uint8_t {
  kNone = 0,
  /// The underlying stream/file could not be read at all.
  kIo,
  /// Damaged bytes: bad magic, truncation, framing, checksum mismatch,
  /// malformed payloads.
  kCorrupt,
  /// A well-formed file written by an incompatible format version.
  kVersionSkew,
  /// A well-formed, current-version file that belongs to a different
  /// dataset, mutation state, method, or engine configuration.
  kDatasetDivergence,
};

const char* SnapshotErrorKindName(SnapshotErrorKind kind);

/// Writes the snapshot magic + version.
void WriteSnapshotHeader(std::ostream& out);

/// Frames `payload` as a section: u32 id, u64 size, bytes, u32 CRC-32.
void WriteSection(std::ostream& out, uint32_t id, const std::string& payload);

/// Writes the end marker (a bare kSectionEnd id).
void WriteSnapshotEnd(std::ostream& out);

/// Validates magic + version. On failure returns false and, when `error`
/// is non-null, stores a human-readable reason (and classifies it into
/// `kind` when non-null: kCorrupt for bad magic/truncation, kVersionSkew
/// for a version mismatch).
bool ReadSnapshotHeader(std::istream& in, std::string* error,
                        SnapshotErrorKind* kind = nullptr);

/// Reads the next section into `section`, verifying its checksum (which
/// covers the id and size fields as well as the payload). The end marker
/// yields id == kSectionEnd with an empty payload; because the end marker
/// itself is unchecksummed, readers must require EOF right after it — a
/// section id corrupted into 0 then shows up as trailing garbage.
/// Returns false on truncation, oversized payloads, or checksum mismatch
/// (all kCorrupt in `kind`).
bool ReadSection(std::istream& in, Section* section, std::string* error,
                 SnapshotErrorKind* kind = nullptr);

/// Reads a whole snapshot file: the header, then every section through the
/// end marker, each checksum-verified (ReadSection), then requires EOF
/// behind the end marker. Unknown section ids are skipped — they are
/// verified data, not corruption — and a later copy of a known id replaces
/// an earlier one. Parses no payload. Returns false on any failure, with
/// `error` and `kind` filled as by ReadSnapshotHeader and ReadSection
/// (trailing bytes are kCorrupt).
bool ReadSnapshot(std::istream& in, SnapshotSections* sections,
                  std::string* error, SnapshotErrorKind* kind = nullptr);

}  // namespace snapshot
}  // namespace igq

#endif  // IGQ_SNAPSHOT_SNAPSHOT_H_
