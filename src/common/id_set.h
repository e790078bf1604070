// Adaptive id sets for the filtering pipeline: a set over a GraphId
// universe stored either as a sorted-unique array (sparse) or as a 64-bit
// word bitmap (dense), with blocked union/intersect/difference kernels, a
// galloping intersect for skewed array pairs, and a membership Partition
// kernel that feeds the §4.3 pruning credit callbacks.
//
// The representation crossover mirrors CsrGraphView::WantsBitset: the rule
// is a pinned static predicate (WantsBitmap) so tests can assert exactly
// where the switch happens (docs/PERFORMANCE.md, "The filtering pipeline").
//
// All kernels write into caller-provided storage and reuse its capacity, so
// a steady-state caller that recycles an IdSetScratch performs zero heap
// allocations — asserted by `bench_micro_core --smoke`.
#ifndef IGQ_COMMON_ID_SET_H_
#define IGQ_COMMON_ID_SET_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace igq {

/// Set of GraphIds drawn from [0, universe). Immutable value semantics plus
/// in-place Assign* rebuilders that retain previously grown capacity.
///
/// Thread-safety: const access is safe from any number of threads; Assign*
/// and moves require exclusive access (the same contract as CsrGraphView).
class IdSet {
 public:
  enum class Repr : uint8_t { kArray, kBitmap };

  IdSet() = default;

  /// Builds a set from arbitrary ids: detects already-sorted input in one
  /// pass (the common case — answers are produced sorted), sorts only when
  /// needed, deduplicates, then picks the representation. This is the one
  /// shared normalization helper for every answer-ingestion path (both
  /// query caches route their Insert through it).
  static IdSet FromIds(std::vector<GraphId> ids, size_t universe);

  /// Builds from ids that are already sorted ascending and unique
  /// (debug-asserted). Takes ownership; no copy for the array repr.
  static IdSet FromSortedUnique(std::vector<GraphId> ids, size_t universe);

  /// In-place rebuild from sorted-unique ids, reusing this set's capacity.
  void AssignSortedUnique(std::span<const GraphId> ids, size_t universe);

  void Clear();

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t universe() const { return universe_; }
  Repr repr() const { return repr_; }

  /// O(1) for the bitmap repr, O(log size) for the array repr.
  bool contains(GraphId id) const {
    if (repr_ == Repr::kBitmap) {
      const size_t word = static_cast<size_t>(id) >> 6;
      if (word >= words_.size()) return false;
      return (words_[word] >> (id & 63)) & 1u;
    }
    return ArrayContains(id);
  }

  /// Sorted-ascending view; valid only for the array repr.
  std::span<const GraphId> array() const {
    return {ids_.data(), ids_.size()};
  }

  /// Bit-word view ((universe+63)/64 words); empty for the array repr. The
  /// blocked whole-set kernels combine these 64 members at a time.
  std::span<const uint64_t> words() const {
    return {words_.data(), words_.size()};
  }

  /// Fills `out` with the member ids, sorted ascending (out is cleared
  /// first; capacity is reused).
  void Materialize(std::vector<GraphId>* out) const;

  std::vector<GraphId> ToVector() const {
    std::vector<GraphId> out;
    Materialize(&out);
    return out;
  }

  /// Visits members ascending. `fn` is called with each GraphId.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (repr_ == Repr::kArray) {
      for (GraphId id : ids_) fn(id);
      return;
    }
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t word = words_[w];
      while (word != 0) {
        const int bit = __builtin_ctzll(word);
        fn(static_cast<GraphId>((w << 6) + static_cast<size_t>(bit)));
        word &= word - 1;
      }
    }
  }

  /// Splits `ids` (sorted ascending, unique) by membership: members are
  /// appended to `kept`, non-members to `removed`; either sink may be null.
  /// Output order follows `ids`. Bitmap repr probes bits (O(|ids|)); array
  /// repr merge-walks, switching to a galloping probe of the larger side
  /// when the sizes are skewed by more than kGallopSkew.
  void Partition(std::span<const GraphId> ids, std::vector<GraphId>* kept,
                 std::vector<GraphId>* removed) const;

  /// Content equality, independent of representation.
  bool operator==(const IdSet& other) const;

  /// Heap footprint (capacity, since buffers are kept warm across Assign).
  size_t MemoryBytes() const {
    return ids_.capacity() * sizeof(GraphId) +
           words_.capacity() * sizeof(uint64_t);
  }

  /// The crossover rule, exposed for tests and docs/PERFORMANCE.md: bitmap
  /// when the universe is known, small enough that a row of bits is cheap
  /// to keep and scan, and the set is dense enough that one bit per
  /// potential member beats four bytes per actual member — the memory
  /// parity point, universe/32 members, which is also where O(1) bit
  /// probes start beating O(log size) binary searches on the workloads the
  /// filter pipeline sees. An unknown universe (0) always stays an array.
  static bool WantsBitmap(size_t set_size, size_t universe) {
    if (universe == 0 || universe > kBitmapMaxUniverse) return false;
    return set_size * kBitmapDensityFactor >= universe;
  }

  /// Memory-parity density: 32 ids per 4-byte word vs 1 bit each.
  static constexpr size_t kBitmapDensityFactor = 32;
  /// Bitmaps over universes past this would cost >128 KB per set; the
  /// datasets this repository models stay orders of magnitude below it.
  static constexpr size_t kBitmapMaxUniverse = 1u << 20;
  /// Array∩array switches from merge-walk to galloping binary probes when
  /// one side is more than this many times larger than the other.
  static constexpr size_t kGallopSkew = 16;

 private:
  bool ArrayContains(GraphId id) const;
  void BuildBitmap(std::span<const GraphId> ids);

  Repr repr_ = Repr::kArray;
  size_t universe_ = 0;
  size_t size_ = 0;
  std::vector<GraphId> ids_;     // array repr: sorted ascending, unique
  std::vector<uint64_t> words_;  // bitmap repr: (universe+63)/64 words
};

// --- Sorted-span kernels -----------------------------------------------------
//
// The probe indexes and the pruning core run on sorted-unique id spans; the
// kernels below write into caller-provided vectors (cleared, capacity
// reused) so steady-state callers never allocate. `out` must not alias an
// input span's storage.

/// out = a ∩ b. Merge-walk, or galloping probes of the larger side when the
/// sizes are skewed by more than IdSet::kGallopSkew.
void IntersectSorted(std::span<const GraphId> a, std::span<const GraphId> b,
                     std::vector<GraphId>* out);

/// out = a ∪ b.
void UnionSorted(std::span<const GraphId> a, std::span<const GraphId> b,
                 std::vector<GraphId>* out);

/// out = a \ b.
void DifferenceSorted(std::span<const GraphId> a, std::span<const GraphId> b,
                      std::vector<GraphId>* out);

// --- Whole-set kernels -------------------------------------------------------
//
// Blocked (64-bit word) implementations when both operands are bitmaps over
// the same universe; span kernels otherwise. `out` must be a distinct
// object from both inputs; its storage is reused.
//
// These are the general IdSet×IdSet algebra (oracle-tested against
// std::set_* in tests/idset_test.cc). The pruning/probe hot paths do not
// route through them — their inputs are sorted spans against one IdSet, so
// Partition and the span kernels above are the faster shape — but any
// caller holding two materialized sets (future ablation or multi-cache
// merges) gets the blocked path for free.

void IdSetUnion(const IdSet& a, const IdSet& b, IdSet* out,
                std::vector<GraphId>* scratch);
void IdSetIntersect(const IdSet& a, const IdSet& b, IdSet* out,
                    std::vector<GraphId>* scratch);
void IdSetDifference(const IdSet& a, const IdSet& b, IdSet* out,
                     std::vector<GraphId>* scratch);

/// Reusable buffers for the filtering pipeline. One instance per thread
/// (ThreadLocal()), mirroring MatchContext: probes and pruning borrow the
/// buffers for the duration of one call and leave their capacity warm for
/// the next query. Never hold a reference across a call that also uses the
/// scratch.
class IdSetScratch {
 public:
  std::vector<GraphId>& ids_a() { return ids_a_; }

  /// Counting-filter tally, resized (and zero-filled) to `universe`.
  std::vector<uint32_t>& Tally(size_t universe) {
    tally_.assign(universe, 0);
    return tally_;
  }

  /// The calling thread's scratch (persistent pool workers and serving
  /// threads each get their own, so concurrent probes never share buffers).
  static IdSetScratch& ThreadLocal();

 private:
  std::vector<GraphId> ids_a_;
  std::vector<uint32_t> tally_;
};

}  // namespace igq

#endif  // IGQ_COMMON_ID_SET_H_
