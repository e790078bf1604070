#include "tests/oracle/ullmann.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace igq {
namespace {

// All of Ullmann's mutable search state, reused across calls on a thread so
// the matcher never allocates after warm-up. The graphs are read directly
// (no per-call CSR build — refinement iterates adjacency, it never probes
// edges). The candidate matrix is row-major (one bitset row of target
// vertices per pattern vertex); saved_ holds one full matrix copy per
// recursion depth for backtracking.
struct UllmannScratch {
  const Graph* pattern = nullptr;  // rebound per call
  const Graph* target = nullptr;
  std::vector<uint64_t> matrix;
  std::vector<uint64_t> saved;
  std::vector<uint8_t> used;
  size_t words = 0;  // words per matrix row

  static UllmannScratch& ThreadLocal() {
    thread_local UllmannScratch scratch;
    return scratch;
  }

  bool Test(size_t r, size_t c) const {
    return (matrix[r * words + (c >> 6)] >> (c & 63)) & 1u;
  }
  void Set(size_t r, size_t c) {
    matrix[r * words + (c >> 6)] |= 1ULL << (c & 63);
  }
  void Clear(size_t r, size_t c) {
    matrix[r * words + (c >> 6)] &= ~(1ULL << (c & 63));
  }
  bool RowEmpty(size_t r) const {
    for (size_t w = 0; w < words; ++w) {
      if (matrix[r * words + w] != 0) return false;
    }
    return true;
  }
};

// Refinement: candidate (u, x) survives only if every pattern-neighbor of u
// has at least one surviving candidate among target-neighbors of x.
// Iterates to a fixed point. Returns false if some row becomes empty.
bool Refine(UllmannScratch& s) {
  const size_t np = s.pattern->NumVertices();
  const size_t nt = s.target->NumVertices();
  bool changed = true;
  while (changed) {
    changed = false;
    for (VertexId u = 0; u < np; ++u) {
      for (VertexId x = 0; x < nt; ++x) {
        if (!s.Test(u, x)) continue;
        bool supported = true;
        for (VertexId un : s.pattern->Neighbors(u)) {
          bool neighbor_ok = false;
          for (VertexId xn : s.target->Neighbors(x)) {
            if (s.Test(un, xn)) {
              neighbor_ok = true;
              break;
            }
          }
          if (!neighbor_ok) {
            supported = false;
            break;
          }
        }
        if (!supported) {
          s.Clear(u, x);
          changed = true;
        }
      }
      if (s.RowEmpty(u)) return false;
    }
  }
  return true;
}

bool Recurse(UllmannScratch& s, size_t depth, MatchStats* stats) {
  if (stats != nullptr) ++stats->states;
  const size_t np = s.pattern->NumVertices();
  if (depth == np) {
    if (stats != nullptr) ++stats->embeddings;
    return true;
  }
  const size_t matrix_words = np * s.words;
  const size_t nt = s.target->NumVertices();
  uint64_t* const save_slot = s.saved.data() + depth * matrix_words;
  for (VertexId x = 0; x < nt; ++x) {
    if (s.used[x] || !s.Test(depth, x)) continue;
    // Tentatively fix depth -> x: restrict row `depth` to x only, saving
    // the matrix into this depth's arena slot instead of a fresh copy.
    std::copy(s.matrix.begin(), s.matrix.end(), save_slot);
    for (VertexId other = 0; other < nt; ++other) {
      if (other != x) s.Clear(depth, other);
    }
    s.used[x] = 1;
    if (Refine(s) && Recurse(s, depth + 1, stats)) return true;
    s.used[x] = 0;
    std::copy(save_slot, save_slot + matrix_words, s.matrix.begin());
  }
  return false;
}

}  // namespace

bool UllmannMatcher::Contains(const Graph& pattern, const Graph& target,
                              MatchStats* stats) const {
  if (pattern.NumVertices() == 0) return true;
  if (pattern.NumVertices() > target.NumVertices() ||
      pattern.NumEdges() > target.NumEdges()) {
    return false;
  }
  UllmannScratch& s = UllmannScratch::ThreadLocal();
  s.pattern = &pattern;
  s.target = &target;
  const size_t np = pattern.NumVertices();
  const size_t nt = target.NumVertices();
  s.words = (nt + 63) / 64;
  s.matrix.assign(np * s.words, 0);
  s.saved.resize(np * np * s.words);
  s.used.assign(nt, 0);
  for (VertexId u = 0; u < np; ++u) {
    for (VertexId x = 0; x < nt; ++x) {
      if (pattern.label(u) == target.label(x) &&
          target.Degree(x) >= pattern.Degree(u)) {
        s.Set(u, x);
      }
    }
    if (s.RowEmpty(u)) return false;
  }
  if (!Refine(s)) return false;
  return Recurse(s, 0, stats);
}

}  // namespace igq
