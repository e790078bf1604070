// Shared differential-state assertions: bit-level equality of two engines'
// observable state, used by the mutate-vs-rebuild harness
// (mutation_equivalence_test.cc) and the crash-recovery sweep
// (recovery_test.cc). Two engines that pass ExpectSameCacheState answer any
// future query stream identically — same answers, same hit/miss sequence,
// same replacement victims — because the §5.1 credit sequences (H, the
// insertion clock, R, C, last hit, and the log-space cost doubles) fully
// determine eviction order.
#ifndef IGQ_TESTS_STATE_DIFF_H_
#define IGQ_TESTS_STATE_DIFF_H_

#include <gtest/gtest.h>

#include <cstddef>

#include "igq/engine.h"
#include "igq/sharded_cache.h"

namespace igq {
namespace testing {

inline void ExpectSameStats(const QueryStats& a, const QueryStats& b,
                            size_t op) {
  EXPECT_EQ(a.candidates_initial, b.candidates_initial) << "op " << op;
  EXPECT_EQ(a.candidates_final, b.candidates_final) << "op " << op;
  EXPECT_EQ(a.iso_tests, b.iso_tests) << "op " << op;
  EXPECT_EQ(a.probe_iso_tests, b.probe_iso_tests) << "op " << op;
  EXPECT_EQ(a.answer_size, b.answer_size) << "op " << op;
  EXPECT_EQ(a.isub_hits, b.isub_hits) << "op " << op;
  EXPECT_EQ(a.isuper_hits, b.isuper_hits) << "op " << op;
  EXPECT_EQ(static_cast<int>(a.shortcut), static_cast<int>(b.shortcut))
      << "op " << op;
}

/// Full behavioral-state equality of the two caches: flushed and window
/// entries, answers, and the §5.1 credit sequences (H, insertion clock, R,
/// C, last hit). Cost credits accumulate in the same order on both arms, so
/// even the log-space doubles must match bitwise.
inline void ExpectSameCacheState(const ShardedQueryCache& a,
                                 const ShardedQueryCache& b, size_t op) {
  ASSERT_EQ(a.size(), b.size()) << "op " << op;
  ASSERT_EQ(a.window_fill(), b.window_fill()) << "op " << op;
  EXPECT_EQ(a.queries_processed(), b.queries_processed()) << "op " << op;
  const std::vector<CachedQuery> entries_a = a.Entries();
  const std::vector<CachedQuery> entries_b = b.Entries();
  ASSERT_EQ(entries_a.size(), entries_b.size()) << "op " << op;
  for (size_t i = 0; i < entries_a.size(); ++i) {
    const CachedQuery& ea = entries_a[i];
    const CachedQuery& eb = entries_b[i];
    EXPECT_EQ(ea.id, eb.id) << "op " << op << " entry " << i;
    EXPECT_EQ(ea.answer.ToVector(), eb.answer.ToVector())
        << "op " << op << " entry " << i;
    EXPECT_EQ(ea.meta.hits, eb.meta.hits) << "op " << op << " entry " << i;
    EXPECT_EQ(ea.meta.inserted_at, eb.meta.inserted_at)
        << "op " << op << " entry " << i;
    EXPECT_EQ(ea.meta.removed_candidates, eb.meta.removed_candidates)
        << "op " << op << " entry " << i;
    EXPECT_EQ(ea.meta.last_hit_at, eb.meta.last_hit_at)
        << "op " << op << " entry " << i;
    EXPECT_EQ(ea.meta.cost_saved.log(), eb.meta.cost_saved.log())
        << "op " << op << " entry " << i;
  }
}

}  // namespace testing
}  // namespace igq

#endif  // IGQ_TESTS_STATE_DIFF_H_
