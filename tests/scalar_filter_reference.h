// The FROZEN counting-filter reference: a verbatim copy of the tally the
// GGSX/Grapes host filter ran before the containment kernel
// (PathMethodBase::Filter's all-postings pass). A graph passes iff every
// query feature's posting in it counts at least the query's occurrences.
// The `bench_micro_core --smoke` gate compares PathTrie::FindContainingAll
// with it, through the host filter and through iGQ's Isub probe; do NOT
// "improve" this code. Featureless queries are the callers' own rule and
// are not compared.
#ifndef IGQ_TESTS_SCALAR_FILTER_REFERENCE_H_
#define IGQ_TESTS_SCALAR_FILTER_REFERENCE_H_

#include <vector>

#include "features/feature_set.h"
#include "methods/path_trie.h"

namespace igq {
namespace scalar_reference {

inline std::vector<GraphId> ScalarCountingFilterReference(
    const PathTrie& trie, const PathFeatureCounts& features,
    size_t num_graphs) {
  std::vector<uint32_t> matched(num_graphs, 0);
  for (const auto& [key, query_count] : features) {
    const std::vector<PathPosting>* postings = trie.Find(key);
    if (postings == nullptr) return {};  // feature absent from every graph
    for (const PathPosting& posting : *postings) {
      if (posting.count >= query_count) ++matched[posting.graph_id];
    }
  }
  const uint32_t required = static_cast<uint32_t>(features.size());
  std::vector<GraphId> candidates;
  for (GraphId id = 0; id < matched.size(); ++id) {
    if (matched[id] == required) candidates.push_back(id);
  }
  return candidates;
}

}  // namespace scalar_reference
}  // namespace igq

#endif  // IGQ_TESTS_SCALAR_FILTER_REFERENCE_H_
