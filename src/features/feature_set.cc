#include "features/feature_set.h"

#include <algorithm>
#include <cassert>

namespace igq {

PathKey PackPathKey(const std::vector<Label>& labels) {
  assert(!labels.empty() && labels.size() <= kMaxPathVertices);
  // Canonical orientation: lexicographically smaller of the two directions.
  bool reversed = false;
  for (size_t i = 0, j = labels.size() - 1; i < j; ++i, --j) {
    if (labels[i] != labels[j]) {
      reversed = labels[j] < labels[i];
      break;
    }
  }
  PathKey key = static_cast<PathKey>(labels.size());
  for (size_t i = 0; i < labels.size(); ++i) {
    const Label label = reversed ? labels[labels.size() - 1 - i] : labels[i];
    assert(label < 255);
    key |= static_cast<PathKey>(label + 1) << (8 * (i + 1));
  }
  return key;
}

std::vector<Label> UnpackPathKey(PathKey key) {
  const size_t length = PathKeyLength(key);
  std::vector<Label> labels(length);
  for (size_t i = 0; i < length; ++i) {
    labels[i] = PathKeyLabelAt(key, i);
  }
  return labels;
}

SortedPathFeatures SortPathFeatures(const PathFeatureCounts& counts) {
  SortedPathFeatures sorted(counts.begin(), counts.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

}  // namespace igq
