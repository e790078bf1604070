// The benchmark's one percentile helper. Every latency figure the benchmark
// prints goes through Percentile(), so all workloads agree on the definition.
#ifndef PERFBENCH_LIB_STATS_H_
#define PERFBENCH_LIB_STATS_H_

#include <algorithm>
#include <cmath>
#include <vector>

namespace perfbench {

/// The q-quantile (q in [0, 1]) of `samples` by linear interpolation between
/// the closest ranks: rank h = q * (n - 1), value = x[floor h] + (h - floor h)
/// * (x[floor h + 1] - x[floor h]) over the sorted samples. 0 for no samples.
inline double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double h = std::clamp(q, 0.0, 1.0) * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(h));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (h - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

/// Number of samples strictly above the q-quantile's rank, i.e. how many
/// observations a reported q-quantile rests on from above.
inline size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  return n - 1 - static_cast<size_t>(std::floor(q * static_cast<double>(n - 1)));
}

}  // namespace perfbench

#endif  // PERFBENCH_LIB_STATS_H_
