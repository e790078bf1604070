// Wall-clock timing helpers for the benchmark harness. The paper reports
// filtering time vs verification time (Fig. 1) and end-to-end query
// processing speedups (Figs. 12-17); all of those are measured with these.
#ifndef IGQ_COMMON_TIMER_H_
#define IGQ_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>

namespace igq {

/// Monotonic stopwatch with microsecond resolution.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed time since construction/Reset, in microseconds.
  int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 start_)
        .count();
  }

  /// Elapsed time in seconds as a double.
  double ElapsedSeconds() const {
    return static_cast<double>(ElapsedMicros()) * 1e-6;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Adds the scope's duration to an external microsecond counter on exit.
/// A null sink disables the timer entirely — no clock reads at either end —
/// which is how the engines skip measurement overhead when the caller asked
/// for no stats (QueryEngine::Process with stats == nullptr,
/// ProcessConcurrent with collect_stats == false).
class ScopedTimer {
 public:
  explicit ScopedTimer(int64_t* sink_micros) : sink_(sink_micros) {
    if (sink_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (sink_ == nullptr) return;
    *sink_ += std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - start_)
                  .count();
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  int64_t* sink_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace igq

#endif  // IGQ_COMMON_TIMER_H_
