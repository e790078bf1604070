// A persistent worker pool for the verification stage. The engine keeps one
// pool for its whole lifetime, so batches of queries (ProcessConcurrent) and
// repeated Process() calls share the same threads instead of spawning and
// joining a fresh team per query — thread startup is measurable next to the
// microsecond-scale verification of small candidates.
#ifndef IGQ_IGQ_VERIFY_POOL_H_
#define IGQ_IGQ_VERIFY_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "common/function_ref.h"
#include "graph/graph.h"

namespace igq {

namespace serving {
class QueryControl;
}  // namespace serving

/// Fixed-size pool executing one verification task at a time. The calling
/// thread participates as a worker, so a pool of size N spawns N-1 threads.
///
/// Thread-safety: Run() executes ONE task at a time — it is not reentrant
/// and two threads must never be inside Run() simultaneously. Different
/// threads may call Run() at different times, provided the calls are
/// externally serialized: QueryEngine arbitrates with a try-locked borrow —
/// a stream that finds the pool busy verifies inline instead of queuing
/// behind it (docs/CONCURRENCY.md). The destructor must not race a Run() in
/// progress.
class VerifyPool {
 public:
  /// `threads` is the total worker count including the caller (>= 1).
  explicit VerifyPool(size_t threads);
  ~VerifyPool();

  VerifyPool(const VerifyPool&) = delete;
  VerifyPool& operator=(const VerifyPool&) = delete;

  /// Runs `verify` over all candidates and returns the subset that verified,
  /// preserving candidate order. `verify` must be thread-safe and outlive
  /// the call (FunctionRef does not own it — binding a lambda at the call
  /// site is fine). Small inputs (fewer than two items per worker) run
  /// inline on the caller (VerifyInline). Each worker is a persistent
  /// thread, so the matching core's per-thread MatchContext arenas are
  /// reused across every query and batch this pool ever verifies.
  ///
  /// `control` (null for an unlimited query) is installed on every
  /// participating thread's MatchContext for the duration of the task, so
  /// the amortized match-core checkpoint can stop a search mid-candidate,
  /// and it is polled between claimed items so a stop drains the batch
  /// without starting new work. Results recorded at or after the stop are
  /// discarded (an interrupted search aliases "not contained" — see
  /// serving/budget.h), so on a stopped control the returned ids are a
  /// TRUSTED SUBSET of the full result: every id in it truly verified
  /// before the stop; ids the stop skipped or interrupted are simply
  /// absent. Callers must check control->stopped() and treat the result as
  /// partial.
  std::vector<GraphId> Run(const std::vector<GraphId>& candidates,
                           FunctionRef<bool(GraphId)> verify,
                           serving::QueryControl* control = nullptr);

  /// Total worker count including the calling thread.
  size_t threads() const { return workers_.size() + 1; }

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  uint64_t generation_ = 0;
  size_t active_workers_ = 0;
  bool shutdown_ = false;

  // Current task (valid while active_workers_ > 0).
  const std::vector<GraphId>* candidates_ = nullptr;
  FunctionRef<bool(GraphId)> verify_;
  std::vector<char>* outcome_ = nullptr;
  serving::QueryControl* control_ = nullptr;
  std::atomic<size_t> cursor_{0};

  std::vector<std::thread> workers_;
};

/// Verification on the calling thread alone, with VerifyPool::Run's
/// contract: candidate order is preserved and, under a stopped `control`,
/// the result is the trusted subset. VerifyPool::Run uses it for small
/// inputs; QueryEngine uses it when the shared pool is busy.
std::vector<GraphId> VerifyInline(const std::vector<GraphId>& candidates,
                                  FunctionRef<bool(GraphId)> verify,
                                  serving::QueryControl* control);

}  // namespace igq

#endif  // IGQ_IGQ_VERIFY_POOL_H_
