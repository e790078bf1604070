#include "igq/verify_pool.h"

#include "isomorphism/match_core.h"
#include "serving/budget.h"

namespace igq {

namespace {

/// Shared claim loop: caller and workers pull items off the atomic cursor.
/// With a control installed, the loop stops claiming once the query is
/// stopped, and a result whose verify call finished at or after the stop is
/// discarded — an interrupted search returns garbage (see serving/budget.h),
/// and we cannot tell an interrupted item from a completed one after the
/// fact, so everything finishing post-stop is conservatively dropped.
void ClaimLoop(const std::vector<GraphId>& candidates,
               FunctionRef<bool(GraphId)> verify, std::vector<char>& outcome,
               std::atomic<size_t>& cursor, serving::QueryControl* control) {
  for (;;) {
    if (control != nullptr && control->stopped()) break;
    const size_t index = cursor.fetch_add(1);
    if (index >= candidates.size()) break;
    const bool hit = verify(candidates[index]);
    if (control != nullptr && control->stopped()) break;
    outcome[index] = hit ? 1 : 0;
  }
}

}  // namespace

VerifyPool::VerifyPool(size_t threads) {
  const size_t extra = threads == 0 ? 0 : threads - 1;
  workers_.reserve(extra);
  for (size_t t = 0; t < extra; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

VerifyPool::~VerifyPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::vector<GraphId> VerifyInline(const std::vector<GraphId>& candidates,
                                  FunctionRef<bool(GraphId)> verify,
                                  serving::QueryControl* control) {
  // Same discard protocol as ClaimLoop: a result finishing at or after the
  // stop is garbage.
  std::vector<GraphId> verified;
  for (GraphId id : candidates) {
    if (control != nullptr && control->stopped()) break;
    const bool hit = verify(id);
    if (control != nullptr && control->stopped()) break;
    if (hit) verified.push_back(id);
  }
  return verified;
}

std::vector<GraphId> VerifyPool::Run(const std::vector<GraphId>& candidates,
                                     FunctionRef<bool(GraphId)> verify,
                                     serving::QueryControl* control) {
  if (workers_.empty() || candidates.size() < 2 * threads()) {
    return VerifyInline(candidates, verify, control);
  }

  std::vector<char> outcome(candidates.size(), 0);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    candidates_ = &candidates;
    verify_ = verify;
    outcome_ = &outcome;
    control_ = control;
    cursor_.store(0, std::memory_order_relaxed);
    active_workers_ = workers_.size();
    ++generation_;
  }
  work_cv_.notify_all();

  // The caller claims items alongside the workers. Its thread already has
  // the engine's ScopedSearchControl installed, so only the claim-loop poll
  // is needed here.
  ClaimLoop(candidates, verify, outcome, cursor_, control);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return active_workers_ == 0; });
    candidates_ = nullptr;
    verify_ = FunctionRef<bool(GraphId)>();
    outcome_ = nullptr;
    control_ = nullptr;
  }

  std::vector<GraphId> verified;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (outcome[i] != 0) verified.push_back(candidates[i]);
  }
  return verified;
}

void VerifyPool::WorkerLoop() {
  uint64_t seen_generation = 0;
  for (;;) {
    const std::vector<GraphId>* candidates;
    FunctionRef<bool(GraphId)> verify;
    std::vector<char>* outcome;
    serving::QueryControl* control;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this, seen_generation] {
        return shutdown_ || generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = generation_;
      candidates = candidates_;
      verify = verify_;
      outcome = outcome_;
      control = control_;
    }
    {
      // Borrowed-worker cancellation: install the query's control on this
      // worker's MatchContext so the amortized checkpoint can unwind a
      // search mid-candidate, not just between candidates.
      ScopedSearchControl guard(MatchContext::ThreadLocal(), control);
      ClaimLoop(*candidates, verify, *outcome, cursor_, control);
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--active_workers_ == 0) done_cv_.notify_all();
    }
  }
}

}  // namespace igq
