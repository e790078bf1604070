#include "serving/admission.h"

namespace igq {
namespace serving {

AdmissionController::Result AdmissionController::Admit(uint64_t cost,
                                                       QueryControl& control) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto fits = [&] {
    // An oversized query (cost > watermark) runs alone: admit it only when
    // nothing else holds cost, so it cannot starve forever.
    return inflight_cost_ + cost <= watermark_ || inflight_cost_ == 0;
  };
  if (!fits()) {
    if (waiters_ >= max_waiters_) {
      ++shed_;
      return Result::kShed;
    }
    ++waiters_;
    const bool admitted = control.Wait(lock, capacity_cv_, fits);
    --waiters_;
    if (!admitted) {
      ++(control.reason() == StopReason::kCancelled ? cancelled_in_queue_
                                                     : expired_in_queue_);
      return Result::kStopped;
    }
  }
  ++admitted_;
  inflight_cost_ += cost;
  return Result::kAdmitted;
}

void AdmissionController::Release(uint64_t cost) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    inflight_cost_ = cost <= inflight_cost_ ? inflight_cost_ - cost : 0;
  }
  capacity_cv_.notify_all();
}

AdmissionController::Stats AdmissionController::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats stats;
  stats.admitted = admitted_;
  stats.shed = shed_;
  stats.expired_in_queue = expired_in_queue_;
  stats.cancelled_in_queue = cancelled_in_queue_;
  stats.inflight_cost = inflight_cost_;
  stats.waiters = waiters_;
  return stats;
}

}  // namespace serving
}  // namespace igq
