// Admission control for the query engine: a bounded admission queue
// with load shedding. Each admitted query holds "cost" units (its size in
// vertices + edges — a proxy for expected verify work) until it finishes;
// new queries whose cost would push the in-flight total past the watermark
// wait in a bounded queue, and queries beyond the queue bound — or whose
// deadline passes while queued — are shed with a typed outcome instead of
// piling up. Exact-hit fast-path lookups bypass admission entirely (the
// engine probes the canonical index before calling Admit), so cache hits
// stay cheap under overload. See docs/ARCHITECTURE.md "Overload &
// degradation ladder".
#ifndef IGQ_SERVING_ADMISSION_H_
#define IGQ_SERVING_ADMISSION_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>

#include "serving/budget.h"

namespace igq {
namespace serving {

class AdmissionController {
 public:
  enum class Result : uint8_t {
    kAdmitted = 0,
    kShed,      // queue full (or shedding preferred) — caller rejects
    kStopped,   // the query stopped while queued (control.reason() says why)
  };

  struct Stats {
    uint64_t admitted = 0;
    uint64_t shed = 0;
    uint64_t expired_in_queue = 0;    // stopped by its deadline while queued
    uint64_t cancelled_in_queue = 0;  // stopped by its cancel flag while queued
    uint64_t inflight_cost = 0;
    size_t waiters = 0;
  };

  /// `watermark` = 0 disables admission control: the engine then never
  /// calls Admit. `max_waiters` bounds the queue; beyond it, Admit sheds.
  AdmissionController(uint64_t watermark, size_t max_waiters)
      : watermark_(watermark), max_waiters_(max_waiters) {}

  bool enabled() const { return watermark_ != 0; }

  /// Blocks until `cost` units fit under the watermark, the query stops, or
  /// the queue bound forces a shed. A query whose cost alone exceeds the
  /// watermark is admitted once nothing else is in flight (otherwise it
  /// could never run). On kAdmitted the caller MUST balance with
  /// Release(cost) — use AdmissionTicket. A queued query parks in
  /// `control.Wait`, which notices its deadline and its cancel flag.
  Result Admit(uint64_t cost, QueryControl& control);

  void Release(uint64_t cost);

  Stats snapshot() const;

 private:
  const uint64_t watermark_;
  const size_t max_waiters_;
  mutable std::mutex mutex_;
  std::condition_variable capacity_cv_;
  uint64_t inflight_cost_ = 0;
  size_t waiters_ = 0;
  uint64_t admitted_ = 0;
  uint64_t shed_ = 0;
  uint64_t expired_in_queue_ = 0;
  uint64_t cancelled_in_queue_ = 0;
};

/// RAII admission slot: releases the admitted cost on destruction.
class AdmissionTicket {
 public:
  AdmissionTicket() = default;
  AdmissionTicket(AdmissionController* controller, uint64_t cost)
      : controller_(controller), cost_(cost) {}
  AdmissionTicket(AdmissionTicket&& other) noexcept
      : controller_(other.controller_), cost_(other.cost_) {
    other.controller_ = nullptr;
  }
  AdmissionTicket& operator=(AdmissionTicket&& other) noexcept {
    if (this != &other) {
      ReleaseNow();
      controller_ = other.controller_;
      cost_ = other.cost_;
      other.controller_ = nullptr;
    }
    return *this;
  }
  AdmissionTicket(const AdmissionTicket&) = delete;
  AdmissionTicket& operator=(const AdmissionTicket&) = delete;
  ~AdmissionTicket() { ReleaseNow(); }

 private:
  void ReleaseNow() {
    if (controller_ != nullptr) {
      controller_->Release(cost_);
      controller_ = nullptr;
    }
  }
  AdmissionController* controller_ = nullptr;
  uint64_t cost_ = 0;
};

}  // namespace serving
}  // namespace igq

#endif  // IGQ_SERVING_ADMISSION_H_
