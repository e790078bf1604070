#include "serving/budget.h"

namespace igq {
namespace serving {

const char* StopReasonName(StopReason reason) {
  switch (reason) {
    case StopReason::kNone:
      return "none";
    case StopReason::kCancelled:
      return "cancelled";
    case StopReason::kDeadline:
      return "deadline";
    case StopReason::kStateCap:
      return "state_cap";
  }
  return "unknown";
}

const char* QueryStageName(QueryStage stage) {
  switch (stage) {
    case QueryStage::kAdmission:
      return "admission";
    case QueryStage::kGateWait:
      return "gate_wait";
    case QueryStage::kFastPath:
      return "fast_path";
    case QueryStage::kSingleflightWait:
      return "singleflight_wait";
    case QueryStage::kFilter:
      return "filter";
    case QueryStage::kProbe:
      return "probe";
    case QueryStage::kVerify:
      return "verify";
    case QueryStage::kComplete:
      return "complete";
  }
  return "unknown";
}

const char* QueryOutcomeKindName(QueryOutcomeKind kind) {
  switch (kind) {
    case QueryOutcomeKind::kCompleted:
      return "completed";
    case QueryOutcomeKind::kPartial:
      return "partial";
    case QueryOutcomeKind::kDeadlineExpired:
      return "deadline_expired";
    case QueryOutcomeKind::kShed:
      return "shed";
    case QueryOutcomeKind::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

void QueryControl::Arm(const QueryBudget& budget,
                       const std::atomic<bool>* cancel) {
  budget_ = budget;
  cancel_ = cancel;
  start_ = std::chrono::steady_clock::now();
  has_deadline_ = budget_.deadline_micros > 0;
  if (has_deadline_) {
    deadline_point_ = start_ + std::chrono::microseconds(budget_.deadline_micros);
  }
  limited_ = !budget_.Unlimited() || cancel_ != nullptr;
}

void QueryControl::Latch(StopReason reason) {
  const uint32_t word =
      static_cast<uint32_t>(reason) |
      (static_cast<uint32_t>(stage_.load(std::memory_order_relaxed)) << 8);
  uint32_t expected = 0;
  // First stop wins; losers keep the winner's (reason, stage) pair.
  stop_word_.compare_exchange_strong(expected, word, std::memory_order_acq_rel,
                                     std::memory_order_acquire);
}

bool QueryControl::CheckNow() {
  if (stopped()) return true;
  if (cancel_ != nullptr && cancel_->load(std::memory_order_acquire)) {
    Latch(StopReason::kCancelled);
    return true;
  }
  if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_point_) {
    Latch(StopReason::kDeadline);
    return true;
  }
  if (budget_.max_states != 0 &&
      states_.load(std::memory_order_relaxed) >= budget_.max_states) {
    Latch(StopReason::kStateCap);
    return true;
  }
  return false;
}

bool QueryControl::ChargeStates(uint64_t states) {
  states_.fetch_add(states, std::memory_order_relaxed);
  return CheckNow();
}

int64_t QueryControl::ElapsedMicros() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

QueryOutcome MakeStoppedOutcome(const QueryControl& control, bool partial) {
  QueryOutcome outcome;
  outcome.reason = control.reason();
  outcome.stage = control.stage_at_stop();
  outcome.elapsed_micros = control.ElapsedMicros();
  if (partial) {
    outcome.kind = QueryOutcomeKind::kPartial;
  } else if (outcome.reason == StopReason::kCancelled) {
    outcome.kind = QueryOutcomeKind::kCancelled;
  } else {
    outcome.kind = QueryOutcomeKind::kDeadlineExpired;
  }
  return outcome;
}

void OutcomeAccumulator::Record(const QueryOutcome& outcome) {
  switch (outcome.kind) {
    case QueryOutcomeKind::kCompleted:
      completed_.fetch_add(1, std::memory_order_relaxed);
      break;
    case QueryOutcomeKind::kPartial:
      partial_.fetch_add(1, std::memory_order_relaxed);
      break;
    case QueryOutcomeKind::kDeadlineExpired:
      deadline_expired_.fetch_add(1, std::memory_order_relaxed);
      break;
    case QueryOutcomeKind::kShed:
      shed_.fetch_add(1, std::memory_order_relaxed);
      break;
    case QueryOutcomeKind::kCancelled:
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

OutcomeCounters OutcomeAccumulator::Snapshot() const {
  OutcomeCounters counters;
  counters.completed = completed_.load(std::memory_order_relaxed);
  counters.partial = partial_.load(std::memory_order_relaxed);
  counters.deadline_expired = deadline_expired_.load(std::memory_order_relaxed);
  counters.shed = shed_.load(std::memory_order_relaxed);
  counters.cancelled = cancelled_.load(std::memory_order_relaxed);
  return counters;
}

}  // namespace serving
}  // namespace igq
