// Query lifecycle control: per-query budgets (wall-clock deadline and
// recursion-state cap), cooperative cancellation, and the typed
// QueryOutcome the engines surface for every query — completed, partial
// (degradation ladder), deadline_expired, shed, or cancelled. The request
// (QueryRequest) is the only source of a query's limits. See
// docs/CONCURRENCY.md "Cancellation protocol" and docs/ARCHITECTURE.md
// "Overload & degradation ladder".
//
// Threading model: one QueryControl belongs to one query. The owning stream
// arms it and reads the outcome; during the verify stage borrowed VerifyPool
// workers charge search states into it concurrently, so the counters and the
// stop word are atomics. The external cancel flag (CancelSource) may be
// flipped from any thread at any time; it is only ever polled, never waited
// on, so cancellation latency is bounded by the polling interval
// (kBudgetCheckInterval search states, one pipeline-stage boundary, or
// kWaitPollInterval for a query parked in QueryControl::Wait).
#ifndef IGQ_SERVING_BUDGET_H_
#define IGQ_SERVING_BUDGET_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>

namespace igq {
namespace serving {

/// Why a query stopped early. kNone means it is still running (or ran to
/// completion). Everything else is sticky: the first stop wins and later
/// checks keep returning it.
enum class StopReason : uint8_t {
  kNone = 0,
  kCancelled,     // external CancelSource flag was set
  kDeadline,      // wall-clock deadline passed
  kStateCap,      // recursion-state cap exhausted
};

const char* StopReasonName(StopReason reason);

/// Pipeline stage a query was in when it stopped (or kComplete). The stages
/// mirror the engine pipelines: admission queue -> writer-gate wait ->
/// exact-hit fast path -> singleflight wait -> filter -> probe/prune ->
/// verify.
enum class QueryStage : uint8_t {
  kAdmission = 0,
  kGateWait,
  kFastPath,
  kSingleflightWait,
  kFilter,
  kProbe,
  kVerify,
  kComplete,
};

const char* QueryStageName(QueryStage stage);

/// Final disposition of one query, the top of every engine return path.
enum class QueryOutcomeKind : uint8_t {
  kCompleted = 0,        // full answer
  kPartial,              // cache-composed partial answer (degradation ladder)
  kDeadlineExpired,      // budget exhausted (deadline or a cap), no answer
  kShed,                 // rejected by admission control, no work done
  kCancelled,            // external cancellation, no answer
};

const char* QueryOutcomeKindName(QueryOutcomeKind kind);

/// Per-query resource budget. Zero means "unlimited" for every field, so a
/// default-constructed budget is a no-op: an unlimited query's cache
/// trajectory is bit-identical to Process's.
struct QueryBudget {
  /// Wall-clock deadline in microseconds from the moment the engine accepts
  /// the query (QueryControl::Arm). 0 = no deadline.
  int64_t deadline_micros = 0;
  /// Cap on recursion states explored across all isomorphism tests run for
  /// this query (filter-verify and probe). Enforced every
  /// kBudgetCheckInterval states, so the effective cap is rounded up to the
  /// polling interval. 0 = unlimited.
  uint64_t max_states = 0;

  bool Unlimited() const { return deadline_micros == 0 && max_states == 0; }
};

/// How often a limited query parked in QueryControl::Wait wakes to poll its
/// cancel flag when its deadline is further away (or absent).
inline constexpr std::chrono::milliseconds kWaitPollInterval{50};

/// External cancellation handle: the caller keeps the source, the engine
/// polls the flag through the QueryControl armed with it. Thread-safe.
class CancelSource {
 public:
  void RequestCancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancel_requested() const {
    return cancelled_.load(std::memory_order_acquire);
  }
  const std::atomic<bool>* flag() const { return &cancelled_; }

 private:
  std::atomic<bool> cancelled_{false};
};

/// The per-query control block threaded through the pipeline. Armed once by
/// the engine; long-running stages charge work into it and poll; the first
/// exhausted limit (or the cancel flag) latches a sticky stop.
///
/// IMPORTANT: once stopped() is true, the results of any in-flight search
/// are garbage — an interrupted EnumerateEmbeddings returns false exactly
/// like an exhausted one, so PlanContains aliases a budget-stop to "found".
/// Engines must check stopped() after every stage (and VerifyPool after
/// every item) and discard results produced at or after the stop.
class QueryControl {
 public:
  QueryControl() = default;
  QueryControl(const QueryControl&) = delete;
  QueryControl& operator=(const QueryControl&) = delete;

  /// Starts the clock. `cancel` may be null (no external cancellation).
  void Arm(const QueryBudget& budget, const std::atomic<bool>* cancel);

  /// True when any limit or the cancel flag is active. The engines run one
  /// pipeline either way, but hand the control to the searches and
  /// admission only when it is limited: an unlimited query's stage
  /// checkpoints are branches that never fire. A never-armed control is
  /// unlimited.
  bool limited() const { return limited_; }

  bool has_deadline() const { return has_deadline_; }
  std::chrono::steady_clock::time_point deadline() const {
    return deadline_point_;
  }

  /// The one wait of a parked query: blocks on `cv` (`lock` held on the
  /// mutex guarding what `ready` reads) until `ready()` holds or the query
  /// stops. An unlimited control waits plainly. A limited one sleeps until
  /// its deadline or for kWaitPollInterval, whichever is sooner, then runs
  /// CheckNow, so cancellation reaches it within one interval whatever its
  /// deadline. Returns ready(): false means the query stopped first (and
  /// the stop is latched).
  template <typename Ready>
  bool Wait(std::unique_lock<std::mutex>& lock, std::condition_variable& cv,
            Ready ready) {
    if (!limited_) {
      cv.wait(lock, ready);
      return true;
    }
    while (!ready() && !CheckNow()) {
      auto wake = std::chrono::steady_clock::now() + kWaitPollInterval;
      if (has_deadline_ && deadline_point_ < wake) wake = deadline_point_;
      cv.wait_until(lock, wake, ready);
    }
    return ready();
  }

  bool stopped() const {
    return stop_word_.load(std::memory_order_acquire) != 0;
  }
  StopReason reason() const {
    return static_cast<StopReason>(stop_word_.load(std::memory_order_acquire) &
                                   0xff);
  }
  /// Stage recorded by the stop-winning thread.
  QueryStage stage_at_stop() const {
    return static_cast<QueryStage>(
        (stop_word_.load(std::memory_order_acquire) >> 8) & 0xff);
  }

  /// Pipeline-position marker, set by the owning stream between stages (the
  /// borrowed verify workers never move it).
  void set_stage(QueryStage stage) {
    stage_.store(static_cast<uint8_t>(stage), std::memory_order_relaxed);
  }
  QueryStage stage() const {
    return static_cast<QueryStage>(stage_.load(std::memory_order_relaxed));
  }

  /// Full check: cancel flag, deadline, state cap. Returns stopped().
  /// Called at stage boundaries and from the amortized match-core
  /// checkpoint — never per search state.
  bool CheckNow();

  /// Charges `states` recursion states, then runs the full check. This is
  /// the match-core checkpoint body (called every kBudgetCheckInterval
  /// states per searching thread).
  bool ChargeStates(uint64_t states);

  uint64_t states_charged() const {
    return states_.load(std::memory_order_relaxed);
  }
  int64_t ElapsedMicros() const;

 private:
  void Latch(StopReason reason);

  QueryBudget budget_;
  const std::atomic<bool>* cancel_ = nullptr;
  std::chrono::steady_clock::time_point start_{};
  std::chrono::steady_clock::time_point deadline_point_{};
  bool limited_ = false;
  bool has_deadline_ = false;
  std::atomic<uint64_t> states_{0};
  /// reason (low byte) | stage-at-stop (next byte); 0 = running. A single
  /// word so the first Latch wins atomically and readers see a consistent
  /// (reason, stage) pair.
  std::atomic<uint32_t> stop_word_{0};
  std::atomic<uint8_t> stage_{static_cast<uint8_t>(QueryStage::kAdmission)};
};

/// What one query ultimately produced. `stage` is where a non-completed
/// query stopped; `reason` the limit that fired; `elapsed_micros` wall time
/// from Arm to outcome.
struct QueryOutcome {
  QueryOutcomeKind kind = QueryOutcomeKind::kCompleted;
  QueryStage stage = QueryStage::kComplete;
  StopReason reason = StopReason::kNone;
  int64_t elapsed_micros = 0;

  bool answer_usable() const {
    return kind == QueryOutcomeKind::kCompleted ||
           kind == QueryOutcomeKind::kPartial;
  }
};

/// Builds the outcome for a control that stopped (maps the stop reason to
/// the outcome kind; `partial` upgrades a budget-stop that salvaged a
/// cache-composed answer).
QueryOutcome MakeStoppedOutcome(const QueryControl& control, bool partial);

/// Per-request lifecycle parameters: the budget plus an optional external
/// cancellation flag — the only source of a query's limits. The engine adds
/// one rule (QueryEngine::ProcessWithBudget): while admission is on, a
/// request without a deadline gets a 30-second one.
struct QueryRequest {
  QueryBudget budget;
  const CancelSource* cancel = nullptr;
};

/// Engine-level outcome counters: snapshot-independent serving stats (never
/// serialized — a recovered engine starts its overload history fresh).
/// Thread-safe; one per engine.
struct OutcomeCounters {
  uint64_t completed = 0;
  uint64_t partial = 0;
  uint64_t deadline_expired = 0;
  uint64_t shed = 0;
  uint64_t cancelled = 0;

  uint64_t total() const {
    return completed + partial + deadline_expired + shed + cancelled;
  }
};

class OutcomeAccumulator {
 public:
  void Record(const QueryOutcome& outcome);
  OutcomeCounters Snapshot() const;

 private:
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> partial_{0};
  std::atomic<uint64_t> deadline_expired_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> cancelled_{0};
};

}  // namespace serving
}  // namespace igq

#endif  // IGQ_SERVING_BUDGET_H_
