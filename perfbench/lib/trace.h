// Span tracing from outside the engine. The benchmark wraps the two layer
// boundaries it can reach through public interfaces — the host Method and
// the durability FileSystem — in forwarding decorators that record a span
// around every call, and the client loops open a root span per request.
// Spans live in per-thread buffers in memory and are read out after the run.
#ifndef PERFBENCH_LIB_TRACE_H_
#define PERFBENCH_LIB_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "durability/fault_fs.h"
#include "methods/method.h"

namespace perfbench {

/// What a span measures. The names are the layers' src/ modules.
enum class SpanKind : uint8_t {
  kQuery,       // igq: one Process call (root)
  kMutation,    // igq: one ApplyMutation call (root)
  kPrepare,     // methods: Method::Prepare
  kFilter,      // methods: Method::Filter
  kVerify,      // methods: Method::Verify
  kOnAdd,       // methods: Method::OnAddGraph
  kOnRemove,    // methods: Method::OnRemoveGraph
  kWalAppend,   // durability: WritableFile::Append
  kWalSync,     // durability: WritableFile::Sync
};
inline constexpr size_t kSpanKinds = 9;
const char* SpanKindName(SpanKind kind);

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 for a root span
  uint64_t request = 0;  // request id shared by a root and its descendants
  int64_t start_ns = 0;  // steady clock
  int64_t end_ns = 0;
  SpanKind kind = SpanKind::kQuery;
  /// Bytes appended (kWalAppend), candidates returned (kFilter), 1 when
  /// the test held (kVerify); 0 otherwise.
  uint64_t count = 0;
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Collects spans from any number of threads. Each thread appends to a
/// buffer of its own, so recording takes no lock after a thread's first
/// span.
class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  uint64_t NextSpanId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(const Span& span);

  /// Every recorded span, all threads merged, ordered by start time. Call
  /// only while no thread records.
  std::vector<Span> Collect() const;

 private:
  struct Buffer {
    std::vector<Span> spans;
  };
  Buffer* ThreadBuffer();

  const uint64_t serial_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex buffers_mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// The request a thread is currently serving: set by the client loop for
/// the duration of one Process/ApplyMutation, read by the decorators.
struct RequestContext {
  uint64_t request = 0;
  uint64_t span = 0;  // the root span's id
};
RequestContext& CurrentRequest();

/// RAII root span around one request. Installs the thread's request
/// context for the call and, when `record` is set, records the root span on
/// destruction. Child spans follow their root: an unrecorded request
/// leaves span id 0 in the context, and no child under it is recorded.
class RequestScope {
 public:
  RequestScope(SpanRecorder& recorder, SpanKind kind, uint64_t request,
               bool record);
  ~RequestScope();
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  SpanRecorder& recorder_;
  Span span_;
  bool recording_;
  RequestContext saved_;
};

/// RAII child span under `context` (usually the thread's current request);
/// records nothing when the context's root is not recorded.
class ChildSpan {
 public:
  ChildSpan(SpanRecorder& recorder, SpanKind kind, const RequestContext& context);
  ~ChildSpan();
  ChildSpan(const ChildSpan&) = delete;
  ChildSpan& operator=(const ChildSpan&) = delete;
  void set_count(uint64_t count) { span_.count = count; }

 private:
  SpanRecorder& recorder_;
  Span span_;
  bool recording_;
};

/// Forwarding igq::Method that records Prepare / Filter / Verify /
/// OnAddGraph / OnRemoveGraph spans. Prepare wraps the inner prepared
/// state together with the calling request's context, so Verify calls that
/// the engine's pool runs on other threads still find their parent span.
class TracingMethod : public igq::Method {
 public:
  TracingMethod(igq::Method& inner, SpanRecorder& recorder)
      : inner_(&inner), recorder_(&recorder) {}

  std::string Name() const override { return inner_->Name(); }
  igq::QueryDirection Direction() const override { return inner_->Direction(); }
  void Build(const igq::GraphDatabase& db) override { inner_->Build(db); }
  std::unique_ptr<igq::PreparedQuery> Prepare(
      const igq::Graph& query) const override;
  std::vector<igq::GraphId> Filter(
      const igq::PreparedQuery& prepared) const override;
  bool Verify(const igq::PreparedQuery& prepared, igq::GraphId id) const override;
  size_t IndexMemoryBytes() const override { return inner_->IndexMemoryBytes(); }
  bool SaveIndex(std::ostream& out) const override { return inner_->SaveIndex(out); }
  bool LoadIndex(const igq::GraphDatabase& db, std::istream& in) override {
    return inner_->LoadIndex(db, in);
  }
  bool OnAddGraph(const igq::GraphDatabase& db, igq::GraphId id) override;
  bool OnRemoveGraph(const igq::GraphDatabase& db, igq::GraphId id) override;

 private:
  igq::Method* inner_;
  SpanRecorder* recorder_;
};

/// Forwarding durability::FileSystem whose files record Append and Sync
/// spans (with the appended byte count) under the thread's request.
class TracingFileSystem : public igq::durability::FileSystem {
 public:
  TracingFileSystem(igq::durability::FileSystem& inner, SpanRecorder& recorder)
      : inner_(&inner), recorder_(&recorder) {}

  std::unique_ptr<igq::durability::WritableFile> OpenForAppend(
      const std::string& path) override;
  bool ReadFile(const std::string& path, std::string* contents) override {
    return inner_->ReadFile(path, contents);
  }
  bool Rename(const std::string& from, const std::string& to) override {
    return inner_->Rename(from, to);
  }
  bool Exists(const std::string& path) override { return inner_->Exists(path); }
  bool Remove(const std::string& path) override { return inner_->Remove(path); }
  std::vector<std::string> ListDir(const std::string& dir) override {
    return inner_->ListDir(dir);
  }

 private:
  igq::durability::FileSystem* inner_;
  SpanRecorder* recorder_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children — parallel Verify
/// calls — count once). Indexed like `spans`. Children whose parent is not
/// in `spans` are ignored.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Writes `spans` as tab-separated lines "id parent request name start_ns
/// end_ns count" under a header line. False if the file cannot be written.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

/// Length of the union of [start, end) intervals, each clipped to
/// [lo, hi). The input need not be sorted.
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                  int64_t lo, int64_t hi);

}  // namespace perfbench

#endif  // PERFBENCH_LIB_TRACE_H_
