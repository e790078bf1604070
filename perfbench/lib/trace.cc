#include "lib/trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

std::atomic<uint64_t> next_recorder_serial{1};

// A thread's buffer, remembered per recorder by serial (not address, so a
// recorder allocated where a destroyed one lived never reuses its buffer).
struct ThreadSlot {
  uint64_t serial = 0;
  void* buffer = nullptr;
};
thread_local ThreadSlot thread_slot;

// Prepared state handed to the engine by TracingMethod::Prepare: the inner
// method's own prepared state plus the request it was prepared for.
class TracedPrepared : public igq::PreparedQuery {
 public:
  TracedPrepared(const igq::Graph& query,
                 std::unique_ptr<igq::PreparedQuery> inner,
                 const RequestContext& context)
      : igq::PreparedQuery(query), inner_(std::move(inner)), context_(context) {}

  const igq::PreparedQuery& inner() const { return *inner_; }
  const RequestContext& context() const { return context_; }

 private:
  std::unique_ptr<igq::PreparedQuery> inner_;
  RequestContext context_;
};

// The engines hand Filter and Verify only what Prepare returned, so every
// PreparedQuery reaching a TracingMethod is one of its own.
const TracedPrepared& AsTraced(const igq::PreparedQuery& prepared) {
  return static_cast<const TracedPrepared&>(prepared);
}

class TracingFile : public igq::durability::WritableFile {
 public:
  TracingFile(std::unique_ptr<igq::durability::WritableFile> inner,
              SpanRecorder& recorder)
      : inner_(std::move(inner)), recorder_(&recorder) {}

  bool Append(const void* data, size_t size) override {
    ChildSpan span(*recorder_, SpanKind::kWalAppend, CurrentRequest());
    span.set_count(size);
    return inner_->Append(data, size);
  }
  bool Sync() override {
    ChildSpan span(*recorder_, SpanKind::kWalSync, CurrentRequest());
    return inner_->Sync();
  }
  bool Close() override { return inner_->Close(); }

 private:
  std::unique_ptr<igq::durability::WritableFile> inner_;
  SpanRecorder* recorder_;
};

}  // namespace

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kQuery: return "igq.query";
    case SpanKind::kMutation: return "igq.mutation";
    case SpanKind::kPrepare: return "methods.prepare";
    case SpanKind::kFilter: return "methods.filter";
    case SpanKind::kVerify: return "methods.verify";
    case SpanKind::kOnAdd: return "methods.on_add";
    case SpanKind::kOnRemove: return "methods.on_remove";
    case SpanKind::kWalAppend: return "durability.append";
    case SpanKind::kWalSync: return "durability.sync";
  }
  return "unknown";
}

SpanRecorder::SpanRecorder() : serial_(next_recorder_serial.fetch_add(1)) {}

SpanRecorder::Buffer* SpanRecorder::ThreadBuffer() {
  if (thread_slot.serial == serial_) {
    return static_cast<Buffer*>(thread_slot.buffer);
  }
  std::lock_guard<std::mutex> lock(buffers_mutex_);
  buffers_.push_back(std::make_unique<Buffer>());
  Buffer* buffer = buffers_.back().get();
  buffer->spans.reserve(1 << 14);
  thread_slot = {serial_, buffer};
  return buffer;
}

void SpanRecorder::Record(const Span& span) { ThreadBuffer()->spans.push_back(span); }

std::vector<Span> SpanRecorder::Collect() const {
  std::vector<Span> all;
  {
    std::lock_guard<std::mutex> lock(buffers_mutex_);
    for (const auto& buffer : buffers_) {
      all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    }
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

RequestContext& CurrentRequest() {
  thread_local RequestContext context;
  return context;
}

RequestScope::RequestScope(SpanRecorder& recorder, SpanKind kind,
                           uint64_t request, bool record)
    : recorder_(recorder), recording_(record), saved_(CurrentRequest()) {
  span_.kind = kind;
  span_.request = request;
  span_.id = recording_ ? recorder.NextSpanId() : 0;
  CurrentRequest() = {request, span_.id};
  if (recording_) span_.start_ns = NowNs();
}

RequestScope::~RequestScope() {
  if (recording_) {
    span_.end_ns = NowNs();
    recorder_.Record(span_);
  }
  CurrentRequest() = saved_;
}

ChildSpan::ChildSpan(SpanRecorder& recorder, SpanKind kind,
                     const RequestContext& context)
    : recorder_(recorder), recording_(context.span != 0) {
  if (!recording_) return;
  span_.kind = kind;
  span_.id = recorder.NextSpanId();
  span_.parent = context.span;
  span_.request = context.request;
  span_.start_ns = NowNs();
}

ChildSpan::~ChildSpan() {
  if (!recording_) return;
  span_.end_ns = NowNs();
  recorder_.Record(span_);
}

std::unique_ptr<igq::PreparedQuery> TracingMethod::Prepare(
    const igq::Graph& query) const {
  const RequestContext context = CurrentRequest();
  ChildSpan span(*recorder_, SpanKind::kPrepare, context);
  return std::make_unique<TracedPrepared>(query, inner_->Prepare(query), context);
}

std::vector<igq::GraphId> TracingMethod::Filter(
    const igq::PreparedQuery& prepared) const {
  const TracedPrepared& traced = AsTraced(prepared);
  ChildSpan span(*recorder_, SpanKind::kFilter, traced.context());
  std::vector<igq::GraphId> candidates = inner_->Filter(traced.inner());
  span.set_count(candidates.size());
  return candidates;
}

bool TracingMethod::Verify(const igq::PreparedQuery& prepared,
                           igq::GraphId id) const {
  const TracedPrepared& traced = AsTraced(prepared);
  ChildSpan span(*recorder_, SpanKind::kVerify, traced.context());
  const bool contained = inner_->Verify(traced.inner(), id);
  span.set_count(contained ? 1 : 0);
  return contained;
}

bool TracingMethod::OnAddGraph(const igq::GraphDatabase& db, igq::GraphId id) {
  ChildSpan span(*recorder_, SpanKind::kOnAdd, CurrentRequest());
  return inner_->OnAddGraph(db, id);
}

bool TracingMethod::OnRemoveGraph(const igq::GraphDatabase& db,
                                  igq::GraphId id) {
  ChildSpan span(*recorder_, SpanKind::kOnRemove, CurrentRequest());
  return inner_->OnRemoveGraph(db, id);
}

std::unique_ptr<igq::durability::WritableFile> TracingFileSystem::OpenForAppend(
    const std::string& path) {
  std::unique_ptr<igq::durability::WritableFile> file = inner_->OpenForAppend(path);
  if (file == nullptr) return nullptr;
  return std::make_unique<TracingFile>(std::move(file), *recorder_);
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "id\tparent\trequest\tname\tstart_ns\tend_ns\tcount\n");
  for (const Span& span : spans) {
    std::fprintf(file, "%llu\t%llu\t%llu\t%s\t%lld\t%lld\t%llu\n",
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.request), SpanKindName(span.kind),
                 static_cast<long long>(span.start_ns), static_cast<long long>(span.end_ns),
                 static_cast<unsigned long long>(span.count));
  }
  return std::fclose(file) == 0;
}

int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                  int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t reach = lo;  // everything before `reach` is already counted
  for (auto [start, end] : intervals) {
    start = std::max(start, reach);
    end = std::min(end, hi);
    if (end <= start) continue;
    covered += end - start;
    reach = end;
  }
  return covered;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index_of;
  index_of.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index_of.emplace(spans[i].id, i);
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent == 0) continue;
    const auto it = index_of.find(span.parent);
    if (it == index_of.end()) continue;
    children[it->second].emplace_back(span.start_ns, span.end_ns);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t duration = spans[i].end_ns - spans[i].start_ns;
    self[i] = duration - CoveredNs(std::move(children[i]), spans[i].start_ns,
                                   spans[i].end_ns);
  }
  return self;
}

}  // namespace perfbench
