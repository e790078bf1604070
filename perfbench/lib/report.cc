#include "lib/report.h"

#include <cmath>
#include <cstdio>
#include <thread>

#include "methods/method.h"

namespace perfbench {

namespace {

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

std::string Number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

class JsonObject {
 public:
  JsonObject& Add(const std::string& key, const std::string& raw) {
    body_ += (body_.empty() ? "" : ", ") + Quote(key) + ": " + raw;
    return *this;
  }
  JsonObject& Str(const std::string& key, const std::string& value) {
    return Add(key, Quote(value));
  }
  JsonObject& Num(const std::string& key, double value) {
    return Add(key, Number(value));
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace

std::string RunHeaderJson(const WorkloadSpec& spec, const RunOptions& options,
                          const std::string& commit) {
  JsonObject workload;
  workload.Str("dataset", spec.dataset)
      .Num("scale", spec.scale)
      .Str("method", spec.method)
      .Str("direction", igq::QueryDirectionName(spec.direction))
      .Str("engine", spec.concurrent ? "ConcurrentQueryEngine" : "QueryEngine")
      .Num("cache_capacity", static_cast<double>(spec.cache_capacity))
      .Num("window_size", static_cast<double>(spec.window_size))
      .Num("cache_shards", static_cast<double>(spec.concurrent ? spec.cache_shards : 1))
      .Num("verify_threads", static_cast<double>(spec.verify_threads))
      .Str("queries", spec.direction == igq::QueryDirection::kSupergraph
                          ? "zipf over whole molecules"
                          : spec.query_dist)
      .Num("alpha", spec.alpha)
      .Num("pool_queries", static_cast<double>(spec.pool_queries))
      .Str("pool_walk", spec.direction == igq::QueryDirection::kSupergraph
                            ? "zipf sample"
                            : spec.resample ? "uniform resample" : "seeded order")
      .Num("reader_streams", static_cast<double>(spec.reader_streams))
      .Str("reader_loop", "closed")
      .Num("warmup_queries", static_cast<double>(spec.warmup_queries))
      .Num("counted_queries", static_cast<double>(spec.counted_queries))
      .Num("reader_think_us", static_cast<double>(spec.think_us))
      .Num("lead_in_s", spec.warmup_seconds)
      .Str("writer_loop", spec.writer_rate > 0 ? "open, beside readers"
                                               : "closed, after readers stop")
      .Num("writer_rate_per_s", spec.writer_rate)
      .Num("writer_mutations", static_cast<double>(spec.probe_mutations))
      .Str("sync_policy", spec.sync_policy)
      .Num("setup_repeats", static_cast<double>(spec.setup_repeats));
  JsonObject header;
  header.Str("workload", spec.name)
      .Str("commit", commit)
      .Str("compiler", PERFBENCH_COMPILER)
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Add("lto", PERFBENCH_LTO_ON ? "true" : "false")
      .Num("hardware_concurrency", std::thread::hardware_concurrency())
      .Num("seed", static_cast<double>(options.seed))
      .Num("seconds", options.seconds)
      .Add("trace", options.trace ? "true" : "false")
      .Add("parameters", workload.str());
  return header.str();
}

std::string ResultJson(const RunResult& result) {
  JsonObject metrics;
  for (const Metric& metric : result.metrics) {
    metrics.Add(metric.name,
                JsonObject().Num("value", metric.value).Str("unit", metric.unit).str());
  }
  return JsonObject()
      .Add("correct", result.correct ? "true" : "false")
      .Num("attempted", static_cast<double>(result.attempted))
      .Num("failed", static_cast<double>(result.failed))
      .Add("metrics", metrics.str())
      .str();
}

}  // namespace perfbench
