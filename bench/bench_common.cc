#include "bench/bench_common.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/timer.h"
#include "methods/registry.h"

namespace igq {
namespace bench {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      values_[arg] = "1";
    } else {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
}

double Flags::GetDouble(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : std::atof(it->second.c_str());
}

size_t Flags::GetSize(const std::string& key, size_t fallback) const {
  auto it = values_.find(key);
  return it == values_.end()
             ? fallback
             : static_cast<size_t>(std::atoll(it->second.c_str()));
}

std::string Flags::GetString(const std::string& key,
                             const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

bool Flags::Has(const std::string& key) const { return values_.count(key) > 0; }

RunResult RunWorkload(QueryEngine& engine,
                      const std::vector<WorkloadQuery>& workload,
                      size_t warmup) {
  RunResult result;
  for (size_t i = 0; i < workload.size(); ++i) {
    QueryStats stats;
    engine.Process(workload[i].graph, &stats);
    if (i < warmup) continue;
    ++result.queries;
    if (stats.shortcut == ShortcutKind::kExactHit) {
      ++result.exact_hits;
      result.exact_hit_micros += stats.total_micros;
    }
    result.iso_tests += stats.iso_tests;
    result.probe_iso_tests += stats.probe_iso_tests;
    result.baseline_tests += stats.candidates_initial;
    result.candidates += stats.candidates_final;
    result.answers += stats.answer_size;
    result.total_micros += stats.total_micros;
    result.filter_micros += stats.filter_micros;
    result.probe_micros += stats.probe_micros;
    result.verify_micros += stats.verify_micros;
    result.per_query.push_back({workload[i].size_edges, stats.iso_tests,
                                stats.total_micros,
                                stats.candidates_initial});
  }
  return result;
}

GraphDatabase BuildDataset(const std::string& name, double scale,
                           uint64_t seed) {
  Timer timer;
  GraphDatabase db = MakeDataset(name, scale, seed);
  const DatasetStats stats = ComputeDatasetStats(db);
  std::printf(
      "[dataset] %s: %zu graphs, %zu labels, avg nodes %.1f, avg edges %.1f, "
      "avg degree %.2f (generated in %.2fs)\n",
      name.c_str(), stats.num_graphs, stats.distinct_labels, stats.avg_nodes,
      stats.avg_edges, stats.avg_degree, timer.ElapsedSeconds());
  return db;
}

std::unique_ptr<Method> BuildMethod(const std::string& name,
                                    const GraphDatabase& db,
                                    QueryDirection direction) {
  std::unique_ptr<Method> method = MethodRegistry::Create(direction, name);
  if (method == nullptr) {
    std::fprintf(stderr, "unknown %s method '%s'\n",
                 QueryDirectionName(direction), name.c_str());
    std::exit(1);
  }
  Timer timer;
  method->Build(db);
  std::printf("[index] %s built in %.2fs (%.2f MB)\n", method->Name().c_str(),
              timer.ElapsedSeconds(),
              static_cast<double>(method->IndexMemoryBytes()) / (1024.0 * 1024.0));
  return method;
}

double Speedup(double baseline, double improved) {
  if (improved <= 0.0) return baseline > 0.0 ? 1e9 : 1.0;
  return baseline / improved;
}

namespace {

// True iff `value` is a plain JSON number (no leading +, no stray text).
bool IsJsonNumber(const std::string& value) {
  if (value.empty()) return false;
  char* end = nullptr;
  std::strtod(value.c_str(), &end);
  if (end != value.c_str() + value.size()) return false;
  const char first = value[0] == '-' && value.size() > 1 ? value[1] : value[0];
  return std::isdigit(static_cast<unsigned char>(first)) != 0;
}

void AppendJsonString(std::string* out, const std::string& value) {
  out->push_back('"');
  for (char c : value) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->push_back('"');
}

}  // namespace

BenchJson::BenchJson(const Flags& flags, const std::string& bench_name,
                     const std::string& default_file)
    : bench_name_(bench_name) {
  if (!flags.Has("json")) return;
  const std::string value = flags.GetString("json", "1");
  path_ = value == "1" ? default_file : value;
}

void BenchJson::AddRow(
    std::vector<std::pair<std::string, std::string>> fields) {
  if (enabled()) rows_.push_back(std::move(fields));
}

BenchJson::~BenchJson() {
  if (!enabled()) return;
  std::string out = "{\n  \"bench\": ";
  AppendJsonString(&out, bench_name_);
  out += ",\n  \"rows\": [\n";
  for (size_t r = 0; r < rows_.size(); ++r) {
    out += "    {";
    for (size_t f = 0; f < rows_[r].size(); ++f) {
      const auto& [key, value] = rows_[r][f];
      AppendJsonString(&out, key);
      out += ": ";
      if (IsJsonNumber(value)) {
        out += value;
      } else {
        AppendJsonString(&out, value);
      }
      if (f + 1 < rows_[r].size()) out += ", ";
    }
    out += r + 1 < rows_.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  std::ofstream file(path_, std::ios::trunc);
  file << out;
  file.flush();
  if (!file.good()) {
    std::fprintf(stderr, "[json] FAILED to write %s\n", path_.c_str());
    return;
  }
  std::printf("[json] wrote %zu row(s) to %s\n", rows_.size(), path_.c_str());
}

void PrintHeader(const std::string& figure, const std::string& description) {
  std::printf("==============================================================\n");
  std::printf("%s\n%s\n", figure.c_str(), description.c_str());
  std::printf("==============================================================\n");
}

}  // namespace bench
}  // namespace igq
