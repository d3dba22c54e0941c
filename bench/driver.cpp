#include "bench/driver.h"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <string_view>
#include <system_error>

#include "base/check.h"
#include "base/json_mini.h"
#include "base/table.h"
#include "base/trace_event.h"

namespace rispp::bench {

bool glob_match(const std::string& pattern, const std::string& name) {
  // Classic two-pointer wildcard match with '*' backtracking.
  std::size_t p = 0, n = 0, star = std::string::npos, star_n = 0;
  while (n < name.size()) {
    if (p < pattern.size() && (pattern[p] == '?' || pattern[p] == name[n])) {
      ++p;
      ++n;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      star_n = n;
    } else if (star != std::string::npos) {
      p = star + 1;
      n = ++star_n;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

std::vector<std::filesystem::path> discover_reports(const std::filesystem::path& bench_dir) {
  std::vector<std::filesystem::path> reports;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(bench_dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name == "micro_ops") continue;  // google-benchmark micro suite, not a report
    if (::access(entry.path().c_str(), X_OK) != 0) continue;
    reports.push_back(entry.path());
  }
  std::sort(reports.begin(), reports.end());
  return reports;
}

namespace {

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Every record this driver reads (BENCH_<name>.json, METRICS.json,
// BENCH_SUITE.json) is one JSON object parsed by json_mini, which rejects
// malformed input, trailing garbage (a truncated write concatenated with an
// older record, a merge artifact, ...) and nesting beyond its depth limit.
// Lookups are by key, so a duplicated key — which could only mean a corrupted
// or hand-mangled record, and would make the lookup pick one occurrence
// silently — is a loud error (RISPP_CHECK throws) too.

using jsonmini::JsonValue;

/// Rejects an object that holds any key twice (json_mini keeps duplicates
/// visible in file order).
void check_unique_keys(const JsonValue& object, const std::string& context) {
  std::set<std::string_view> seen;
  for (const auto& [key, value] : object.object)
    RISPP_CHECK_MSG(seen.insert(key).second, context << ": duplicate key \"" << key << "\"");
}

/// Parses `text` as exactly one JSON object with unique top-level keys.
JsonValue parse_object(const std::string& text, const std::string& context) {
  JsonValue doc;
  std::string error;
  RISPP_CHECK_MSG(jsonmini::parse_document(text, doc, error), context << ": " << error);
  RISPP_CHECK_MSG(doc.kind == JsonValue::Kind::kObject, context << ": expected a JSON object");
  check_unique_keys(doc, context);
  return doc;
}

std::optional<double> find_number(const JsonValue& object, std::string_view key) {
  const JsonValue* value = object.find(key);
  if (value == nullptr || value->kind != JsonValue::Kind::kNumber) return std::nullopt;
  return value->number;
}

std::optional<std::string> find_string(const JsonValue& object, std::string_view key) {
  const JsonValue* value = object.find(key);
  if (value == nullptr || value->kind != JsonValue::Kind::kString) return std::nullopt;
  return value->string;
}

std::optional<PerfRecord> parse_perf_text(const std::string& text,
                                          const std::string& context) {
  const JsonValue doc = parse_object(text, context);
  const auto bench = find_string(doc, "bench");
  const auto wall = find_number(doc, "wall_seconds");
  if (!bench || !wall) return std::nullopt;
  PerfRecord record;
  record.bench = *bench;
  record.wall_seconds = *wall;
  record.cells = find_number(doc, "cells").value_or(0.0);
  record.cells_per_sec = find_number(doc, "cells_per_sec").value_or(0.0);
  record.threads = find_number(doc, "threads").value_or(0.0);
  record.frames = find_number(doc, "frames").value_or(0.0);
  return record;
}

/// Adds the `"name": number` pairs of one flat metrics object to `out`; a
/// name already in `out` is a duplicate metric.
void add_flat_metrics(const JsonValue& metrics, const std::string& context,
                      std::map<std::string, double>& out) {
  RISPP_CHECK_MSG(metrics.kind == JsonValue::Kind::kObject,
                  context << ": metrics section is not an object");
  for (const auto& [key, value] : metrics.object) {
    RISPP_CHECK_MSG(value.kind == JsonValue::Kind::kNumber,
                    context << ": metric " << key << " has no numeric value");
    RISPP_CHECK_MSG(out.emplace(key, value.number).second,
                    context << ": duplicate metric " << key);
  }
}

/// The "reports" array of a BENCH_SUITE.json (null when absent); each entry
/// must be an object with unique keys.
const JsonValue* suite_reports(const JsonValue& suite, const std::string& context) {
  const JsonValue* reports = suite.find("reports");
  if (reports == nullptr) return nullptr;
  RISPP_CHECK_MSG(reports->kind == JsonValue::Kind::kArray,
                  context << ": reports is not an array");
  for (const JsonValue& report : reports->array) {
    RISPP_CHECK_MSG(report.kind == JsonValue::Kind::kObject,
                    context << ": report entry is not an object");
    check_unique_keys(report, context);
  }
  return reports;
}

/// The single BENCH_*.json a child wrote into its private json dir, if any.
std::optional<PerfRecord> collect_child_record(const std::filesystem::path& json_dir) {
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(json_dir, ec)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().filename().string().rfind("BENCH_", 0) != 0) continue;
    if (auto record = parse_perf_record(entry.path())) return record;
  }
  return std::nullopt;
}

/// Counters are integers in disguise; print them without an exponent so the
/// suite record stays grep-friendly. Gauges keep full double precision.
void append_metric_number(std::ostream& out, double value) {
  if (value == std::floor(value) && std::abs(value) < 9.007199254740992e15) {
    out << static_cast<long long>(value);
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  out << buf;
}

}  // namespace

std::optional<PerfRecord> parse_perf_record(const std::filesystem::path& path) {
  return parse_perf_text(read_file(path), path.string());
}

std::map<std::string, double> parse_metrics_record(const std::filesystem::path& path) {
  std::map<std::string, double> metrics;
  const std::string text = read_file(path);
  if (text.empty()) return metrics;  // child wrote no snapshot: not an error
  const std::string context = path.string();
  const JsonValue doc = parse_object(text, context);
  for (const char* section : {"counters", "gauges"})
    if (const JsonValue* values = doc.find(section)) add_flat_metrics(*values, context, metrics);
  // Histogram series fold into the same flat map as
  // <name>.count/.sum/.min/.max/.p50/.p90/.p99 — the full bucket array stays
  // in the snapshot file (rispp_stats reads it); the suite record keeps the
  // summary shape a regression gate can diff.
  if (const JsonValue* histograms = doc.find("histograms")) {
    RISPP_CHECK_MSG(histograms->kind == JsonValue::Kind::kObject,
                    context << ": histograms is not an object");
    for (const auto& [name, histogram] : histograms->object) {
      RISPP_CHECK_MSG(histogram.kind == JsonValue::Kind::kObject,
                      context << ": histogram " << name << " is not an object");
      for (const char* field : {"count", "sum", "min", "max", "p50", "p90", "p99"}) {
        const auto value = find_number(histogram, field);
        RISPP_CHECK_MSG(value.has_value(),
                        context << ": histogram " << name << " lacks " << field);
        const std::string key = name + "." + field;
        RISPP_CHECK_MSG(metrics.emplace(key, *value).second,
                        context << ": duplicate metric " << key);
      }
    }
  }
  return metrics;
}

unsigned compute_child_threads(unsigned total_threads, unsigned jobs, std::size_t unfinished) {
  const std::size_t lanes =
      std::max<std::size_t>(1, std::min<std::size_t>(std::max(1u, jobs), unfinished));
  return std::max<unsigned>(1, std::max(1u, total_threads) / static_cast<unsigned>(lanes));
}

std::vector<ReportResult> run_reports(const std::vector<std::filesystem::path>& binaries,
                                      const DriverOptions& options, std::ostream& status) {
  using Clock = std::chrono::steady_clock;
  const std::filesystem::path log_dir = options.out_dir / "logs";
  const std::filesystem::path json_dir = options.out_dir / "json";
  std::filesystem::create_directories(log_dir);
  std::filesystem::create_directories(json_dir);
  if (!options.trace_dir.empty()) std::filesystem::create_directories(options.trace_dir);

  std::vector<ReportResult> results(binaries.size());
  std::vector<Clock::time_point> started(binaries.size());
  // Per-report trace rows (one lane each, so overlapping children never
  // share a row); traced_names doubles as the "was this report traced" flag.
  std::vector<TraceLane> lanes(binaries.size(), 0);
  std::vector<double> started_us(binaries.size(), 0.0);
  std::vector<const char*> traced_names(binaries.size(), nullptr);
  std::map<pid_t, std::size_t> running;
  std::size_t next = 0, done = 0;

  const auto launch = [&](std::size_t i) {
    // Work-stealing thread split: children launched after other reports
    // already finished inherit the finishers' share of the host's threads
    // instead of the static total/jobs division.
    const std::string threads = std::to_string(
        options.total_threads > 0
            ? compute_child_threads(options.total_threads, options.jobs, binaries.size() - done)
            : options.threads_per_child);
    ReportResult& r = results[i];
    r.binary = binaries[i];
    r.name = binaries[i].filename().string();
    r.log = log_dir / (r.name + ".log");
    const std::filesystem::path child_json = json_dir / r.name;
    std::filesystem::create_directories(child_json);
    const std::string metrics_path = (child_json / "METRICS.json").string();
    const std::string trace_path =
        options.trace_dir.empty()
            ? std::string()
            : (options.trace_dir / (r.name + ".trace.json")).string();

    if (trace_enabled()) {
      lanes[i] = trace_new_lane();
      traced_names[i] = trace_intern(r.name);
      trace_name_lane(TraceTrack::kBench, lanes[i], traced_names[i]);
      started_us[i] = trace_now_us();
    }
    const int fd = ::open(r.log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    RISPP_CHECK_MSG(fd >= 0, "cannot open log " << r.log.string());
    started[i] = Clock::now();
    const pid_t pid = ::fork();
    RISPP_CHECK_MSG(pid >= 0, "fork failed: " << std::strerror(errno));
    if (pid == 0) {
      // Child: own stdout/stderr, a private perf-record dir, and its share
      // of the host's threads so `jobs` children never oversubscribe it.
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
      ::setenv("RISPP_THREADS", threads.c_str(), 1);
      ::setenv("RISPP_BENCH_JSON_DIR", child_json.c_str(), 1);
      ::setenv("RISPP_METRICS", metrics_path.c_str(), 1);
      if (trace_path.empty())
        // A traced driver must not leak its own RISPP_TRACE into children:
        // every child would overwrite the parent's trace file at exit.
        ::unsetenv("RISPP_TRACE");
      else
        ::setenv("RISPP_TRACE", trace_path.c_str(), 1);
      ::execl(binaries[i].c_str(), binaries[i].c_str(), (char*)nullptr);
      std::fprintf(stderr, "exec %s: %s\n", binaries[i].c_str(), std::strerror(errno));
      ::_exit(127);
    }
    ::close(fd);
    running.emplace(pid, i);
  };

  while (next < binaries.size() || !running.empty()) {
    while (next < binaries.size() && running.size() < std::max(1u, options.jobs))
      launch(next++);
    int wstatus = 0;
    const pid_t pid = ::waitpid(-1, &wstatus, 0);
    if (pid < 0) {
      if (errno == EINTR) continue;
      RISPP_CHECK_MSG(false, "waitpid failed: " << std::strerror(errno));
    }
    const auto it = running.find(pid);
    if (it == running.end()) continue;  // not one of ours
    const std::size_t i = it->second;
    running.erase(it);
    ReportResult& r = results[i];
    r.wall_seconds = std::chrono::duration<double>(Clock::now() - started[i]).count();
    r.exit_code = WIFSIGNALED(wstatus) ? 128 + WTERMSIG(wstatus)
                                       : WEXITSTATUS(wstatus);
    r.perf = collect_child_record(json_dir / r.name);
    r.metrics = parse_metrics_record(json_dir / r.name / "METRICS.json");
    if (traced_names[i] != nullptr)
      trace_complete(TraceTrack::kBench, lanes[i], traced_names[i], started_us[i],
                     trace_now_us() - started_us[i]);
    ++done;
    char line[256];
    std::snprintf(line, sizeof line, "[%2zu/%zu] %-28s %8.2fs  %s", done, binaries.size(),
                  r.name.c_str(), r.wall_seconds,
                  r.exit_code == 0 ? "ok" : ("exit " + std::to_string(r.exit_code)).c_str());
    status << line << '\n' << std::flush;
  }
  return results;
}

std::string render_summary_table(const std::vector<ReportResult>& results) {
  TextTable table({"report", "wall [s]", "cells", "cells/s", "exit"});
  for (const ReportResult& r : results) {
    const double cells = r.perf ? r.perf->cells : 0.0;
    const double rate = r.perf ? r.perf->cells_per_sec : 0.0;
    table.add(r.name, format_fixed(r.wall_seconds, 2),
              cells > 0.0 ? format_fixed(cells, 0) : "-",
              rate > 0.0 ? format_fixed(rate, 1) : "-",
              r.exit_code == 0 ? "ok" : std::to_string(r.exit_code));
  }
  return table.render();
}

void write_suite(const std::vector<ReportResult>& results, int frames,
                 const DriverOptions& options, const std::filesystem::path& path) {
  std::ofstream out(path);
  out << "{\n"
      << "  \"frames\": " << frames << ",\n"
      << "  \"jobs\": " << options.jobs << ",\n"
      << "  \"threads_per_child\": " << options.threads_per_child << ",\n"
      << "  \"reports\": [";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ReportResult& r = results[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"name\": \"" << r.name
        << "\", \"exit_code\": " << r.exit_code << ", \"wall_seconds\": " << r.wall_seconds;
    if (r.perf)
      out << ", \"bench\": \"" << r.perf->bench << "\", \"cells\": " << r.perf->cells
          << ", \"cells_per_sec\": " << r.perf->cells_per_sec
          << ", \"threads\": " << r.perf->threads;
    if (!r.metrics.empty()) {
      out << ", \"metrics\": {";
      bool first = true;
      for (const auto& [key, value] : r.metrics) {
        out << (first ? "" : ", ") << "\"" << key << "\": ";
        append_metric_number(out, value);
        first = false;
      }
      out << "}";
    }
    out << "}";
  }
  out << "\n  ]\n}\n";
  out.flush();
  if (!out.good())
    std::fprintf(stderr, "[driver] failed to write suite record %s\n",
                 path.string().c_str());
}

std::map<std::string, PerfRecord> load_baseline(const std::filesystem::path& path) {
  std::map<std::string, PerfRecord> baseline;
  if (std::filesystem::is_directory(path)) {
    for (const auto& entry : std::filesystem::directory_iterator(path)) {
      if (!entry.is_regular_file()) continue;
      if (entry.path().filename().string().rfind("BENCH_", 0) != 0) continue;
      if (const auto record = parse_perf_record(entry.path()))
        baseline[record->bench] = *record;
    }
    return baseline;
  }
  // BENCH_SUITE.json: one object per report inside "reports": [...].
  const std::string text = read_file(path);
  // A missing/unreadable baseline stays an *empty* map — the CLI reports
  // that case with its own clean diagnostic; the strict checks below only
  // police content that was actually read.
  if (text.empty()) return baseline;
  const JsonValue suite = parse_object(text, path.string());
  const JsonValue* reports = suite_reports(suite, path.string());
  if (reports == nullptr) return baseline;
  for (const JsonValue& report : reports->array) {
    const auto name = find_string(report, "name");
    const auto wall = find_number(report, "wall_seconds");
    if (!name || !wall) continue;
    PerfRecord record;
    record.bench = find_string(report, "bench").value_or(*name);
    record.wall_seconds = *wall;
    record.cells = find_number(report, "cells").value_or(0.0);
    record.cells_per_sec = find_number(report, "cells_per_sec").value_or(0.0);
    baseline[*name] = record;
  }
  return baseline;
}

std::map<std::string, std::map<std::string, double>> load_baseline_metrics(
    const std::filesystem::path& path) {
  std::map<std::string, std::map<std::string, double>> baseline;
  const std::string text = read_file(path);
  if (text.empty()) return baseline;
  const JsonValue suite = parse_object(text, path.string());
  const JsonValue* reports = suite_reports(suite, path.string());
  if (reports == nullptr) return baseline;
  for (const JsonValue& report : reports->array) {
    const auto name = find_string(report, "name");
    const JsonValue* metrics = report.find("metrics");
    if (!name || metrics == nullptr) continue;
    std::map<std::string, double> flat;
    add_flat_metrics(*metrics, path.string(), flat);
    if (!flat.empty()) baseline[*name] = std::move(flat);
  }
  return baseline;
}

std::string render_metrics_diff(
    const std::vector<ReportResult>& results,
    const std::map<std::string, std::map<std::string, double>>& baseline,
    std::size_t top_per_report) {
  TextTable table({"report", "metric", "base", "now", "delta"});
  std::size_t rows = 0;
  for (const ReportResult& r : results) {
    const auto it = baseline.find(r.name);
    if (it == baseline.end() || r.metrics.empty()) continue;
    struct Row {
      const std::string* key;
      double base, now, magnitude;
    };
    std::vector<Row> rows_for_report;
    for (const auto& [key, now] : r.metrics) {
      const auto base_it = it->second.find(key);
      if (base_it == it->second.end()) continue;  // new metric: nothing to diff
      const double base = base_it->second;
      if (base == now) continue;
      // Rank by relative change; a metric appearing from zero ranks highest.
      const double magnitude =
          base != 0.0 ? std::abs(now / base - 1.0)
                      : std::numeric_limits<double>::infinity();
      rows_for_report.push_back({&key, base, now, magnitude});
    }
    std::stable_sort(rows_for_report.begin(), rows_for_report.end(),
                     [](const Row& a, const Row& b) { return a.magnitude > b.magnitude; });
    if (rows_for_report.size() > top_per_report) rows_for_report.resize(top_per_report);
    for (const Row& row : rows_for_report) {
      const std::string delta =
          row.base != 0.0 ? format_fixed((row.now / row.base - 1.0) * 100.0, 1) + "%"
                          : std::string("new");
      table.add(r.name, *row.key, format_fixed(row.base, 3), format_fixed(row.now, 3),
                delta);
      ++rows;
    }
  }
  if (rows == 0) return "(no overlapping metrics changed)\n";
  return table.render();
}

RegressionReport compare_against_baseline(const std::vector<ReportResult>& results,
                                          const std::map<std::string, PerfRecord>& baseline,
                                          double threshold) {
  // Wall-clock growth under 50 ms absolute is jitter, not regression: at the
  // CI 8-frame setting a whole report finishes in tens of milliseconds.
  constexpr double kWallSlackSeconds = 0.05;
  RegressionReport report;
  std::map<std::string, bool> seen;
  for (const ReportResult& r : results) {
    if (r.exit_code != 0) continue;  // failures already fail the run itself
    auto it = baseline.find(r.name);
    // A baseline built from a BENCH_<name>.json dir is keyed by the perf
    // record's internal bench name, not the binary name.
    if (it == baseline.end() && r.perf) it = baseline.find(r.perf->bench);
    if (it != baseline.end()) seen[it->first] = true;
    if (it == baseline.end()) continue;  // new report: never gates
    const PerfRecord& base = it->second;
    RegressionDelta delta;
    delta.name = r.name;
    delta.base_wall = base.wall_seconds;
    delta.wall = r.wall_seconds;
    delta.base_rate = base.cells_per_sec;
    delta.rate = r.perf ? r.perf->cells_per_sec : 0.0;
    const bool wall_regressed =
        delta.wall > delta.base_wall * (1.0 + threshold) &&
        delta.wall - delta.base_wall > kWallSlackSeconds;
    const bool rate_regressed = delta.base_rate > 0.0 && delta.rate > 0.0 &&
                                delta.rate * (1.0 + threshold) < delta.base_rate &&
                                (delta.base_rate - delta.rate) * delta.base_wall >
                                    kWallSlackSeconds * delta.base_rate;
    delta.regressed = wall_regressed || rate_regressed;
    report.failed = report.failed || delta.regressed;
    report.deltas.push_back(delta);
  }
  for (const auto& [name, record] : baseline)
    if (!seen.count(name)) report.missing.push_back(name);
  return report;
}

std::string render_regression_table(const RegressionReport& report) {
  TextTable table({"report", "base wall", "wall", "delta", "base c/s", "c/s", "verdict"});
  for (const RegressionDelta& d : report.deltas) {
    const double pct =
        d.base_wall > 0.0 ? (d.wall / d.base_wall - 1.0) * 100.0 : 0.0;
    table.add(d.name, format_fixed(d.base_wall, 3), format_fixed(d.wall, 3),
              format_fixed(pct, 1) + "%",
              d.base_rate > 0.0 ? format_fixed(d.base_rate, 1) : "-",
              d.rate > 0.0 ? format_fixed(d.rate, 1) : "-",
              d.regressed ? "REGRESSED" : "ok");
  }
  return table.render();
}

}  // namespace rispp::bench
