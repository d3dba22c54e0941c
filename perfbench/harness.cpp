#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const auto index = static_cast<std::size_t>(q * static_cast<double>(values.size()));
  return values[std::min(index, values.size() - 1)];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// -- Spans ---------------------------------------------------------------

namespace {

std::atomic<bool> g_recording{false};
std::atomic<std::uint64_t> g_next_id{1};

// Every thread appends to its own buffer; the registry owns the buffers so
// spans outlive pool threads and drain_spans can reach them all.
std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<std::vector<Span>>> g_buffers;

struct ThreadBuffer {
  std::vector<Span>* spans;
  std::uint32_t thread;
};

ThreadBuffer& thread_buffer() {
  thread_local ThreadBuffer buffer = [] {
    const std::lock_guard<std::mutex> lock(g_buffers_mutex);
    g_buffers.push_back(std::make_unique<std::vector<Span>>());
    return ThreadBuffer{g_buffers.back().get(), static_cast<std::uint32_t>(g_buffers.size())};
  }();
  return buffer;
}

thread_local std::uint64_t t_current_span = 0;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

void set_span_recording(bool on) { g_recording.store(on, std::memory_order_relaxed); }

std::vector<Span> drain_spans() {
  const std::lock_guard<std::mutex> lock(g_buffers_mutex);
  std::vector<Span> all;
  for (const auto& buffer : g_buffers) {
    all.insert(all.end(), buffer->begin(), buffer->end());
    buffer->clear();
  }
  return all;
}

std::uint64_t current_span() { return t_current_span; }

ScopedSpan::ScopedSpan(const char* name) : ScopedSpan(name, t_current_span) {}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t parent) : name_(name) {
  if (!g_recording.load(std::memory_order_relaxed)) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = parent;
  saved_current_ = t_current_span;
  t_current_span = id_;
  start_ns_ = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (id_ == 0) return;
  const std::int64_t end = now_ns();
  t_current_span = saved_current_;
  ThreadBuffer& buffer = thread_buffer();
  buffer.spans->push_back(Span{name_, buffer.thread, id_, parent_, start_ns_, end});
}

Attribution attribute(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& span : spans)
    if (span.parent != 0) children[span.parent].push_back(&span);

  Attribution out;
  for (const Span& span : spans) {
    // Union of the child intervals, clipped to the span: children run in
    // parallel on pool threads, so they can overlap one another.
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
    if (const auto it = children.find(span.id); it != children.end())
      for (const Span* child : it->second)
        intervals.emplace_back(std::max(child->start_ns, span.start_ns),
                               std::min(child->end_ns, span.end_ns));
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t reach = span.start_ns;
    for (const auto& [start, end] : intervals) {
      const std::int64_t from = std::max(start, reach);
      if (end > from) {
        covered += end - from;
        reach = end;
      }
    }
    const double self = static_cast<double>(span.end_ns - span.start_ns - covered) * 1e-9;
    out.self_s[span.name] += self;
    if (span.parent == 0) out.remainder_s += self;
  }
  return out;
}

bool write_spans_json(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& span : spans) origin = std::min(origin, span.start_ns);
  out << "[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu}}",
                  i == 0 ? "" : ",", span.name, static_cast<unsigned long long>(span.thread),
                  static_cast<double>(span.start_ns - origin) * 1e-3,
                  static_cast<double>(span.end_ns - span.start_ns) * 1e-3,
                  static_cast<unsigned long long>(span.id),
                  static_cast<unsigned long long>(span.parent));
    out << line;
  }
  out << "\n]\n";
  out.flush();
  return out.good();
}

// -- Backend decorator ---------------------------------------------------

TimedBackend::TimedBackend(rispp::ExecutionBackend& inner, const char* entry_layer,
                           const char* replay_layer, std::chrono::nanoseconds entry_delay)
    : inner_(inner),
      entry_layer_(entry_layer),
      replay_layer_(replay_layer),
      entry_delay_(entry_delay) {}

void TimedBackend::on_hot_spot_entry(const rispp::WorkloadTrace& trace,
                                     std::size_t instance, rispp::Cycles now) {
  const ScopedSpan span(entry_layer_);
  if (entry_delay_.count() > 0) {
    const auto until = Clock::now() + entry_delay_;
    while (Clock::now() < until) {
    }
  }
  inner_.on_hot_spot_entry(trace, instance, now);
}

rispp::Cycles TimedBackend::si_execution_latency(rispp::SiId si, rispp::Cycles now) {
  const ScopedSpan span(replay_layer_);
  return inner_.si_execution_latency(si, now);
}

rispp::Cycles TimedBackend::si_execution_run_latency(
    rispp::SiId si, std::uint64_t count, rispp::Cycles now,
    rispp::Cycles per_execution_overhead, std::vector<rispp::LatencySegment>& segments) {
  const ScopedSpan span(replay_layer_);
  return inner_.si_execution_run_latency(si, count, now, per_execution_overhead, segments);
}

rispp::Cycles TimedBackend::si_execution_span(std::span<const rispp::SiRun> runs,
                                              rispp::Cycles now,
                                              rispp::Cycles per_execution_overhead) {
  const ScopedSpan span(replay_layer_);
  return inner_.si_execution_span(runs, now, per_execution_overhead);
}

// -- Registry deltas -------------------------------------------------------

RegistrySnapshot RegistrySnapshot::take() {
  RegistrySnapshot snap;
  for (auto& [name, value] : rispp::metrics_counter_snapshot()) snap.counters[name] = value;
  for (auto& [name, hist] : rispp::metrics_histogram_snapshot())
    snap.histograms[name] = std::move(hist);
  return snap;
}

std::uint64_t RegistryDelta::counter(std::string_view name) const {
  const auto after_it = after.counters.find(std::string(name));
  if (after_it == after.counters.end()) return 0;
  const auto before_it = before.counters.find(std::string(name));
  return after_it->second - (before_it == before.counters.end() ? 0 : before_it->second);
}

std::uint64_t RegistryDelta::counter_sum(std::string_view prefix,
                                         std::string_view suffix) const {
  std::uint64_t total = 0;
  for (const auto& [name, value] : after.counters)
    if (name.size() >= prefix.size() + suffix.size() && name.starts_with(prefix) &&
        name.ends_with(suffix))
      total += counter(name);
  return total;
}

rispp::HistogramSnapshot RegistryDelta::histogram(std::string_view name) const {
  rispp::HistogramSnapshot out;
  for (const auto& [series, hist] : after.histograms) {
    if (!series.starts_with(name)) continue;
    if (series.size() != name.size() && series[name.size()] != '{') continue;
    std::map<std::uint64_t, std::uint64_t> buckets;
    for (const auto& [upper, count] : hist.buckets) buckets[upper] += count;
    std::uint64_t count = hist.count;
    std::uint64_t sum = hist.sum;
    if (const auto it = before.histograms.find(series); it != before.histograms.end()) {
      for (const auto& [upper, n] : it->second.buckets) buckets[upper] -= n;
      count -= it->second.count;
      sum -= it->second.sum;
    }
    rispp::HistogramSnapshot delta;
    delta.count = count;
    delta.sum = sum;
    delta.max = hist.max;  // p() clamps to max; the lifetime max bounds the window's
    for (const auto& [upper, n] : buckets)
      if (n != 0) delta.buckets.emplace_back(upper, n);
    if (delta.count != 0) out.merge(delta);
  }
  return out;
}

// -- Result ----------------------------------------------------------------

bool Report::check(bool ok, std::string_view what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "CHECK FAILED: %.*s\n", static_cast<int>(what.size()), what.data());
  }
  return ok;
}

void Report::line(const std::string& name, double value, const std::string& unit,
                  const std::string& note) {
  std::printf("  %-40s %16.6g %-8s %s\n", name.c_str(), value, unit.c_str(), note.c_str());
}

bool same_result(const rispp::SimResult& a, const rispp::SimResult& b) {
  return a.total_cycles == b.total_cycles && a.si_executions == b.si_executions &&
         a.atom_loads == b.atom_loads && a.hot_spot_cycles == b.hot_spot_cycles;
}

}  // namespace perfbench
