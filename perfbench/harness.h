// Measurement harness of the repository benchmark.
//
// Everything here observes the simulator from outside: wall-clock timers and
// in-memory spans around calls into the libraries' public functions, a
// forwarding ExecutionBackend decorator that times the RTM's entry and
// replay calls, and deltas of the process-wide metrics registry taken around
// a measured region. No library code is instrumented for the benchmark.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "base/metrics.h"
#include "sim/executor.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);

/// Median of a non-empty sample (mean of the middle pair for even sizes).
double median(std::vector<double> values);

/// Element floor(q * N) of the sorted sample, clamped to the last — the rule
/// the repository's fleet reports use for p50/p99.
double quantile(std::vector<double> values, double q);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

// -- Spans ---------------------------------------------------------------

/// One recorded span: a named interval on the steady clock with the span
/// that caused it (0 = a root). Ids are unique across threads.
struct Span {
  const char* name = nullptr;
  std::uint32_t thread = 0;  // recording thread, numbered in first-use order
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Turns span recording on or off for every thread. Spans opened while
/// recording is off cost one relaxed load and are not kept.
void set_span_recording(bool on);

/// Moves every span recorded so far, from all threads, out of the recorder.
/// Call only while no other thread records (between passes).
std::vector<Span> drain_spans();

/// Id of the calling thread's innermost open span (0 = none or not recording).
std::uint64_t current_span();

/// RAII span. The one-argument form nests under the calling thread's
/// innermost open span; the two-argument form names its parent explicitly
/// (work fanned out to pool threads nests under the span that fanned it).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ScopedSpan(const char* name, std::uint64_t parent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// 0 while recording is off.
  std::uint64_t id() const { return id_; }

 private:
  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t saved_current_ = 0;
  std::int64_t start_ns_ = 0;
};

/// Per-layer attribution of a set of spans. A span's self time is its
/// duration minus the union of its children's intervals; layer self times
/// sum the self time of every span with that name. The root spans' self
/// time is the unattributed remainder.
struct Attribution {
  std::map<std::string, double> self_s;
  double remainder_s = 0.0;  // summed root-span self time
};
Attribution attribute(const std::vector<Span>& spans);

/// Writes spans as a Chrome trace-event JSON array (viewable in Perfetto).
/// Returns false on I/O failure.
bool write_spans_json(const std::vector<Span>& spans, const std::string& path);

// -- Backend decorator ---------------------------------------------------

/// Forwarding ExecutionBackend that opens an `entry_layer` span around
/// on_hot_spot_entry and a `replay_layer` span around every si_execution_*
/// call of the wrapped backend. `entry_delay` adds a busy-wait inside the
/// entry span — the attribution self-test uses it to prove an injected cost
/// is charged to the entry layer and to no other.
class TimedBackend final : public rispp::ExecutionBackend {
 public:
  TimedBackend(rispp::ExecutionBackend& inner, const char* entry_layer,
               const char* replay_layer, std::chrono::nanoseconds entry_delay);

  std::string_view name() const override { return inner_.name(); }
  void on_hot_spot_entry(const rispp::WorkloadTrace& trace, std::size_t instance,
                         rispp::Cycles now) override;
  void on_hot_spot_exit(rispp::Cycles now) override { inner_.on_hot_spot_exit(now); }
  rispp::Cycles si_execution_latency(rispp::SiId si, rispp::Cycles now) override;
  rispp::Cycles si_execution_run_latency(rispp::SiId si, std::uint64_t count,
                                         rispp::Cycles now,
                                         rispp::Cycles per_execution_overhead,
                                         std::vector<rispp::LatencySegment>& segments) override;
  rispp::Cycles si_execution_span(std::span<const rispp::SiRun> runs, rispp::Cycles now,
                                  rispp::Cycles per_execution_overhead) override;
  std::uint64_t completed_loads() const override { return inner_.completed_loads(); }

 private:
  rispp::ExecutionBackend& inner_;
  const char* entry_layer_;
  const char* replay_layer_;
  std::chrono::nanoseconds entry_delay_;
};

// -- Registry deltas -------------------------------------------------------

/// Counters and histograms of the metrics registry at one instant.
struct RegistrySnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, rispp::HistogramSnapshot> histograms;
  static RegistrySnapshot take();
};

/// What the registry recorded between two snapshots.
struct RegistryDelta {
  RegistrySnapshot before;
  RegistrySnapshot after;

  std::uint64_t counter(std::string_view name) const;
  /// Sum of every counter whose name starts with `prefix` and ends with
  /// `suffix` (e.g. the four sched.<strategy>.invocations counters).
  std::uint64_t counter_sum(std::string_view prefix, std::string_view suffix) const;
  /// Samples a histogram received in between, merged over every labeled
  /// series of `name` ("name" and "name{key=value}").
  rispp::HistogramSnapshot histogram(std::string_view name) const;
};

// -- Result ----------------------------------------------------------------

/// The run's outcome: checked operations and named metrics. Human-readable
/// lines go to stdout as they are produced; main prints the JSON last.
class Report {
 public:
  /// Counts one checked operation; a failed one is also counted as failed
  /// and described on stderr.
  bool check(bool ok, std::string_view what);

  /// Records a metric for the JSON line (main declares names and units).
  void metric(const std::string& name, double value) { metrics_[name] = value; }

  /// Prints "<name> = <value> <unit>  <note>" to stdout.
  static void line(const std::string& name, double value, const std::string& unit,
                   const std::string& note = "");

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::map<std::string, double>& metrics() const { return metrics_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, double> metrics_;
};

/// Field-by-field SimResult equality (every value the replay produces).
bool same_result(const rispp::SimResult& a, const rispp::SimResult& b);

}  // namespace perfbench
