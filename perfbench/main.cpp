// rispp_perfbench — the repository benchmark's binary (see README.md).
//
//   rispp_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   --work-dir <empty dir> [--entry-delay-us <n>]
//
// Times the workload's cold set-up several times, then repeats closed-loop
// passes for --seconds (after one warm-up pass) and checks every output
// outside the timed regions. With --trace 1 it alternates untraced and
// traced passes, attributes the traced passes' wall time to layers from the
// benchmark's own spans and reports the tracing overhead. The last stdout
// line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "base/parallel.h"
#include "workload.h"

namespace perfbench {

void fresh_trace_dir(const std::filesystem::path& root, const std::string& name) {
  const std::filesystem::path dir = root / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ::setenv("RISPP_TRACE_DIR", dir.c_str(), 1);
}

namespace {

// Timed passes each run makes at least, on either side of --trace 1.
constexpr int kMinPasses = 3;
// Worker threads (including the caller) every workload runs with, fewer on
// a host with fewer CPUs.
constexpr unsigned kMaxThreads = 4;

struct Declared {
  const char* name;
  const char* unit;
};

// The metric sets BENCHMARK.json declares; run.py checks the JSON line
// against that file.
constexpr Declared kEndToEnd[] = {
    {"setup_s", "s"},         {"work_per_s", "1/s"},           {"peak_rss_mb", "MB"},
    {"sim_speedup", "x"},     {"sim_p99_mcycles", "Mcycles"},
};

constexpr Declared kPerLayer[] = {
    {"trace_gen_s", "s"},
    {"pass_s", "s"},
    {"tracing.remainder_s", "s"},
    {"tracing.overhead_frac", "frac"},
    {"share.rtm.entry", "frac"},
    {"share.sim.replay", "frac"},
    {"share.baselines", "frac"},
    {"share.sim.trace_load", "frac"},
    {"rtm.decisions", "count"},
    {"rtm.decision_hit_ratio", "frac"},
    {"rtm.decision_ns.mean", "ns"},
    {"rtm.forecast_mispredicts", "count"},
    {"sched.invocations", "count"},
    {"sched.candidates_evaluated", "count"},
    {"hw.atom_loads", "count"},
    {"sim.si_exec_per_s", "1/s"},
    {"fleet.shared_hit_ratio", "frac"},
    {"fleet.cross_session_hit_ratio", "frac"},
    {"fleet.shared_evictions", "count"},
    {"rtm.cosim.epochs", "count"},
    {"rtm.cosim.fast_forward_instances", "count"},
    {"rtm.cosim.horizon_recomputes", "count"},
    {"rtm.arbiter.grants", "count"},
    {"rtm.arbiter.evictions", "count"},
    {"rtm.arbiter.port_wait_mcycles", "Mcycles"},
    {"rtm.arbiter.port_wait_cycles.p99", "cycles"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path work_dir;
  long entry_delay_us = 0;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "rispp_perfbench: %s\n"
               "usage: rispp_perfbench --workload paper-h264|fleet-mixed|fleet-contended|"
               "dse-search\n"
               "                       --seed N --seconds S --trace 0|1 --work-dir DIR\n"
               "                       [--entry-delay-us N]\n",
               why);
  std::exit(2);
}

unsigned long long parse_number(const char* flag, const char* text, unsigned long long max) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-' || value > max) {
    std::fprintf(stderr, "rispp_perfbench: %s=%s is not an integer in [0, %llu]\n", flag, text,
                 max);
    std::exit(2);
  }
  return value;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload")
      args.workload = value;
    else if (flag == "--seed")
      args.seed = parse_number("--seed", value, ~0ULL >> 1);
    else if (flag == "--seconds")
      args.seconds = static_cast<double>(parse_number("--seconds", value, 3600));
    else if (flag == "--trace")
      args.trace = parse_number("--trace", value, 1) == 1;
    else if (flag == "--work-dir")
      args.work_dir = value;
    else if (flag == "--entry-delay-us")
      args.entry_delay_us = static_cast<long>(parse_number("--entry-delay-us", value, 1000000));
    else
      usage(("unknown flag " + flag).c_str());
  }
  if (args.workload.empty()) usage("--workload is required");
  if (args.work_dir.empty()) usage("--work-dir is required");
  if (args.seconds < 1) usage("--seconds must be at least 1");
  return args;
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// Per-layer counts of one pass, from the registry delta around it.
void report_registry(const RegistryDelta& d, bool shared_decisions, Report& report) {
  const char* decision_tag = shared_decisions ? "[inexact: shared-cache interleaving]" : "[exact]";
  const auto count = [&](const char* name, std::uint64_t value, const char* tag) {
    report.metric(name, static_cast<double>(value));
    Report::line(name, static_cast<double>(value), "count", tag);
  };
  const auto frac = [&](const char* name, std::uint64_t num, std::uint64_t den,
                        const char* tag) {
    report.metric(name, ratio(static_cast<double>(num), static_cast<double>(den)));
    Report::line(name, ratio(static_cast<double>(num), static_cast<double>(den)), "frac",
                 std::to_string(num) + " / " + std::to_string(den) + " " + tag);
  };

  const std::uint64_t hits = d.counter("rtm.decision_cache.hits");
  const std::uint64_t lookups = hits + d.counter("rtm.decision_cache.misses");
  count("rtm.decisions", lookups, "[exact]");
  frac("rtm.decision_hit_ratio", hits, lookups, decision_tag);
  // The quantiles are histogram bucket bounds (1/32 apart), so from run to
  // run they often read the same value; the mean is exact and goes to JSON.
  const rispp::HistogramSnapshot decision_ns = d.histogram("rtm.decision_latency_ns");
  const double mean_ns = ratio(static_cast<double>(decision_ns.sum),
                               static_cast<double>(decision_ns.count));
  report.metric("rtm.decision_ns.mean", mean_ns);
  Report::line("rtm.decision_ns.mean", mean_ns, "ns",
               std::to_string(decision_ns.count) + " decisions computed");
  Report::line("rtm.decision_ns.p50", static_cast<double>(decision_ns.p(0.5)), "ns");
  Report::line("rtm.decision_ns.p99", static_cast<double>(decision_ns.p(0.99)), "ns");
  count("rtm.forecast_mispredicts", d.counter("rtm.forecast.mispredicts"), "[exact]");
  count("sched.invocations", d.counter_sum("sched.", ".invocations"), decision_tag);
  count("sched.candidates_evaluated", d.counter_sum("sched.", ".candidates_evaluated"),
        decision_tag);

  const std::uint64_t shared_hits = d.counter("fleet.decision_cache.hits");
  const std::uint64_t shared_lookups = shared_hits + d.counter("fleet.decision_cache.misses");
  frac("fleet.shared_hit_ratio", shared_hits, shared_lookups, "[inexact]");
  frac("fleet.cross_session_hit_ratio", d.counter("fleet.decision_cache.cross_session_hits"),
       shared_lookups, "[inexact]");
  count("fleet.shared_evictions", d.counter("fleet.decision_cache.evictions"), "[inexact]");

  count("rtm.cosim.epochs", d.counter("rtm.cosim.epochs"), "[exact]");
  count("rtm.cosim.fast_forward_instances", d.counter("rtm.cosim.fast_forward_instances"),
        "[exact]");
  count("rtm.cosim.horizon_recomputes", d.counter("rtm.cosim.horizon_recomputes"), "[exact]");
  count("rtm.arbiter.grants", d.counter("rtm.arbiter.grants"), "[exact, simulated]");
  count("rtm.arbiter.evictions", d.counter("rtm.arbiter.evictions"), "[exact, simulated]");
  const double wait_mcycles = static_cast<double>(d.counter("rtm.arbiter.port_wait_cycles")) / 1e6;
  report.metric("rtm.arbiter.port_wait_mcycles", wait_mcycles);
  Report::line("rtm.arbiter.port_wait_mcycles", wait_mcycles, "Mcycles", "[exact, simulated]");
  const rispp::HistogramSnapshot wait = d.histogram("rtm.arbiter.port_wait_cycles");
  report.metric("rtm.arbiter.port_wait_cycles.p99", static_cast<double>(wait.p(0.99)));
  Report::line("rtm.arbiter.port_wait_cycles.p99", static_cast<double>(wait.p(0.99)), "cycles",
               std::to_string(wait.count) + " waits [simulated]");

  // Only dse-search, which BENCHMARK.json does not list (README.md), enters
  // the dse layers; they are report lines, not JSON metrics.
  const rispp::HistogramSnapshot eval_ns = d.histogram("dse.candidate_eval_ns");
  if (eval_ns.count != 0) {
    frac("dse.eval_cache_hit_ratio", d.counter("dse.eval_cache.hits"),
         d.counter("dse.eval_cache.hits") + d.counter("dse.eval_cache.misses"), "[exact]");
    frac("dpg.makespan_memo_hit_ratio", d.counter("dse.makespan_memo.hits"),
         d.counter("dse.makespan_memo.hits") + d.counter("dse.makespan_memo.misses"),
         "[inexact: parallel candidate builds]");
    Report::line("dse.candidate_eval_ns.p50", static_cast<double>(eval_ns.p(0.5)), "ns",
                 std::to_string(eval_ns.count) + " evaluations");
    Report::line("dse.candidate_eval_ns.p99", static_cast<double>(eval_ns.p(0.99)), "ns");
  }
}

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

int run(const Args& args) {
  std::error_code ec;
  if (!std::filesystem::is_directory(args.work_dir, ec) ||
      !std::filesystem::is_empty(args.work_dir, ec))
    usage("--work-dir must name an existing empty directory");

  WorkloadOptions options;
  options.seed = args.seed;
  options.work_dir = args.work_dir;
  options.entry_delay = std::chrono::microseconds(args.entry_delay_us);

  std::unique_ptr<Workload> workload;
  if (args.workload == "paper-h264")
    workload = make_paper_h264(options);
  else if (args.workload == "fleet-mixed")
    workload = make_fleet_mixed(options);
  else if (args.workload == "fleet-contended")
    workload = make_fleet_contended(options);
  else if (args.workload == "dse-search")
    workload = make_dse_search(options);
  else
    usage(("unknown workload " + args.workload).c_str());

  // The global pool sizes itself from RISPP_THREADS on first use.
  const unsigned threads = std::clamp(std::thread::hardware_concurrency(), 1u, kMaxThreads);
  ::setenv("RISPP_THREADS", std::to_string(threads).c_str(), 1);
  std::printf("workload %s, seed %llu, %u threads, %.0f s, trace %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), rispp::parallel_thread_count(),
              args.seconds, args.trace ? 1 : 0);

  Report report;
  std::vector<double> setup_s;
  for (int rep = 0; rep < workload->setup_reps(); ++rep)
    setup_s.push_back(workload->setup(rep, report));

  // Warm-up pass: fills first-pass results and gives the per-pass registry
  // delta; its wall time is not a sample.
  RegistryDelta delta;
  delta.before = RegistrySnapshot::take();
  {
    const ScopedSpan root("pass");
    workload->pass(false);
  }
  delta.after = RegistrySnapshot::take();
  workload->verify_pass(report);

  std::vector<double> untraced_s, traced_s, rates;
  Attribution layers;
  std::vector<Span> last_spans;
  const auto deadline = Clock::now() + std::chrono::duration<double>(args.seconds);
  for (int index = 0;; ++index) {
    const bool traced = args.trace && index % 2 == 1;
    const bool enough = static_cast<int>(untraced_s.size()) >= kMinPasses &&
                        (!args.trace || static_cast<int>(traced_s.size()) >= kMinPasses);
    if (enough && Clock::now() >= deadline) break;
    set_span_recording(traced);
    double items = 0.0;
    const auto start = Clock::now();
    {
      const ScopedSpan root("pass");
      items = workload->pass(traced);
    }
    const double wall = seconds_since(start);
    set_span_recording(false);
    if (traced) {
      traced_s.push_back(wall);
      last_spans = drain_spans();
      const Attribution pass_layers = attribute(last_spans);
      for (const auto& [name, self] : pass_layers.self_s) layers.self_s[name] += self;
      layers.remainder_s += pass_layers.remainder_s;
    } else {
      untraced_s.push_back(wall);
      rates.push_back(items / wall);
    }
    workload->verify_pass(report);
  }
  const Summary summary = workload->finish(report);

  // -- End-to-end ----------------------------------------------------------
  std::printf("end to end (%zu timed passes, median):\n", untraced_s.size());
  const double work_per_s = median(rates);
  report.metric("setup_s", median(setup_s));
  report.metric("work_per_s", work_per_s);
  report.metric("peak_rss_mb", peak_rss_mb());
  report.metric("sim_speedup", summary.sim_speedup);
  report.metric("sim_p99_mcycles", summary.sim_p99_mcycles);
  for (const auto& [name, unit] : kEndToEnd) Report::line(name, report.metrics().at(name), unit);
  Report::line(summary.throughput_name, work_per_s * (summary.per_minute ? 60.0 : 1.0),
               summary.per_minute ? "1/min" : "1/s",
               "= work_per_s in the workload's own unit");

  // -- Per layer -----------------------------------------------------------
  std::printf("per layer (counts: the warm-up pass):\n");
  const double pass_s = median(untraced_s);
  report.metric("trace_gen_s", summary.trace_gen_s);
  Report::line("trace_gen_s", summary.trace_gen_s, "s", "one cold set-up's generation");
  report.metric("pass_s", pass_s);
  Report::line("pass_s", pass_s, "s");
  report.metric("sim.si_exec_per_s", summary.si_executions_per_pass / pass_s);
  Report::line("sim.si_exec_per_s", summary.si_executions_per_pass / pass_s, "1/s",
               "simulated SI executions per host second of a pass");
  report.metric("hw.atom_loads", summary.atom_loads_per_pass);
  Report::line("hw.atom_loads", summary.atom_loads_per_pass, "count",
               "completed atom loads of the pass's replays [exact, simulated]");
  report_registry(delta, summary.decisions_shared, report);

  if (args.trace) {
    const double passes = static_cast<double>(traced_s.size());
    double busy = 0.0;
    for (const auto& [name, self] : layers.self_s) busy += self;
    std::printf("traced passes: %zu; self time per pass (thread-seconds):\n", traced_s.size());
    for (const auto& [name, self] : layers.self_s)
      if (name != "pass")
        Report::line(name + "_s", self / passes, "s", "share " + std::to_string(ratio(self, busy)));
    const auto share = [&](const char* metric, std::initializer_list<const char*> names) {
      double self = 0.0;
      for (const char* name : names)
        if (const auto it = layers.self_s.find(name); it != layers.self_s.end())
          self += it->second;
      report.metric(metric, ratio(self, busy));
    };
    share("share.rtm.entry", {"rtm.entry"});
    share("share.sim.replay", {"sim.replay"});
    share("share.baselines", {"baselines.entry", "baselines.replay"});
    share("share.sim.trace_load", {"sim.trace_load"});
    report.metric("tracing.remainder_s", layers.remainder_s / passes);
    Report::line("tracing.remainder_s", layers.remainder_s / passes, "s",
                 "pass wall time under no layer span (unattributed)");
    const double overhead = median(traced_s) / median(untraced_s) - 1.0;
    report.metric("tracing.overhead_frac", overhead);
    Report::line("tracing.overhead_frac", overhead, "frac",
                 "median traced pass / median untraced pass - 1");
    const std::filesystem::path spans_path =
        args.work_dir.parent_path() / ("spans-" + args.workload + ".json");
    if (!write_spans_json(last_spans, spans_path.string()))
      std::fprintf(stderr, "rispp_perfbench: cannot write %s\n", spans_path.c_str());
  }

  // -- JSON ----------------------------------------------------------------
  std::string metrics;
  const std::span<const Declared> declared =
      args.trace ? std::span<const Declared>(kPerLayer) : std::span<const Declared>(kEndToEnd);
  for (const auto& [name, unit] : declared) {
    const auto it = report.metrics().find(name);
    // A layer the workload never entered recorded nothing: its counts are 0.
    const double value = it != report.metrics().end() ? it->second : 0.0;
    report.check(std::isfinite(value), std::string("metric ") + name + " is finite");
    metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + name + "\": {\"value\": " +
               json_number(std::isfinite(value) ? value : 0.0) + ", \"unit\": \"" + unit +
               "\"}";
  }
  Report::line("failed_frac", ratio(static_cast<double>(report.failed()),
                                    static_cast<double>(report.attempted())),
               "frac", std::to_string(report.failed()) + " of " +
                           std::to_string(report.attempted()) + " checked operations");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              report.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  return perfbench::run(args);
}
