// fleet-mixed and fleet-contended: the fig7-like heterogeneous session mix
// (bench/common.cpp throughput_fleet_spec: h264=4,jpeg=1, 1..8 frames, all
// four schedulers, 5..20 ACs) scaled up so one pass is long enough to time.
//
// fleet-mixed runs it through fleet::run_fleet, where the sharded
// SharedDecisionCache answers almost every decision — replay and the session
// batch dominate. fleet-contended packs 8 tenants onto each device through
// fleet::run_contended_fleet — the FabricArbiter and the run_tenants
// co-simulation, with per-RTM decision memos that mostly miss.
#include <cstdio>
#include <map>

#include "base/prng.h"
#include "baselines/software_only.h"
#include "fleet/session_batch.h"
#include "fleet/spec.h"
#include "fleet/tenant_fleet.h"
#include "rtm/run_time_manager.h"
#include "sched/registry.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace rispp;

constexpr int kSessions = 16000;
// Sessions sampled for the solo replay check after timing.
constexpr std::size_t kSoloSample = 32;
// fleet-contended's device shape.
constexpr int kTenants = 8;
constexpr int kAcsPerTenant = 8;

fleet::FleetSpec mixed_spec(std::uint64_t seed) {
  fleet::FleetSpec spec;
  spec.sessions = kSessions;
  spec.frames_min = 1;
  spec.frames_max = 8;
  spec.schedulers = scheduler_names();
  spec.acs_min = 5;
  spec.acs_max = 20;
  spec.seed = seed + 1;  // seed 0 -> FleetSpec's default seed
  return spec;
}

/// Shared by both fleet workloads: the session list, the trace repository
/// set-up fills, and the simulated-result bookkeeping.
class FleetWorkload : public Workload {
 public:
  explicit FleetWorkload(const WorkloadOptions& options)
      : options_(options), sessions_(fleet::expand_fleet_spec(mixed_spec(options.seed))) {}

  int setup_reps() const override { return 5; }

  double setup(int rep, Report& report) override {
    fresh_trace_dir(options_.work_dir, "setup" + std::to_string(rep));
    repo_ = std::make_unique<fleet::TraceRepository>();
    const auto start = Clock::now();
    resolve();
    resolve_s_.push_back(seconds_since(start));
    std::uint64_t executions = 0;
    for (const fleet::SessionSpec& spec : sessions_)
      executions += repo_->get(spec).trace.total_si_executions();
    if (rep == 0)
      setup_executions_ = executions;
    else
      report.check(executions == setup_executions_,
                   "set-up repetitions generate identical traces");
    return resolve_s_.back();
  }

  void verify_pass(Report& report) override {
    if (first_.empty()) {
      first_ = results_;
      return;
    }
    for (std::size_t s = 0; s < sessions_.size(); ++s)
      report.check(same_result(results_[s], first_[s]),
                   "session " + std::to_string(s) + " repeats the first pass's result");
  }

 protected:
  /// Generates every distinct trace the sessions replay (timed as set-up).
  virtual void resolve() = 0;

  /// Summary of the first pass: Σ software-only cycles over Σ RISPP cycles,
  /// the p99 session Mcycles and the executions replayed.
  Summary summarize(std::string throughput_name) const {
    Summary summary;
    summary.throughput_name = std::move(throughput_name);
    summary.per_minute = true;
    summary.trace_gen_s = median(resolve_s_);
    if (first_.empty()) return summary;
    std::map<const fleet::TraceEntry*, Cycles> software;
    Cycles software_total = 0, rispp_total = 0;
    std::vector<double> mcycles;
    for (std::size_t s = 0; s < sessions_.size(); ++s) {
      const fleet::TraceEntry& entry = repo_->get(sessions_[s]);
      auto it = software.find(&entry);
      if (it == software.end()) {
        SoftwareOnlyBackend backend(&entry.set);
        it = software.emplace(&entry, run_trace(entry.trace, backend).total_cycles).first;
      }
      software_total += it->second;
      rispp_total += first_[s].total_cycles;
      mcycles.push_back(static_cast<double>(first_[s].total_cycles) / 1e6);
      summary.si_executions_per_pass += static_cast<double>(first_[s].si_executions);
      summary.atom_loads_per_pass += static_cast<double>(first_[s].atom_loads);
    }
    summary.sim_speedup =
        static_cast<double>(software_total) / static_cast<double>(rispp_total);
    summary.sim_p99_mcycles = quantile(mcycles, 0.99);
    return summary;
  }

  WorkloadOptions options_;
  std::vector<fleet::SessionSpec> sessions_;
  std::unique_ptr<fleet::TraceRepository> repo_;
  std::vector<SimResult> results_;
  std::vector<SimResult> first_;
  std::vector<double> resolve_s_;
  std::uint64_t setup_executions_ = 0;
};

class FleetMixed final : public FleetWorkload {
 public:
  explicit FleetMixed(const WorkloadOptions& options) : FleetWorkload(options) {}

  double pass(bool) override {
    cache_ = std::make_unique<fleet::SharedDecisionCache>();  // each pass starts cold
    fleet::FleetOptions options;
    options.shared_cache = cache_.get();
    options.traces = repo_.get();
    {
      const ScopedSpan span("fleet.resolve");
      const auto start = Clock::now();
      batch_ = std::make_unique<fleet::SessionBatch>(sessions_, options);
      pass_resolve_s_.push_back(seconds_since(start));
    }
    const ScopedSpan span("fleet.run");
    const auto start = Clock::now();
    fleet::run_fleet(*batch_);
    run_s_.push_back(seconds_since(start));
    return static_cast<double>(sessions_.size());
  }

  void verify_pass(Report& report) override {
    results_.resize(sessions_.size());
    for (std::size_t s = 0; s < sessions_.size(); ++s) results_[s] = batch_->result(s);
    FleetWorkload::verify_pass(report);
    batch_.reset();  // released outside the timed region
    cache_.reset();
  }

  Summary finish(Report& report) override {
    Summary summary = summarize("fleet_sessions_per_min");
    summary.decisions_shared = true;
    if (first_.empty()) return summary;
    // Solo replay of a seeded sample (rispp_fleet --solo): a fresh RTM
    // through run_trace must reproduce the batch's result exactly.
    Xoshiro256 rng(options_.seed);
    for (std::size_t k = 0; k < kSoloSample; ++k) {
      const std::size_t s = rng.bounded(sessions_.size());
      const fleet::SessionSpec& spec = sessions_[s];
      const fleet::TraceEntry& entry = repo_->get(spec);
      const auto scheduler = make_scheduler(spec.scheduler);
      RtmConfig config;
      config.container_count = spec.container_count;
      config.scheduler = scheduler.get();
      config.forecast_mode = spec.forecast_mode;
      RunTimeManager rtm(&entry.set, entry.trace.hot_spots.size(), config);
      for (HotSpotId hs = 0; hs < entry.seeds.size(); ++hs)
        for (SiId si = 0; si < entry.seeds[hs].size(); ++si)
          if (entry.seeds[hs][si] != 0) rtm.seed_forecast(hs, si, entry.seeds[hs][si]);
      report.check(same_result(run_trace(entry.trace, rtm), first_[s]),
                   "solo replay matches fleet session " + std::to_string(s));
    }
    std::printf("fleet-mixed: %zu sessions, %zu distinct traces\n", sessions_.size(),
                repo_->size());
    Report::line("fleet.resolve_s", median(resolve_s_), "s",
                 "SessionBatch constructor on an empty TraceRepository (set-up)");
    Report::line("fleet.resolve_warm_s", median(pass_resolve_s_), "s",
                 "SessionBatch constructor on the warm repository (per pass)");
    Report::line("fleet.run_s", median(run_s_), "s");
    Report::line("fleet_sim_speedup", summary.sim_speedup, "x",
                 "Σ software-only cycles / Σ RISPP cycles (simulated)");
    return summary;
  }

 protected:
  void resolve() override {
    fleet::FleetOptions options;
    options.traces = repo_.get();
    fleet::SessionBatch batch(sessions_, options);
  }

 private:
  std::unique_ptr<fleet::SharedDecisionCache> cache_;
  std::unique_ptr<fleet::SessionBatch> batch_;
  std::vector<double> pass_resolve_s_, run_s_;
};

class FleetContended final : public FleetWorkload {
 public:
  explicit FleetContended(const WorkloadOptions& options) : FleetWorkload(options) {}


  double pass(bool) override {
    fleet::ContendedOptions options;
    options.tenants_per_device = kTenants;
    options.acs_per_tenant = kAcsPerTenant;
    options.partition = PartitionMode::kBenefitWeighted;
    options.traces = repo_.get();
    const ScopedSpan span("fleet.contended_run");
    const auto start = Clock::now();
    fleet::run_contended_fleet(sessions_, options, &results_);
    run_s_.push_back(seconds_since(start));
    return static_cast<double>(sessions_.size());
  }

  void verify_pass(Report& report) override {
    const bool first_pass = first_.empty();
    FleetWorkload::verify_pass(report);
    if (!first_pass) return;
    // Contention may slow a tenant but never drop or invent executions.
    for (std::size_t s = 0; s < sessions_.size(); ++s)
      report.check(results_[s].si_executions ==
                       repo_->get(sessions_[s]).trace.total_si_executions(),
                   "contended session " + std::to_string(s) +
                       " executes its trace's every SI");
  }

  Summary finish(Report&) override {
    const Summary summary = summarize("contended_sessions_per_min");
    if (first_.empty()) return summary;
    std::printf("fleet-contended: %zu sessions, %d tenants x %d ACs per device, weighted\n",
                sessions_.size(), kTenants, kAcsPerTenant);
    Report::line("contended_speedup", summary.sim_speedup, "x",
                 "Σ software-only cycles / Σ RISPP cycles (simulated)");
    Report::line("tenant_p99_mcycles", summary.sim_p99_mcycles, "Mcycles", "simulated");
    Report::line("fleet.resolve_s", median(resolve_s_), "s",
                 "TraceRepository generation (set-up)");
    Report::line("fleet.contended_run_s", median(run_s_), "s");
    return summary;
  }

 protected:
  void resolve() override {
    for (const fleet::SessionSpec& spec : sessions_) repo_->get(spec);
  }

 private:
  std::vector<double> run_s_;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_mixed(const WorkloadOptions& options) {
  return std::make_unique<FleetMixed>(options);
}

std::unique_ptr<Workload> make_fleet_contended(const WorkloadOptions& options) {
  return std::make_unique<FleetContended>(options);
}

}  // namespace perfbench
