// The benchmark's workloads. Each is a closed-loop batch job: a pass starts
// only after the previous one finished, and main repeats passes for the run
// length. Set-up (trace generation) is timed separately, so work moved into
// set-up shows in setup_s.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct WorkloadOptions {
  /// Workload seed (--seed). Seed 0 reproduces the repository's defaults:
  /// the 0x5EED synthetic video, FleetSpec::seed 1 and DseOptions::seed 1.
  std::uint64_t seed = 0;
  /// VideoConfig::seed of the synthetic video the H.264 traces encode.
  std::uint64_t video_seed() const { return 0x5EED + seed; }
  /// Private, initially empty directory for trace-cache files; every set-up
  /// repetition works in its own subdirectory so none reads another's files.
  std::filesystem::path work_dir;
  /// Busy-wait added inside every RTM on_hot_spot_entry span of traced
  /// passes (attribution self-test; zero otherwise).
  std::chrono::nanoseconds entry_delay{0};
};

/// What main reads from a workload after its last pass.
struct Summary {
  /// The workload's own name for work_per_s, which counts per minute rather
  /// than per second when `per_minute`.
  std::string throughput_name;
  bool per_minute = false;
  /// Median cold trace-generation seconds of one set-up.
  double trace_gen_s = 0.0;
  /// Simulated SI executions replayed per pass (for sim.si_exec_per_s), and
  /// the atom loads the replays completed (hw.atom_loads; 0 where the
  /// replays happen inside the library, as in run_dse).
  double si_executions_per_pass = 0.0;
  double atom_loads_per_pass = 0.0;
  /// The workload's simulated speedup and the p99 simulated completion time
  /// of its jobs in Mcycles (README.md: sim_speedup, sim_p99_mcycles).
  double sim_speedup = 0.0;
  double sim_p99_mcycles = 0.0;
  /// Decisions are memoized in a cache shared by worker threads, so which
  /// session computes a decision, and hence the hit/miss split and the
  /// scheduler work, varies between runs.
  bool decisions_shared = false;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Cold set-up repetitions; main reports their median as setup_s.
  virtual int setup_reps() const = 0;
  /// One cold set-up: generates (and where the workload persists them,
  /// saves) its traces into a fresh directory. Returns the seconds the
  /// set-up work took, excluding its checks: repetitions after the first
  /// must reproduce the first's inputs exactly.
  virtual double setup(int rep, Report& report) = 0;
  /// One measured pass; returns the work items completed (cells, sessions,
  /// scored candidates). Span recording is on iff `traced`.
  virtual double pass(bool traced) = 0;
  /// Checks the last pass's outputs against the first pass's, outside the
  /// timed region.
  virtual void verify_pass(Report& report) = 0;
  /// Final output checks; prints the workload's own report lines.
  virtual Summary finish(Report& report) = 0;
};

std::unique_ptr<Workload> make_paper_h264(const WorkloadOptions& options);
std::unique_ptr<Workload> make_fleet_mixed(const WorkloadOptions& options);
std::unique_ptr<Workload> make_fleet_contended(const WorkloadOptions& options);
std::unique_ptr<Workload> make_dse_search(const WorkloadOptions& options);

/// Points the repository's trace cache (RISPP_TRACE_DIR) at a fresh, empty
/// subdirectory `name` of `root`. Only called while no other thread runs.
void fresh_trace_dir(const std::filesystem::path& root, const std::string& name);

}  // namespace perfbench
