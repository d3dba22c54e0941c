// paper-h264: the paper's evaluation run. Set-up encodes the 140-frame CIF
// sequence into a trace file; one pass loads that file and replays the
// fig7/table2 grid — the four SI schedulers plus the Molen- and
// OneChip-like baselines at every AC count 5..24 (120 cells).
#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>

#include "base/parallel.h"
#include "base/prng.h"
#include "baselines/molen.h"
#include "baselines/onechip.h"
#include "h264/workload.h"
#include "isa/h264_si_library.h"
#include "rtm/run_time_manager.h"
#include "sched/registry.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace rispp;

constexpr int kFrames = 140;
constexpr unsigned kAcsMin = 5;
constexpr unsigned kAcsMax = 24;
// Cells re-run through the scalar reference replay after timing.
constexpr std::size_t kScalarSample = 6;
constexpr double kPaperHefVsMolen = 1.71;  // the paper's Table 2 average

enum class System { kRtm, kMolen, kOneChip };

struct Cell {
  System system;
  std::string scheduler;  // kRtm only
  unsigned acs;
};

std::uint64_t file_digest(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a
  for (std::istreambuf_iterator<char> it(in), end; it != end; ++it)
    hash = (hash ^ static_cast<unsigned char>(*it)) * 0x100000001b3ULL;
  return hash;
}

class PaperH264 final : public Workload {
 public:
  explicit PaperH264(const WorkloadOptions& options)
      : options_(options), set_(h264sis::build_h264_si_set()) {
    config_.frames = kFrames;
    config_.video.seed = options.video_seed();
    for (unsigned acs = kAcsMin; acs <= kAcsMax; ++acs) {
      for (const std::string& name : scheduler_names())
        cells_.push_back({System::kRtm, name, acs});
      cells_.push_back({System::kMolen, "", acs});
      cells_.push_back({System::kOneChip, "", acs});
    }
  }

  int setup_reps() const override { return 3; }

  double setup(int rep, Report& report) override {
    fresh_trace_dir(options_.work_dir, "setup" + std::to_string(rep));
    auto start = Clock::now();
    const WorkloadTrace trace = h264::generate_h264_workload(set_, config_).trace;
    encode_s_.push_back(seconds_since(start));
    path_ = h264::trace_cache_path(set_, config_);  // inside the fresh directory
    start = Clock::now();
    save_trace_file(trace, path_);
    save_s_.push_back(seconds_since(start));
    const double setup_s = encode_s_.back() + save_s_.back();

    std::error_code ec;
    trace_mb_ = static_cast<double>(std::filesystem::file_size(path_, ec)) / 1e6;
    report.check(!ec, "set-up wrote the trace file");
    const std::uint64_t digest = file_digest(path_);
    if (rep == 0)
      digest_ = digest;
    else
      report.check(digest == digest_, "set-up repetitions encode byte-identical traces");
    return setup_s;
  }

  double pass(bool traced) override {
    std::optional<WorkloadTrace> loaded;
    {
      const ScopedSpan span("sim.trace_load");
      const auto start = Clock::now();
      loaded = try_load_trace_file(path_);
      load_s_.push_back(seconds_since(start));
    }
    load_ok_ = loaded.has_value();
    if (!load_ok_) return 0.0;
    trace_ = std::move(*loaded);

    results_.assign(cells_.size(), SimResult{});
    std::vector<double> cell_ms(cells_.size());
    const std::uint64_t parent = current_span();
    parallel_for(cells_.size(), [&](std::size_t i) {
      const ScopedSpan span("paper.cell", parent);
      const auto start = Clock::now();
      results_[i] = run_cell(cells_[i], traced, ReplayMode::kBatched);
      cell_ms[i] = seconds_since(start) * 1e3;
    });
    if (!traced) cell_ms_.insert(cell_ms_.end(), cell_ms.begin(), cell_ms.end());
    return static_cast<double>(cells_.size());
  }

  void verify_pass(Report& report) override {
    if (!report.check(load_ok_, "pass loaded the set-up trace file")) return;
    if (first_.empty()) {
      first_ = results_;
      return;
    }
    for (std::size_t i = 0; i < cells_.size(); ++i)
      report.check(same_result(results_[i], first_[i]),
                   "cell " + label(cells_[i]) + " repeats the first pass's result");
  }

  Summary finish(Report& report) override {
    Summary summary;
    summary.throughput_name = "paper_cells_per_s";
    summary.trace_gen_s = median(encode_s_);
    if (first_.empty()) return summary;
    // Scalar reference replay of a seeded sample of cells: one backend call
    // per SI execution must give the batched pass's exact result.
    Xoshiro256 rng(options_.seed);
    std::vector<std::size_t> sample;
    for (std::size_t k = 0; k < kScalarSample; ++k)
      sample.push_back(static_cast<std::size_t>(rng.bounded(cells_.size())));
    std::vector<SimResult> scalar(sample.size());
    parallel_for(sample.size(), [&](std::size_t k) {
      scalar[k] = run_cell(cells_[sample[k]], false, ReplayMode::kScalar);
    });
    for (std::size_t k = 0; k < sample.size(); ++k)
      report.check(same_result(scalar[k], first_[sample[k]]),
                   "scalar replay matches batched replay for cell " + label(cells_[sample[k]]));

    // Table 2: HEF over Molen per AC count, and the paper's claim that HEF
    // is never meaningfully (> 0.5%) slower than Molen.
    double sum = 0.0;
    unsigned count = 0;
    for (unsigned acs = kAcsMin; acs <= kAcsMax; ++acs) {
      const double hef = static_cast<double>(cycles_of(System::kRtm, "HEF", acs));
      const double molen = static_cast<double>(cycles_of(System::kMolen, "", acs));
      sum += molen / hef;
      ++count;
      report.check(molen / hef >= 0.995,
                   "HEF is not >0.5% slower than Molen at " + std::to_string(acs) + " ACs");
    }
    const double hef_vs_molen = sum / count;

    std::vector<double> mcycles;
    for (const SimResult& r : first_) {
      mcycles.push_back(static_cast<double>(r.total_cycles) / 1e6);
      summary.si_executions_per_pass += static_cast<double>(r.si_executions);
      summary.atom_loads_per_pass += static_cast<double>(r.atom_loads);
    }
    summary.sim_speedup = hef_vs_molen;
    summary.sim_p99_mcycles = quantile(mcycles, 0.99);

    std::printf("paper-h264: %d CIF frames, video seed %#llx, %zu cells per pass\n", kFrames,
                static_cast<unsigned long long>(config_.video.seed), cells_.size());
    char accuracy[160];
    std::snprintf(accuracy, sizeof accuracy,
                  "paper %.2fx, error %+.1f%% (simulated; otherwise unvalidated against "
                  "hardware)",
                  kPaperHefVsMolen, (hef_vs_molen / kPaperHefVsMolen - 1.0) * 100.0);
    Report::line("hef_vs_molen_mean", hef_vs_molen, "x", accuracy);
    Report::line("h264.encode_s", median(encode_s_), "s", "median of set-up repetitions");
    Report::line("h264.frames_per_s", kFrames / median(encode_s_), "1/s");
    Report::line("sim.trace_save_s", median(save_s_), "s");
    Report::line("sim.trace_load_s", median(load_s_), "s", "median over passes");
    Report::line("sim.trace_mb", trace_mb_, "MB");
    Report::line("paper.cell_ms.p50", quantile(cell_ms_, 0.5), "ms",
                 std::to_string(cell_ms_.size()) + " cells");
    Report::line("paper.cell_ms.p90", quantile(cell_ms_, 0.9), "ms");
    return summary;
  }

 private:
  template <typename Backend>
  SimResult replay(Backend& backend, bool traced, ReplayMode mode, const char* entry_layer,
                   const char* replay_layer, std::chrono::nanoseconds delay) const {
    h264::seed_default_forecasts(set_, backend);
    if (!traced) return run_trace(trace_, backend, nullptr, mode);
    TimedBackend timed(backend, entry_layer, replay_layer, delay);
    return run_trace(trace_, timed, nullptr, mode);
  }

  SimResult run_cell(const Cell& cell, bool traced, ReplayMode mode) const {
    switch (cell.system) {
      case System::kRtm: {
        const auto scheduler = make_scheduler(cell.scheduler);
        RtmConfig config;
        config.container_count = cell.acs;
        config.scheduler = scheduler.get();
        RunTimeManager rtm(&set_, trace_.hot_spots.size(), config);
        return replay(rtm, traced, mode, "rtm.entry", "sim.replay", options_.entry_delay);
      }
      case System::kMolen: {
        MolenConfig config;
        config.container_count = cell.acs;
        MolenBackend molen(&set_, trace_.hot_spots.size(), config);
        return replay(molen, traced, mode, "baselines.entry", "baselines.replay", {});
      }
      case System::kOneChip: {
        OneChipConfig config;
        config.container_count = cell.acs;
        OneChipBackend onechip(&set_, trace_.hot_spots.size(), config);
        return replay(onechip, traced, mode, "baselines.entry", "baselines.replay", {});
      }
    }
    return {};
  }

  Cycles cycles_of(System system, const std::string& scheduler, unsigned acs) const {
    for (std::size_t i = 0; i < cells_.size(); ++i)
      if (cells_[i].system == system && cells_[i].scheduler == scheduler &&
          cells_[i].acs == acs)
        return first_[i].total_cycles;
    return 0;
  }

  static std::string label(const Cell& cell) {
    const char* system = cell.system == System::kRtm     ? cell.scheduler.c_str()
                         : cell.system == System::kMolen ? "Molen"
                                                         : "OneChip";
    return std::string(system) + "@" + std::to_string(cell.acs);
  }

  WorkloadOptions options_;
  SpecialInstructionSet set_;
  h264::WorkloadConfig config_;
  std::vector<Cell> cells_;
  std::filesystem::path path_;
  std::uint64_t digest_ = 0;
  WorkloadTrace trace_;
  bool load_ok_ = false;
  std::vector<SimResult> results_;
  std::vector<SimResult> first_;
  std::vector<double> encode_s_, save_s_, load_s_, cell_ms_;
  double trace_mb_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_paper_h264(const WorkloadOptions& options) {
  return std::make_unique<PaperH264>(options);
}

}  // namespace perfbench
