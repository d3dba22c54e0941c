// dse-search: dse::run_dse over the hand-built Table 1 platform (HEF, AC
// budgets 8 and 16) on a short H.264 trace. A pass runs several searches
// with consecutive DseOptions seeds, each with fresh eval-cache and
// MakespanMemo instances, so the memo layers' hit rates are the searches'
// own. How many candidates one search scores from its caches depends on its
// seed; a pass of several searches keeps that from swinging the throughput
// between workload seeds.
//
// BENCHMARK.json does not list this workload: run_dse reports a cached
// candidate's area for a later candidate with the same ISA, so the slices
// check in finish() fails on most seeds (README.md, Known defect).
#include <cstdio>

#include "config/h264_platform.h"
#include "dpg/makespan_memo.h"
#include "dse/engine.h"
#include "h264/workload.h"
#include "isa/h264_si_library.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace rispp;

// The search trace stays short, as in bench/dse_search: DSE cost scales with
// the candidate count, not the trace length.
constexpr int kFrames = 8;
constexpr unsigned kSearchesPerPass = 4;

class DseSearch final : public Workload {
 public:
  explicit DseSearch(const WorkloadOptions& options)
      : options_(options),
        set_(h264sis::build_h264_si_set()),
        handbuilt_(config::h264_platform_spec()) {
    config_.frames = kFrames;
    config_.video.seed = options.video_seed();
  }

  int setup_reps() const override { return 5; }

  double setup(int rep, Report& report) override {
    fresh_trace_dir(options_.work_dir, "setup" + std::to_string(rep));
    auto start = Clock::now();
    trace_ = h264::generate_h264_workload(set_, config_).trace;
    encode_s_.push_back(seconds_since(start));
    start = Clock::now();
    const Cycles reference = dse::software_reference_cycles(set_, trace_);
    reference_s_.push_back(seconds_since(start));
    if (rep == 0)
      reference_cycles_ = reference;
    else
      report.check(reference == reference_cycles_,
                   "set-up repetitions give the same software reference");
    return encode_s_.back() + reference_s_.back();
  }

  double pass(bool) override {
    results_.clear();
    std::uint64_t scored = 0;
    for (unsigned k = 0; k < kSearchesPerPass; ++k) {
      // Each search starts cold; the caches are released outside the timed
      // region, in verify_pass.
      caches_.push_back({std::make_unique<dse::EvalCache>(), std::make_unique<MakespanMemo>()});
      dse::DseOptions options = search_options(k);
      options.eval_cache = caches_.back().first.get();
      options.makespan_memo = caches_.back().second.get();
      const ScopedSpan span("dse.search");
      const auto start = Clock::now();
      results_.push_back(dse::run_dse(trace_, handbuilt_, options));
      search_s_.push_back(seconds_since(start));
      // Everything the evaluator disposed of, as bench/dse_search counts it.
      scored += results_.back().cache_hits + results_.back().abandoned + results_.back().replays;
    }
    return static_cast<double>(scored);
  }

  void verify_pass(Report& report) override {
    caches_.clear();
    if (first_.empty()) {
      first_ = results_;
      return;
    }
    for (unsigned k = 0; k < kSearchesPerPass; ++k) {
      const dse::DseResult& a = results_[k];
      const dse::DseResult& b = first_[k];
      report.check(a.best.fingerprint == b.best.fingerprint && a.best.eval == b.best.eval &&
                       a.proposals == b.proposals && a.cache_hits == b.cache_hits &&
                       a.abandoned == b.abandoned && a.replays == b.replays,
                   "search repeats the first pass's best candidate and accounting");
    }
  }

  Summary finish(Report& report) override {
    Summary summary;
    summary.throughput_name = "dse_candidates_per_s";
    summary.trace_gen_s = median(encode_s_);
    if (first_.empty()) return summary;
    std::vector<double> best_mcycles;
    std::uint64_t proposals = 0, cache_hits = 0, abandoned = 0, replays = 0;
    for (unsigned k = 0; k < kSearchesPerPass; ++k) {
      const dse::DseResult& result = first_[k];
      // The engine's memoized evaluation of the best candidate must match a
      // naive full re-simulation bit for bit: its score (cycles per AC
      // budget and mean speedup) and its area (the slices the Pareto front
      // ranks by).
      const dse::EvalResult naive = dse::evaluate_candidate_naive(
          result.best.point.spec, trace_, result.reference_cycles, search_options(k));
      const dse::EvalResult& best = result.best.eval;
      const std::string search = "search seed " + std::to_string(search_options(k).seed);
      report.check(naive.total_cycles == best.total_cycles &&
                       naive.mean_speedup == best.mean_speedup,
                   search + ": naive re-score matches the best candidate's cycles and speedup");
      report.check(naive.slices == best.slices,
                   search + ": best candidate's slices (" + std::to_string(best.slices) +
                       ") match its spec's (" + std::to_string(naive.slices) + ")");
      summary.sim_speedup += result.discovered_vs_handbuilt / kSearchesPerPass;
      for (const Cycles cycles : best.total_cycles)
        best_mcycles.push_back(static_cast<double>(cycles) / 1e6);
      proposals += result.proposals;
      cache_hits += result.cache_hits;
      abandoned += result.abandoned;
      replays += result.replays;
    }
    summary.si_executions_per_pass = static_cast<double>(
        replays * search_options(0).ac_budgets.size() * trace_.total_si_executions());
    summary.sim_p99_mcycles = quantile(best_mcycles, 0.99);

    std::printf("dse-search: %d frames, %u searches per pass (seeds %llu..%llu), scheduler %s\n",
                kFrames, kSearchesPerPass,
                static_cast<unsigned long long>(search_options(0).seed),
                static_cast<unsigned long long>(search_options(kSearchesPerPass - 1).seed),
                search_options(0).scheduler.c_str());
    Report::line("dse_vs_handbuilt", summary.sim_speedup, "x",
                 "discovered / hand-built mean speedup, mean over searches (simulated)");
    Report::line("h264.encode_s", median(encode_s_), "s", "median of set-up repetitions");
    Report::line("dse.reference_s", median(reference_s_), "s", "set-up");
    Report::line("dse.search_s", median(search_s_), "s", "one search");
    const std::pair<const char*, std::uint64_t> counts[] = {
        {"dse.proposals", proposals},
        {"dse.cache_hits", cache_hits},
        {"dse.abandoned", abandoned},
        {"dse.replays", replays}};
    for (const auto& [name, count] : counts) {
      Report::line(name, static_cast<double>(count), "count", "[exact] per pass");
      report.metric(name, static_cast<double>(count));
    }
    return summary;
  }

 private:
  /// Search k of a pass; workload seed 0 starts at DseOptions' default seed.
  dse::DseOptions search_options(unsigned k) const {
    dse::DseOptions options;
    options.seed = 1 + options_.seed * kSearchesPerPass + k;
    return options;
  }

  WorkloadOptions options_;
  SpecialInstructionSet set_;
  config::PlatformSpec handbuilt_;
  h264::WorkloadConfig config_;
  WorkloadTrace trace_;
  Cycles reference_cycles_ = 0;
  std::vector<std::pair<std::unique_ptr<dse::EvalCache>, std::unique_ptr<MakespanMemo>>> caches_;
  std::vector<dse::DseResult> results_;
  std::vector<dse::DseResult> first_;
  std::vector<double> encode_s_, reference_s_, search_s_;
};

}  // namespace

std::unique_ptr<Workload> make_dse_search(const WorkloadOptions& options) {
  return std::make_unique<DseSearch>(options);
}

}  // namespace perfbench
