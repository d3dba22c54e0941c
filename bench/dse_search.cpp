// DSE evaluator throughput and discovered-ISA quality (DESIGN §10).
//
// Runs the automatic SI design-space exploration on the fig7-like H.264
// trace and reports (a) the quality criterion — the discovered ISA must
// reach at least 90% of the hand-built Table 1 library's speedup under the
// same scheduler and AC budgets — and (b) the perf criterion — the memoized
// + parallel + bound-pruned evaluator must sustain at least 10x the
// candidates/sec of naive full re-simulation (scalar reference replay, no
// MakespanMemo, no eval cache, no decision cache). Both are hard
// assertions: the bench exits nonzero when either degrades, and the
// reported gauges feed BENCH_SUITE.json / ci/bench_baseline.json.
#include <chrono>
#include <cstdio>

#include "base/metrics.h"
#include "base/prng.h"
#include "base/table.h"
#include "bench/common.h"
#include "config/h264_platform.h"
#include "dpg/makespan_memo.h"
#include "dse/engine.h"
#include "h264/workload.h"
#include "isa/h264_si_library.h"
#include "sim/trace.h"

namespace {

using namespace rispp;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

WorkloadTrace load_or_generate(const SpecialInstructionSet& set, int frames) {
  h264::WorkloadConfig config;
  config.frames = frames;
  const auto path = h264::trace_cache_path(set, config);
  if (auto cached = try_load_trace_file(path, set.si_count())) return std::move(*cached);
  std::fprintf(stderr, "[bench] encoding %d synthetic CIF frames (cached at %s)...\n",
               frames, path.string().c_str());
  WorkloadTrace trace = h264::generate_h264_workload(set, config).trace;
  save_trace_file(trace, path);
  return trace;
}

}  // namespace

int main() {
  bench::BenchPerfLog perf("dse_search");

  // The search trace stays short — DSE cost scales with candidate count, not
  // trace length — mirroring how the fleet benches cap session length.
  const int frames = std::min(bench::bench_frames(), 8);
  const SpecialInstructionSet handbuilt_set = h264sis::build_h264_si_set();
  const WorkloadTrace trace = load_or_generate(handbuilt_set, frames);
  const config::PlatformSpec handbuilt = config::h264_platform_spec();

  // Fresh caches so the measured hit rate is the search's own, not leftovers.
  dse::EvalCache eval_cache;
  MakespanMemo makespan_memo;
  dse::DseOptions options;
  options.eval_cache = &eval_cache;
  options.makespan_memo = &makespan_memo;

  const auto search_start = std::chrono::steady_clock::now();
  const dse::DseResult result = run_dse(trace, handbuilt, options);
  const double search_seconds = seconds_since(search_start);

  // Scored candidates: everything the evaluator disposed of — cache hits and
  // bound-abandons cost ~nothing, replays cost a batched simulation.
  const std::uint64_t scored = result.cache_hits + result.abandoned + result.replays;
  const double candidates_per_sec =
      search_seconds > 0.0 ? static_cast<double>(scored) / search_seconds : 0.0;
  perf.set_cells(scored);

  // Naive baseline: full re-simulation of a handful of distinct candidates
  // drawn from the same mutation space.
  Xoshiro256 naive_rng(12345);
  constexpr int kNaiveCandidates = 5;
  dse::DesignPoint naive_point = dse::degraded_seed(handbuilt);
  const auto naive_start = std::chrono::steady_clock::now();
  for (int i = 0; i < kNaiveCandidates; ++i) {
    dse::mutate(naive_point, naive_rng);
    dse::evaluate_candidate_naive(naive_point.spec, trace, result.reference_cycles, options);
  }
  const double naive_seconds = seconds_since(naive_start);
  const double naive_per_sec =
      naive_seconds > 0.0 ? kNaiveCandidates / naive_seconds : 0.0;
  const double throughput_ratio = naive_per_sec > 0.0 ? candidates_per_sec / naive_per_sec : 0.0;
  const double hit_rate =
      scored != 0 ? static_cast<double>(result.cache_hits) / static_cast<double>(scored) : 0.0;

  metric_gauge("dse.search.candidates_per_sec").set(candidates_per_sec);
  metric_gauge("dse.search.naive_candidates_per_sec").set(naive_per_sec);
  metric_gauge("dse.search.eval_throughput_ratio").set(throughput_ratio);
  metric_gauge("dse.search.eval_cache_hit_rate").set(hit_rate);

  std::printf("DSE search — %d frames, %u generations, scheduler %s\n\n", frames,
              result.generations_run, options.scheduler.c_str());
  TextTable table({"metric", "value"});
  table.add("hand-built mean speedup", format_fixed(result.handbuilt_eval.mean_speedup, 3));
  table.add("discovered mean speedup", format_fixed(result.best.eval.mean_speedup, 3));
  table.add("discovered / hand-built", format_fixed(result.discovered_vs_handbuilt, 3));
  table.add("pareto front size", result.front.size());
  table.add("candidates scored", scored);
  table.add("eval cache hit rate", format_fixed(hit_rate, 3));
  table.add("abandoned (bound)", result.abandoned);
  table.add("candidates/sec (engine)", format_fixed(candidates_per_sec, 0));
  table.add("candidates/sec (naive)", format_fixed(naive_per_sec, 0));
  table.add("throughput ratio", format_fixed(throughput_ratio, 1));
  std::printf("%s\n", table.render().c_str());

  bool ok = true;
  if (result.discovered_vs_handbuilt < 0.90) {
    std::fprintf(stderr,
                 "FAIL: discovered ISA reaches only %.3f of the hand-built speedup "
                 "(needs >= 0.90)\n",
                 result.discovered_vs_handbuilt);
    ok = false;
  }
  if (throughput_ratio < 10.0) {
    std::fprintf(stderr,
                 "FAIL: memoized evaluator sustains only %.1fx the naive "
                 "candidates/sec (needs >= 10x)\n",
                 throughput_ratio);
    ok = false;
  }
  return ok ? 0 : 1;
}
