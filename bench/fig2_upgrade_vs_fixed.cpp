// Figure 2: SI executions per 100K cycles in the Motion Estimation hot spot,
// with and without stepwise SI upgrade (the paper's motivating experiment:
// 31,977 executions of SAD and SATD in one ME hot spot).
//
// "Without upgrade" is the Molen-like single-implementation behaviour: each
// SI runs on the base processor until its full molecule is reconfigured.
// "With upgrade" uses the RISPP hierarchy under the HEF scheduler.
#include <cstdio>

#include "base/table.h"
#include "bench/common.h"
#include "sim/stats.h"

int main() {
  using namespace rispp;
  const bench::BenchContext ctx;
  const SiId sad = ctx.set.find("SAD").value();
  const SiId satd = ctx.set.find("SATD").value();

  // Isolate the first P-frame's ME hot spot, cold-started (as in Figure 2).
  WorkloadTrace me;
  me.hot_spots = ctx.trace.hot_spots;
  for (const auto& inst : ctx.trace.instances) {
    if (inst.hot_spot == h264::kHotSpotMe) {
      me.instances.push_back(inst);
      break;
    }
  }
  if (me.instances.empty()) {
    std::printf("trace has no ME instance\n");
    return 1;
  }
  std::printf(
      "Figure 2 — ME hot spot, %zu SAD+SATD executions (paper: 31,977)\n"
      "Executions per 100K cycles, with vs. without stepwise SI upgrade\n\n",
      me.instances.front().execution_count());

  constexpr unsigned kAcs = 17;  // room for the full ME selection

  SimStats upgraded_stats(ctx.set.si_count());
  const auto run_upgraded = [&] {
    auto scheduler = make_scheduler("HEF");
    RtmConfig config;
    config.container_count = kAcs;
    config.scheduler = scheduler.get();
    RunTimeManager rtm(&ctx.set, me.hot_spots.size(), config);
    h264::seed_default_forecasts(ctx.set, rtm);
    return run_trace(me, rtm, &upgraded_stats);
  };
  SimStats fixed_stats(ctx.set.si_count());
  const auto run_fixed = [&] {
    MolenConfig config;
    config.container_count = kAcs;
    MolenBackend molen(&ctx.set, me.hot_spots.size(), config);
    h264::seed_default_forecasts(ctx.set, molen);
    return run_trace(me, molen, &fixed_stats);
  };

  const SimResult upgraded = run_upgraded();
  const SimResult fixed = run_fixed();

  TextTable table({"t [100K cyc]", "with upgrade", "no upgrade", "note"});
  const std::size_t buckets =
      std::max(upgraded_stats.bucket_count(), fixed_stats.bucket_count());
  for (std::size_t b = 0; b < buckets; ++b) {
    const std::uint64_t up = upgraded_stats.bucket_executions(sad, b) +
                             upgraded_stats.bucket_executions(satd, b);
    const std::uint64_t fx = fixed_stats.bucket_executions(sad, b) +
                             fixed_stats.bucket_executions(satd, b);
    std::string note;
    if (b + 1 == static_cast<std::size_t>(
                     (upgraded.total_cycles + kBucketCycles - 1) / kBucketCycles))
      note = "<- upgrade run finishes";
    table.add(b, up, fx, note);
  }
  std::printf("%s\n", table.render().c_str());

  std::printf("ME hot spot duration: with upgrade %.2f Mcycles, without %.2f Mcycles "
              "(%.2fx earlier finish; paper shows the upgraded run finishing "
              "well before the fixed one)\n",
              upgraded.total_cycles / 1e6, fixed.total_cycles / 1e6,
              static_cast<double>(fixed.total_cycles) / upgraded.total_cycles);

  // Reconfiguration landmarks (the paper annotates SAD/SATD completion).
  const auto& tl_sad = upgraded_stats.latency_timeline(sad);
  const auto& tl_satd = upgraded_stats.latency_timeline(satd);
  if (tl_sad.size() > 1)
    std::printf("upgrade run: first SAD hardware molecule at %.0fK cycles, "
                "final at %.0fK cycles\n",
                tl_sad[1].at / 1e3, tl_sad.back().at / 1e3);
  if (tl_satd.size() > 1)
    std::printf("upgrade run: first SATD hardware molecule at %.0fK cycles, "
                "final at %.0fK cycles\n",
                tl_satd[1].at / 1e3, tl_satd.back().at / 1e3);
  return 0;
}
