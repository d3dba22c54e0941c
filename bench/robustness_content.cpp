// Beyond the paper's tables: robustness across video content.
//
// The paper's core argument is that run-time adaptation wins exactly when
// behaviour "cannot be well predicted during design time (like varying
// workloads)". This bench runs the same platform over qualitatively
// different synthetic sequences — near-static, normal, high-motion, rapid
// scene cuts — and checks the HEF-over-Molen advantage holds for all of
// them (no content-specific tuning).
//
// Each preset is one run_sweep cell (encode + HEF + Molen are independent
// per content), so the four contents encode concurrently; rows keep preset
// order regardless of RISPP_THREADS.
#include <cstdio>
#include <string>

#include "base/table.h"
#include "baselines/molen.h"
#include "bench/common.h"
#include "h264/workload.h"
#include "isa/h264_si_library.h"
#include "rtm/run_time_manager.h"
#include "sched/registry.h"
#include "sim/executor.h"

int main() {
  using namespace rispp;
  bench::BenchPerfLog perf("robustness_content");
  const SpecialInstructionSet set = h264sis::build_h264_si_set();
  const int frames = 30;
  constexpr unsigned kAcs = 14;

  struct Preset {
    const char* name;
    h264::VideoConfig video;
  };
  std::vector<Preset> presets;
  {
    Preset p{"near-static", {}};
    p.video.object_count = 1;
    p.video.noise_stddev = 0.5;
    p.video.cut_period = 0;
    presets.push_back(p);
  }
  presets.push_back({"normal", {}});
  {
    Preset p{"high-motion", {}};
    p.video.object_count = 12;
    p.video.noise_stddev = 3.0;
    presets.push_back(p);
  }
  {
    Preset p{"rapid-cuts", {}};
    p.video.cut_period = 8;
    presets.push_back(p);
  }
  perf.set_cells(presets.size());

  struct Row {
    std::size_t me_per_frame = 0;
    int intra_mbs = 0;
    Cycles hef_cycles = 0;
    Cycles molen_cycles = 0;
  };
  const auto rows = bench::run_sweep(presets, [&](const Preset& preset) {
    h264::WorkloadConfig config;
    config.frames = frames;
    config.video = preset.video;
    config.encode_threads = 1;  // cells already fill the pool; don't nest
    const auto workload = h264::generate_h264_workload(set, config);

    Row row;
    row.intra_mbs = workload.intra_mbs;
    std::size_t me_execs = 0;
    int me_instances = 0;
    for (const auto& inst : workload.trace.instances)
      if (inst.hot_spot == h264::kHotSpotMe) {
        me_execs += inst.execution_count();
        ++me_instances;
      }
    row.me_per_frame = me_instances > 0 ? me_execs / me_instances : 0;

    auto hef = make_scheduler("HEF");
    RtmConfig rtm_config;
    rtm_config.container_count = kAcs;
    rtm_config.scheduler = hef.get();
    RunTimeManager rtm(&set, workload.trace.hot_spots.size(), rtm_config);
    h264::seed_default_forecasts(set, rtm);
    row.hef_cycles = run_trace(workload.trace, rtm).total_cycles;

    MolenConfig molen_config;
    molen_config.container_count = kAcs;
    MolenBackend molen(&set, workload.trace.hot_spots.size(), molen_config);
    h264::seed_default_forecasts(set, molen);
    row.molen_cycles = run_trace(workload.trace, molen).total_cycles;
    return row;
  });

  std::printf("Robustness — scheduler advantage across content types (%d frames, %u "
              "ACs)\n\n",
              frames, kAcs);
  TextTable table({"content", "ME SI/frame", "intra MBs", "HEF [Mcyc]", "Molen [Mcyc]",
                   "speedup"});
  for (std::size_t i = 0; i < presets.size(); ++i) {
    const Row& row = rows[i];
    table.add(presets[i].name, row.me_per_frame, row.intra_mbs,
              format_fixed(row.hef_cycles / 1e6, 1),
              format_fixed(row.molen_cycles / 1e6, 1),
              format_fixed(static_cast<double>(row.molen_cycles) / row.hef_cycles, 2) +
                  "x");
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Expectation: the gradual-upgrade advantage persists across contents;\n"
              "busier content loads the ME hot spot harder, calmer content shifts\n"
              "weight to EE/LF — the monitor retargets without any re-tuning.\n");
  return 0;
}
