// Example: defining a whole RISPP platform in the textual description
// language and running the run-time system on it — no C++ required to add a
// new accelerator domain.
//
// The platform here is a small audio feature extractor: windowing, a
// filterbank, a log-energy stage. Three SIs over four atom types.
#include <cstdio>

#include "config/platform_parser.h"
#include "rtm/run_time_manager.h"
#include "sched/registry.h"
#include "sim/executor.h"

using namespace rispp;

namespace {

constexpr const char* kPlatformText = R"(
# Audio feature extractor platform.
# atom   name        op-lat  sw-cycles  slices
atom     WindowMul   1       18         280
atom     BiquadTap   2       36         520
atom     MacTree     2       30         450
atom     LogApprox   3       52         610

si "Window" trap=48 molecules=4
  caps WindowMul=4
  layer WindowMul x16
end

si "Filterbank" trap=64
  caps BiquadTap=4 MacTree=2
  block x8
    layer BiquadTap x2
    layer MacTree x1
  end
end

si "LogEnergy" trap=48 molecules=3
  caps MacTree=2 LogApprox=2
  layer MacTree x4
  layer LogApprox x2
end
)";

}  // namespace

int main() {
  const SpecialInstructionSet set = config::parse_platform_string(kPlatformText);
  std::printf("%s\n", config::describe_platform(set).c_str());

  // One hot spot: a frame of audio = Window, then the filterbank per band,
  // then the energy summary.
  WorkloadTrace trace;
  const SiId window = set.find("Window").value();
  const SiId filter = set.find("Filterbank").value();
  const SiId energy = set.find("LogEnergy").value();
  trace.hot_spots = {HotSpotInfo{"frame", {window, filter, energy}, 6}};
  for (int frame = 0; frame < 40; ++frame) {
    HotSpotInstance inst{0, 800};
    for (int hop = 0; hop < 24; ++hop) {
      inst.append(window);
      inst.append(filter, 12);
      inst.append(energy);
    }
    trace.instances.push_back(std::move(inst));
  }
  trace.index_runs();

  std::printf("simulating %zu SI executions at 6 Atom Containers:\n",
              trace.total_si_executions());
  for (const auto& name : scheduler_names()) {
    auto scheduler = make_scheduler(name);
    RtmConfig config;
    config.container_count = 6;
    config.scheduler = scheduler.get();
    RunTimeManager rtm(&set, 1, config);
    rtm.seed_forecast(0, window, 24);
    rtm.seed_forecast(0, filter, 288);
    rtm.seed_forecast(0, energy, 24);
    const SimResult result = run_trace(trace, rtm);
    std::printf("  %-5s %8.2f Mcycles (%llu atom loads)\n", name.c_str(),
                result.total_cycles / 1e6,
                static_cast<unsigned long long>(result.atom_loads));
  }
  return 0;
}
