// Quickstart: the RISPP run-time system in ~100 lines.
//
// 1. Define atom types and a Special Instruction from its data-path graph —
//    the molecule list (area/latency trade-offs) is derived automatically.
// 2. Ask the HEF scheduler for an atom loading sequence.
// 3. Replay a small workload on the cycle-level simulator and watch the SI
//    being upgraded step by step.
//
// Build: cmake --build build --target quickstart && ./build/examples/quickstart
#include <cstdio>

#include "rtm/run_time_manager.h"
#include "sched/hef.h"
#include "sim/executor.h"

using namespace rispp;

int main() {
  // --- 1. The platform: two atom types, one SI ("FIR" like).
  AtomLibrary library;
  library.add({.name = "MulAcc", .op_latency = 2, .sw_op_cycles = 24, .slices = 450});
  library.add({.name = "Shift", .op_latency = 1, .sw_op_cycles = 8, .slices = 200});

  SpecialInstructionSet set(std::move(library));
  DataPathGraph graph(&set.library());
  const auto taps = graph.add_layer(/*type=*/0, /*count=*/12);  // 12 multiply-accumulates
  graph.add_layer(/*type=*/1, /*count=*/4, taps);               // 4 normalization shifts
  const SiId fir = set.add_si("FIR12", std::move(graph),
                              /*instance_caps=*/Molecule{4, 2},
                              /*trap_overhead=*/64);

  std::printf("SI FIR12: software latency %llu cycles; derived molecules:\n",
              static_cast<unsigned long long>(set.si(fir).software_latency));
  for (const auto& m : set.si(fir).molecules)
    std::printf("  atoms %-6s -> %llu cycles\n", m.atoms.to_string().c_str(),
                static_cast<unsigned long long>(m.latency));

  // --- 2. A schedule: upgrade FIR12 to its fastest molecule from cold.
  ScheduleRequest request;
  request.set = &set;
  request.selected = {SiRef{fir, static_cast<MoleculeId>(set.si(fir).molecules.size() - 1)}};
  request.available = Molecule(set.atom_type_count());
  request.expected_executions = {20'000};

  const HefScheduler hef;
  const Schedule schedule = hef.schedule(request);
  std::printf("\nHEF loading sequence:");
  for (AtomTypeId t : schedule.loads)
    std::printf(" %s", set.library().type(t).name.c_str());
  std::printf("\n(%zu molecule-level upgrade steps)\n\n", schedule.steps.size());

  // --- 3. Simulate a hot spot of 20,000 FIR executions.
  WorkloadTrace trace;
  trace.hot_spots = {HotSpotInfo{"loop", {fir}, /*per_execution_overhead=*/6}};
  HotSpotInstance loop{0, /*entry_overhead=*/500};
  loop.append(fir, 20'000);
  trace.instances = {loop};
  trace.index_runs();

  RtmConfig config;
  config.container_count = 6;
  config.scheduler = &hef;
  RunTimeManager rtm(&set, /*hot_spot_count=*/1, config);
  rtm.seed_forecast(0, fir, 20'000);

  SimStats stats(set.si_count());
  const SimResult result = run_trace(trace, rtm, &stats);
  std::printf("simulated %llu executions in %llu cycles (%llu atom loads)\n",
              static_cast<unsigned long long>(result.si_executions),
              static_cast<unsigned long long>(result.total_cycles),
              static_cast<unsigned long long>(result.atom_loads));
  std::printf("FIR12 latency over time (gradual upgrade):\n");
  for (const auto& point : stats.latency_timeline(fir))
    std::printf("  from cycle %8llu: %llu cycles/execution\n",
                static_cast<unsigned long long>(point.at),
                static_cast<unsigned long long>(point.latency));
  return 0;
}
