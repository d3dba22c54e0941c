#include "rtm/tenant_sim.h"

#include <limits>

#include "base/check.h"
#include "base/metrics.h"

namespace rispp {

std::vector<SimResult> run_tenants(FabricArbiter& arbiter, std::span<TenantRun> tenants) {
  const std::size_t n = tenants.size();
  RISPP_CHECK(n > 0);
  std::vector<SimResult> results(n);
  std::vector<Cycles> clocks(n, 0);
  std::vector<std::size_t> next_instance(n, 0);
  std::vector<std::vector<LatencySegment>> segments(n);
  static MetricCounter& entries = metric_counter("sim.hot_spot_entries");

  std::size_t live = 0;
  for (std::size_t i = 0; i < n; ++i) {
    RISPP_CHECK(tenants[i].trace != nullptr && tenants[i].rtm != nullptr);
    check_replay_fits(*tenants[i].trace, *tenants[i].rtm);
    results[i].hot_spot_cycles.assign(tenants[i].trace->hot_spots.size(), 0);
    if (tenants[i].trace->instances.empty()) {
      // Zero instances: finalize with run_trace's semantics (the clock never
      // moves; atom_loads reports the port's completions) instead of leaving
      // the result default-initialized, then leave the round-robin.
      results[i].total_cycles = 0;
      results[i].atom_loads = tenants[i].rtm->completed_loads();
      arbiter.retire_tenant(tenants[i].tenant);
    } else {
      ++live;
    }
  }

  auto done = [&](std::size_t i) {
    return next_instance[i] >= tenants[i].trace->instances.size();
  };

  // One instance per pick, picked by linear min-clock scan (ties to the
  // lowest index) so fabric events are consumed in global simulated order.
  while (live > 0) {
    std::size_t pick = n;
    Cycles min_clock = std::numeric_limits<Cycles>::max();
    for (std::size_t i = 0; i < n; ++i) {
      if (done(i)) continue;
      if (clocks[i] < min_clock) {
        min_clock = clocks[i];
        pick = i;
      }
    }
    RISPP_CHECK(pick < n);

    TenantRun& t = tenants[pick];
    const std::size_t idx = next_instance[pick]++;
    const Cycles entered = clocks[pick];
    entries.add();
    clocks[pick] = replay_instance(*t.trace, idx, *t.rtm, t.stats, entered,
                                   results[pick].si_executions, segments[pick]);
    results[pick].hot_spot_cycles[t.trace->instances[idx].hot_spot] += clocks[pick] - entered;

    if (done(pick)) {
      // Done: leave the round-robin so a standing claim cannot stall the
      // other tenants' starvation accounting.
      results[pick].total_cycles = clocks[pick];
      results[pick].atom_loads = t.rtm->completed_loads();
      arbiter.retire_tenant(t.tenant);
      --live;
    }
  }
  return results;
}

}  // namespace rispp
