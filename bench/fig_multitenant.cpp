// Multi-tenant contention: the fleet's aggregate speedup and per-tenant
// simulated-cycle percentiles as 1, 2, 4, 8 and 16 applications share one
// device's fabric through the FabricArbiter, under both partition modes
// (DESIGN §9), co-simulated by run_tenants' min-clock loop (DESIGN §9.1).
//
// Shape to look for: at 1 tenant both modes reproduce the solo speedup
// exactly (the arbiter degenerates to the private fabric — the equivalence
// contract lives in tests/multitenant_test.cpp). As tenants pile on, the
// shared reconfiguration port and the split fabric erode the aggregate
// speedup and stretch the p99 tail; kBenefitWeighted should hold more of
// the speedup than kStatic at the same tenant count by shifting containers
// toward the tenants with the most forecast mass, at the cost of
// cross-tenant evictions.
#include <cstdio>

#include "base/metrics.h"
#include "base/table.h"
#include "bench/common.h"
#include "fleet/spec.h"
#include "fleet/tenant_fleet.h"

int main() {
  using namespace rispp;
  bench::BenchPerfLog perf("fig_multitenant");

  const int frames = bench::bench_frames();
  const fleet::FleetSpec spec = bench::multitenant_fleet_spec(frames);
  const auto sessions = fleet::expand_fleet_spec(spec);

  const int tenant_counts[] = {1, 2, 4, 8, 16};
  const PartitionMode modes[] = {PartitionMode::kStatic,
                                 PartitionMode::kBenefitWeighted};
  std::size_t cells = 0;

  std::printf("Multi-tenant contention — %zu sessions, 8 ACs/tenant, frames %d..%d\n\n",
              sessions.size(), spec.frames_min, spec.frames_max);
  TextTable table({"tenants/device", "partition", "agg speedup", "sim p50", "sim p99",
                   "evictions", "port wait", "mispredicts", "avg churn"});
  // The registry metrics are cumulative across the whole process, so each
  // configuration's row reports the delta over its own run.
  const MetricCounter& mispredicts = metric_counter("rtm.forecast.mispredicts");
  const MetricHistogram& churn =
      metric_histogram("rtm.forecast.mispredict_reconfig_loads");
  for (const PartitionMode mode : modes) {
    for (const int tenants : tenant_counts) {
      fleet::ContendedOptions options;
      options.tenants_per_device = tenants;
      options.acs_per_tenant = 8;
      options.floor = 2;
      options.partition = mode;
      const std::uint64_t mispredicts0 = mispredicts.value();
      const HistogramSnapshot churn0 = churn.snapshot();
      const fleet::ContendedReport report =
          fleet::run_contended_fleet(sessions, options);
      cells += report.sessions;
      const std::uint64_t mispredicted = mispredicts.value() - mispredicts0;
      const HistogramSnapshot churn1 = churn.snapshot();
      const std::uint64_t churn_count = churn1.count - churn0.count;
      // Mispredict→reconfig churn: atom loads a forecast flip forced, per
      // mispredicted hot-spot entry.
      const double avg_churn =
          churn_count > 0
              ? static_cast<double>(churn1.sum - churn0.sum) /
                    static_cast<double>(churn_count)
              : 0.0;
      table.add(tenants, mode == PartitionMode::kStatic ? "static" : "weighted",
                format_fixed(report.aggregate_speedup, 3), report.sim_cycles_p50,
                report.sim_cycles_p99, report.evictions, report.port_wait_cycles,
                mispredicted, format_fixed(avg_churn, 2));
    }
  }
  perf.set_cells(cells);
  std::printf("%s\n", table.render().c_str());
  const HistogramSnapshot churn_total = churn.snapshot();
  std::printf("forecast mispredicts total: %llu, reconfig churn p50 %llu / p99 %llu loads\n",
              static_cast<unsigned long long>(mispredicts.value()),
              static_cast<unsigned long long>(churn_total.p(0.5)),
              static_cast<unsigned long long>(churn_total.p(0.99)));
  return 0;
}
