// rispp_fleet — the fleet-scale simulation service driver.
//
//   rispp_fleet [--sessions N] [--mix h264=4,jpeg=1] [--frames LO..HI]
//               [--schedulers HEF,SJF,...] [--acs LO..HI]
//               [--arrival all|uniform:<per_min>] [--block N] [--seed N]
//               [--stats] [--solo]
//
// Expands the session-mix spec deterministically (fleet/spec.h), replays
// every session through the batched fleet::SessionBatch core, and reports
// throughput (sessions/min), per-session completion-latency percentiles and
// shared-cache hit rates. RISPP_SESSIONS / RISPP_TENANTS override the
// defaults (flags beat the environment); garbage in either exits 2 naming
// the offender. RISPP_TRACE emits per-block fleet spans (track "fleet");
// RISPP_METRICS / RISPP_BENCH_JSON_DIR feed the BENCH_SUITE.json pipeline.
//
// --tenants N (N > 1) switches to the contended fleet: N consecutive
// sessions share one device's fabric through a FabricArbiter
// (--acs-per-tenant, --floor, --partition static|weighted), and the report
// shifts to simulated contention — aggregate speedup over software-only and
// per-tenant simulated-cycle percentiles (fleet/tenant_fleet.h).
//
// --solo replays the same fleet one session at a time through the
// single-session sim::run_trace path and cross-checks bit-identical results
// — the equivalence contract, runnable from the command line.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "base/env.h"
#include "base/table.h"
#include "bench/common.h"
#include "fleet/session_batch.h"
#include "fleet/spec.h"
#include "fleet/tenant_fleet.h"
#include "sched/registry.h"
#include "sim/executor.h"

namespace {

using namespace rispp;

int usage() {
  std::fprintf(stderr,
               "usage: rispp_fleet [--sessions N] [--mix h264=4,jpeg=1]\n"
               "                   [--frames LO..HI] [--schedulers HEF,SJF,...]\n"
               "                   [--acs LO..HI] [--arrival all|uniform:<per_min>]\n"
               "                   [--block N] [--seed N] [--stats] [--solo]\n"
               "                   [--tenants N] [--acs-per-tenant N] [--floor N]\n"
               "                   [--partition static|weighted]\n");
  return 2;
}

long int_flag_or_die(const char* label, const char* text, long min_value, long max_value) {
  const auto value = parse_int_strict(text, min_value, max_value);
  if (!value) {
    std::fprintf(stderr, "%s=%s is not an integer in [%ld, %ld]\n", label, text, min_value,
                 max_value);
    std::exit(kEnvParseExitCode);
  }
  return *value;
}

/// Replays session `s` alone through the single-session path and compares
/// against the batch, proving the fleet restructuring changed nothing.
bool check_solo(const fleet::SessionBatch& batch, std::size_t s) {
  const fleet::SessionSpec& spec = batch.spec(s);
  const fleet::TraceEntry& entry = fleet::TraceRepository::global().get(spec);
  const auto scheduler = make_scheduler(spec.scheduler);
  RtmConfig config;
  config.container_count = spec.container_count;
  config.scheduler = scheduler.get();
  config.forecast_mode = spec.forecast_mode;
  RunTimeManager rtm(&entry.set, entry.trace.hot_spots.size(), config);
  for (HotSpotId hs = 0; hs < entry.seeds.size(); ++hs)
    for (SiId si = 0; si < entry.seeds[hs].size(); ++si)
      if (entry.seeds[hs][si] != 0) rtm.seed_forecast(hs, si, entry.seeds[hs][si]);
  const SimResult solo = run_trace(entry.trace, rtm);
  const SimResult fleet_result = batch.result(s);
  if (solo.total_cycles == fleet_result.total_cycles &&
      solo.si_executions == fleet_result.si_executions &&
      solo.atom_loads == fleet_result.atom_loads &&
      solo.hot_spot_cycles == fleet_result.hot_spot_cycles)
    return true;
  std::fprintf(stderr,
               "session %zu diverged from solo replay: cycles %llu vs %llu, "
               "executions %llu vs %llu, loads %llu vs %llu\n",
               s, static_cast<unsigned long long>(fleet_result.total_cycles),
               static_cast<unsigned long long>(solo.total_cycles),
               static_cast<unsigned long long>(fleet_result.si_executions),
               static_cast<unsigned long long>(solo.si_executions),
               static_cast<unsigned long long>(fleet_result.atom_loads),
               static_cast<unsigned long long>(solo.atom_loads));
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  fleet::FleetSpec spec;
  fleet::apply_fleet_env(spec);
  fleet::FleetOptions options;
  bool solo_check = false;

  std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const char* value = i + 1 < args.size() ? args[i + 1].c_str() : nullptr;
    if (arg == "--stats") {
      options.collect_stats = true;
    } else if (arg == "--solo") {
      solo_check = true;
    } else if (value == nullptr) {
      return usage();
    } else if (arg == "--sessions") {
      spec.sessions = static_cast<int>(int_flag_or_die("--sessions", value, 1, 10'000'000));
      ++i;
    } else if (arg == "--mix") {
      fleet::parse_mix_or_die("--mix", value, spec);
      ++i;
    } else if (arg == "--frames") {
      fleet::parse_range_or_die("--frames", value, 1, 10'000, spec.frames_min,
                                spec.frames_max);
      ++i;
    } else if (arg == "--schedulers") {
      spec.schedulers = fleet::parse_schedulers_or_die("--schedulers", value);
      ++i;
    } else if (arg == "--acs") {
      fleet::parse_range_or_die("--acs", value, 1, 1'000, spec.acs_min, spec.acs_max);
      ++i;
    } else if (arg == "--arrival") {
      spec.arrival_per_min = fleet::parse_arrival_or_die("--arrival", value);
      ++i;
    } else if (arg == "--block") {
      options.block_size =
          static_cast<unsigned>(int_flag_or_die("--block", value, 1, 1'000'000));
      ++i;
    } else if (arg == "--seed") {
      spec.seed = static_cast<std::uint64_t>(
          int_flag_or_die("--seed", value, 0, 1'000'000'000'000L));
      ++i;
    } else if (arg == "--tenants") {
      spec.tenants = static_cast<int>(int_flag_or_die(
          "--tenants", value, 1, static_cast<long>(FabricArbiter::kMaxTenants)));
      ++i;
    } else if (arg == "--acs-per-tenant") {
      spec.acs_per_tenant =
          static_cast<int>(int_flag_or_die("--acs-per-tenant", value, 1, 1'000));
      ++i;
    } else if (arg == "--floor") {
      spec.tenant_floor = static_cast<int>(int_flag_or_die("--floor", value, 1, 1'000));
      ++i;
    } else if (arg == "--partition") {
      spec.partition = fleet::parse_partition_or_die("--partition", value);
      ++i;
    } else {
      return usage();
    }
  }

  const std::vector<fleet::SessionSpec> sessions = fleet::expand_fleet_spec(spec);

  if (spec.tenants > 1) {
    // Contended mode: sessions share devices; the classic batch (and its
    // wall-clock latency metrics) does not apply.
    fleet::ContendedOptions contended;
    contended.tenants_per_device = spec.tenants;
    contended.acs_per_tenant = spec.acs_per_tenant;
    contended.floor = spec.tenant_floor;
    contended.partition = spec.partition;
    std::printf("contended fleet: %zu sessions, %d tenants/device, %d ACs/tenant\n",
                sessions.size(), spec.tenants, spec.acs_per_tenant);
    fleet::ContendedReport report;
    {
      bench::BenchPerfLog perf("fleet");
      perf.set_cells(sessions.size());
      report = fleet::run_contended_fleet(sessions, contended);
    }
    TextTable table({"metric", "value"});
    table.add("sessions", report.sessions);
    table.add("devices", report.devices);
    table.add("wall seconds", format_fixed(report.wall_seconds, 3));
    table.add("sessions/min", format_fixed(report.sessions_per_min, 0));
    table.add("aggregate speedup", format_fixed(report.aggregate_speedup, 3));
    table.add("sim cycles p50", report.sim_cycles_p50);
    table.add("sim cycles p99", report.sim_cycles_p99);
    table.add("port grants", report.grants);
    table.add("cross-tenant evictions", report.evictions);
    table.add("port wait cycles", report.port_wait_cycles);
    table.add("cycles checksum", report.cycles_checksum);
    std::fputs(table.render().c_str(), stdout);
    return 0;
  }

  fleet::SessionBatch batch(sessions, options);
  std::printf("fleet: %zu sessions, %zu cohorts, %zu blocks\n", batch.session_count(),
              batch.cohort_count(), batch.block_count());

  fleet::FleetReport report;
  {
    bench::BenchPerfLog perf("fleet");
    perf.set_cells(sessions.size());
    report = fleet::run_fleet(batch);
  }

  TextTable table({"metric", "value"});
  table.add("sessions", report.sessions);
  table.add("wall seconds", format_fixed(report.wall_seconds, 3));
  table.add("sessions/min", format_fixed(report.sessions_per_min, 0));
  table.add("latency p50 (ms)", format_fixed(report.latency_p50_ms, 2));
  table.add("latency p99 (ms)", format_fixed(report.latency_p99_ms, 2));
  table.add("decision cache hits", report.cache_hits);
  table.add("decision cache misses", report.cache_misses);
  table.add("cross-session hits", report.cross_session_hits);
  table.add("cross-session hit rate", format_fixed(report.cross_session_hit_rate, 3));
  table.add("cycles checksum", report.cycles_checksum);
  std::fputs(table.render().c_str(), stdout);

  if (solo_check) {
    std::size_t diverged = 0;
    for (std::size_t s = 0; s < batch.session_count(); ++s)
      if (!check_solo(batch, s)) ++diverged;
    if (diverged != 0) {
      std::fprintf(stderr, "FAIL: %zu of %zu sessions diverged from the solo path\n",
                   diverged, batch.session_count());
      return 1;
    }
    std::printf("solo cross-check: all %zu sessions bit-identical\n", batch.session_count());
  }
  return 0;
}
