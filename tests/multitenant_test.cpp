// Multi-tenant fabric arbitration (DESIGN §9).
//
// The load-bearing test is SoloEquivalencePerScheduler: a 1-tenant arbiter
// must be *bit-identical* to the pre-arbiter solo RunTimeManager — same
// SimResult, same SimStats buckets and latency timelines — across all four
// schedulers and both replay paths. The arbiter indirection (ContainerFile
// quotas, port grants through try_start, the co-simulation loop) may only
// matter when a second tenant exists.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/metrics.h"
#include "base/parallel.h"
#include "fleet/session.h"
#include "fleet/tenant_fleet.h"
#include "fleet/trace_repository.h"
#include "isa/h264_si_library.h"
#include "rtm/fabric_arbiter.h"
#include "rtm/run_time_manager.h"
#include "rtm/tenant_sim.h"
#include "sched/registry.h"
#include "sim/executor.h"

namespace rispp {
namespace {

using fleet::Content;
using fleet::SessionSpec;
using fleet::TraceEntry;
using fleet::TraceRepository;

SessionSpec small_session(Content content, int frames, const std::string& scheduler,
                          unsigned acs) {
  SessionSpec spec;
  spec.content = content;
  spec.frames = frames;
  spec.width = content == Content::kH264 ? 96 : 128;
  spec.height = content == Content::kH264 ? 64 : 96;
  spec.scheduler = scheduler;
  spec.container_count = acs;
  return spec;
}

void seed_from_entry(const TraceEntry& entry, RunTimeManager& rtm) {
  for (HotSpotId hs = 0; hs < entry.seeds.size(); ++hs)
    for (SiId si = 0; si < entry.seeds[hs].size(); ++si)
      if (entry.seeds[hs][si] != 0) rtm.seed_forecast(hs, si, entry.seeds[hs][si]);
}

void expect_stats_equal(const SimStats& solo, const SimStats& tenant,
                        std::size_t si_count) {
  ASSERT_EQ(solo.bucket_count(), tenant.bucket_count());
  for (SiId si = 0; si < si_count; ++si) {
    EXPECT_EQ(solo.executions(si), tenant.executions(si)) << "si " << si;
    for (std::size_t b = 0; b < solo.bucket_count(); ++b)
      ASSERT_EQ(solo.bucket_executions(si, b), tenant.bucket_executions(si, b))
          << "si " << si << " bucket " << b;
    const auto& st = solo.latency_timeline(si);
    const auto& tt = tenant.latency_timeline(si);
    ASSERT_EQ(st.size(), tt.size()) << "si " << si;
    for (std::size_t p = 0; p < st.size(); ++p) {
      EXPECT_EQ(st[p].at, tt[p].at) << "si " << si;
      EXPECT_EQ(st[p].latency, tt[p].latency) << "si " << si;
    }
  }
}

/// Replays `entry` through a 1-tenant arbiter and through the solo path and
/// demands bit-identical results.
void check_one_tenant_equivalence(const TraceEntry& entry, const SessionSpec& spec,
                                  bool collect_stats) {
  SCOPED_TRACE(spec.scheduler + (collect_stats ? " stats" : " span"));
  const auto solo_scheduler = make_scheduler(spec.scheduler);
  RtmConfig solo_config;
  solo_config.container_count = spec.container_count;
  solo_config.scheduler = solo_scheduler.get();
  solo_config.forecast_mode = spec.forecast_mode;
  RunTimeManager solo_rtm(&entry.set, entry.trace.hot_spots.size(), solo_config);
  seed_from_entry(entry, solo_rtm);
  SimStats solo_stats(entry.set.si_count());
  const SimResult solo =
      run_trace(entry.trace, solo_rtm, collect_stats ? &solo_stats : nullptr);

  ArbiterConfig arb_config;
  arb_config.total_containers = spec.container_count;
  FabricArbiter arbiter(arb_config);
  TenantConfig tenant_config;
  tenant_config.quota = spec.container_count;
  const TenantId tenant = arbiter.add_tenant(tenant_config);
  const auto scheduler = make_scheduler(spec.scheduler);
  RtmConfig config;
  config.scheduler = scheduler.get();
  config.forecast_mode = spec.forecast_mode;
  config.arbiter = &arbiter;
  config.tenant = tenant;
  RunTimeManager rtm(&entry.set, entry.trace.hot_spots.size(), config);
  seed_from_entry(entry, rtm);
  SimStats tenant_stats(entry.set.si_count());
  TenantRun run;
  run.tenant = tenant;
  run.trace = &entry.trace;
  run.rtm = &rtm;
  run.stats = collect_stats ? &tenant_stats : nullptr;
  std::vector<TenantRun> runs{run};
  const std::vector<SimResult> results = run_tenants(arbiter, std::span<TenantRun>(runs));
  ASSERT_EQ(results.size(), 1u);

  EXPECT_EQ(solo.total_cycles, results[0].total_cycles);
  EXPECT_EQ(solo.si_executions, results[0].si_executions);
  EXPECT_EQ(solo.atom_loads, results[0].atom_loads);
  EXPECT_EQ(solo.hot_spot_cycles, results[0].hot_spot_cycles);
  if (collect_stats) expect_stats_equal(solo_stats, tenant_stats, entry.set.si_count());
}

TEST(Multitenant, SoloEquivalencePerScheduler) {
  TraceRepository repo;
  for (const std::string& name : scheduler_names()) {
    const SessionSpec h264 = small_session(Content::kH264, 2, name, 8);
    check_one_tenant_equivalence(repo.get(h264), h264, /*collect_stats=*/true);
    check_one_tenant_equivalence(repo.get(h264), h264, /*collect_stats=*/false);
    const SessionSpec jpeg = small_session(Content::kJpeg, 1, name, 6);
    check_one_tenant_equivalence(repo.get(jpeg), jpeg, /*collect_stats=*/true);
  }
}

/// Builds a bound 2-tenant arbiter over the H.264 atom library for the port
/// unit tests. The RTMs exist only to bind the tenants' container views.
struct TwoTenantFixture {
  std::unique_ptr<SpecialInstructionSet> set;
  std::unique_ptr<AtomScheduler> scheduler;
  FabricArbiter arbiter;
  TenantId a;
  TenantId b;
  std::unique_ptr<RunTimeManager> rtm_a;
  std::unique_ptr<RunTimeManager> rtm_b;

  TwoTenantFixture(unsigned weight_a, unsigned weight_b, ArbiterConfig config)
      : set(std::make_unique<SpecialInstructionSet>(h264sis::build_h264_si_set())),
        scheduler(make_scheduler("HEF")),
        arbiter(config) {
    TenantConfig ta;
    ta.quota = config.total_containers / 2;
    ta.weight = weight_a;
    TenantConfig tb = ta;
    tb.weight = weight_b;
    a = arbiter.add_tenant(ta);
    b = arbiter.add_tenant(tb);
    RtmConfig rc;
    rc.scheduler = scheduler.get();
    rc.arbiter = &arbiter;
    rc.tenant = a;
    rtm_a = std::make_unique<RunTimeManager>(set.get(), 1, rc);
    rc.tenant = b;
    rtm_b = std::make_unique<RunTimeManager>(set.get(), 1, rc);
  }
};

TEST(Multitenant, StarvationBoundCapsConsecutiveDenials) {
  // Tenant A's weight dwarfs B's, and B's round-robin pass starts far ahead
  // (it took one early grant): pure stride scheduling would deny B for ~1000
  // epochs. The starvation bound must hand B the port after at most
  // `starvation_bound` consecutive lost epochs.
  ArbiterConfig config;
  config.total_containers = 8;
  config.starvation_bound = 4;
  TwoTenantFixture fx(/*weight_a=*/1000, /*weight_b=*/1, config);
  FabricArbiter& arbiter = fx.arbiter;
  const Cycles load = arbiter.load_cycles(fx.b, 0);
  ASSERT_GT(load, 0u);

  // B takes one free grant, pushing its pass a full stride (1<<16) ahead.
  Cycles now = 0;
  ASSERT_FALSE(arbiter.try_start(fx.b, 0, 0, now).has_value());
  now += load;
  arbiter.retire(fx.b, now);

  unsigned b_denials = 0;
  bool b_granted = false;
  for (int round = 0; round < 30 && !b_granted; ++round) {
    // A asks first each round; B asks one cycle into A's load.
    const auto a_result = arbiter.try_start(fx.a, 0, 0, now);
    const auto b_result = arbiter.try_start(fx.b, 0, 0, now + 1);
    if (!b_result.has_value()) {
      b_granted = true;
      break;
    }
    ++b_denials;
    EXPECT_GT(*b_result, now) << "retry hint must make progress";
    if (!a_result.has_value()) {
      now += load;
      arbiter.retire(fx.a, now);
    } else {
      now = *a_result;
    }
  }
  EXPECT_TRUE(b_granted);
  EXPECT_LE(b_denials, config.starvation_bound + 1);
  EXPECT_GT(arbiter.port_wait_cycles(), 0u);
  arbiter.check_invariants();
}

TEST(Multitenant, RetiredClaimantsLeaveTheRoundRobin) {
  // B parks a claim (denied while A's load is in flight) and then retires.
  // A must win the next free port outright — a dead claimant may never block
  // the fabric.
  ArbiterConfig config;
  config.total_containers = 8;
  TwoTenantFixture fx(/*weight_a=*/1, /*weight_b=*/1000, config);
  FabricArbiter& arbiter = fx.arbiter;
  const Cycles load = arbiter.load_cycles(fx.a, 0);

  ASSERT_FALSE(arbiter.try_start(fx.a, 0, 0, 0).has_value());
  ASSERT_TRUE(arbiter.try_start(fx.b, 0, 0, 1).has_value());  // denied: port busy
  arbiter.retire(fx.a, load);
  arbiter.retire_tenant(fx.b);
  // With B retired its claim is gone; A (the only live tenant) gets the port
  // even though B's pass would have won.
  EXPECT_FALSE(arbiter.try_start(fx.a, 0, 1, load).has_value());
  arbiter.check_invariants();
}

TEST(Multitenant, FreePortWonByAnotherClaimantDefersTheRetryToOthers) {
  // A takes the port; B, denied while it is busy, parks a claim and learns
  // the cycle the port frees up. When A re-asks after its load retired, the
  // port is free but round-robin prefers the waiting B: only B's next call
  // can change that, so the hint names no cycle, and asking again later in
  // the same grant epoch is a fixed point that moves no arbiter state.
  ArbiterConfig config;
  config.total_containers = 8;
  TwoTenantFixture fx(/*weight_a=*/1, /*weight_b=*/1, config);
  FabricArbiter& arbiter = fx.arbiter;
  const Cycles load = arbiter.load_cycles(fx.a, 0);
  ASSERT_GT(load, 1u);
  const std::optional<Cycles> after_others = FabricArbiter::kRetryAfterOthers;

  ASSERT_FALSE(arbiter.try_start(fx.a, 0, 0, 0).has_value());
  EXPECT_EQ(arbiter.precheck(fx.b, 1), std::optional<Cycles>(load));  // busy port
  EXPECT_EQ(arbiter.try_start(fx.b, 0, 0, 2), std::optional<Cycles>(load));
  arbiter.retire(fx.a, load);

  EXPECT_EQ(arbiter.try_start(fx.a, 0, 1, load), after_others);
  const FabricArbiter::ClaimState a_claim = arbiter.claim_state(fx.a);
  EXPECT_TRUE(a_claim.claim);
  EXPECT_EQ(a_claim.waiting_since, load);
  EXPECT_EQ(a_claim.denied_epochs, 1u);
  const FabricArbiter::ClaimState b_claim = arbiter.claim_state(fx.b);
  const std::uint64_t grants = arbiter.grants();
  const std::uint64_t waited = arbiter.port_wait_cycles();
  for (const Cycles later : {load + 1, 2 * load, 1000 * load}) {
    EXPECT_EQ(arbiter.precheck(fx.a, later), after_others) << later;
    EXPECT_EQ(arbiter.claim_state(fx.a), a_claim) << later;
    EXPECT_EQ(arbiter.claim_state(fx.b), b_claim) << later;
    EXPECT_EQ(arbiter.grants(), grants) << later;
    EXPECT_EQ(arbiter.port_wait_cycles(), waited) << later;
  }

  // B's call lifts the denial: B wins the free port, having waited since its
  // first denial, and A's next denial names the busy port's free cycle again.
  const Cycles b_start = load + 5;
  ASSERT_FALSE(arbiter.try_start(fx.b, 0, 0, b_start).has_value());
  EXPECT_EQ(arbiter.port_wait_cycles(), waited + (b_start - 1));
  EXPECT_EQ(arbiter.precheck(fx.a, b_start + 1), std::optional<Cycles>(b_start + load));
  arbiter.check_invariants();
}

TEST(Multitenant, ReplayWindowsScaleWithGrantsNotInstanceLength) {
  // A tenant waiting on a free port another claimant won keeps its replay
  // window open to its next hot-spot entry, because nothing it asks before
  // then can be granted. Windows therefore follow port grants and hot-spot
  // entries, whatever the instance length: a window closed at every load
  // duration of such a wait would make longer instances open more of them.
  const auto windows_per_event = [](int width, int height) {
    TraceRepository repo;
    std::vector<SessionSpec> specs;
    for (int s = 0; s < 8; ++s) {
      SessionSpec spec = small_session(Content::kH264, 2, s % 2 == 0 ? "HEF" : "SJF", 6);
      spec.width = width;
      spec.height = height;
      specs.push_back(spec);
    }
    fleet::ContendedOptions options;
    options.tenants_per_device = 8;
    options.acs_per_tenant = 6;
    options.partition = PartitionMode::kBenefitWeighted;
    options.traces = &repo;
    ThreadPool serial(1);
    options.pool = &serial;
    MetricCounter& windows = metric_counter("sim.replay.windows");
    MetricCounter& entries = metric_counter("sim.hot_spot_entries");
    const std::uint64_t windows_before = windows.value();
    const std::uint64_t entries_before = entries.value();
    const fleet::ContendedReport report = fleet::run_contended_fleet(specs, options);
    const std::uint64_t events = report.grants + (entries.value() - entries_before);
    EXPECT_GT(report.grants, 0u);
    return static_cast<double>(windows.value() - windows_before) / static_cast<double>(events);
  };
  const double small = windows_per_event(96, 64);
  const double large = windows_per_event(384, 256);  // 16x the executions per instance
  EXPECT_LE(small, 2.0);
  EXPECT_LE(large, 2.0);
}

TEST(Multitenant, QuotaFloorsSurviveWeightedRebalance) {
  // A one-sided benefit signal under kBenefitWeighted: every rebalance pulls
  // containers toward the heavy tenant, but the light tenant — while live —
  // never drops below its floor, and the fabric never oversubscribes.
  ArbiterConfig config;
  config.total_containers = 8;
  config.partition = PartitionMode::kBenefitWeighted;
  config.rebalance_period = 1;
  TwoTenantFixture fx(/*weight_a=*/1, /*weight_b=*/1, config);
  FabricArbiter& arbiter = fx.arbiter;
  const unsigned floor_b = arbiter.floor(fx.b);
  ASSERT_GE(floor_b, 1u);
  for (int step = 0; step < 16; ++step) {
    arbiter.on_decision_point(fx.a, 1'000'000, static_cast<Cycles>(step) * 100);
    arbiter.on_decision_point(fx.b, 0, static_cast<Cycles>(step) * 100 + 50);
    arbiter.check_invariants();
    EXPECT_GE(arbiter.quota(fx.b), floor_b) << "step " << step;
    EXPECT_LE(arbiter.quota(fx.a) + arbiter.quota(fx.b), config.total_containers);
  }
  // The signal did move containers: the heavy tenant grew past its static
  // half, the light tenant sits exactly on its floor.
  EXPECT_GT(arbiter.quota(fx.a), config.total_containers / 2);
  EXPECT_EQ(arbiter.quota(fx.b), floor_b);
  EXPECT_EQ(arbiter.quota(fx.a) + arbiter.quota(fx.b), config.total_containers);
}

TEST(Multitenant, WeightedCoSimulationHoldsInvariantsEndToEnd) {
  // A heavy and a light tenant co-simulated under kBenefitWeighted: both
  // finish, and the arbiter's invariants hold before and after (floors only
  // bind *live* tenants — a retired tenant surrenders its containers at the
  // next rebalance, which is what lets the survivor absorb the fabric).
  TraceRepository repo;
  const SessionSpec heavy = small_session(Content::kH264, 3, "HEF", 6);
  const SessionSpec light = small_session(Content::kJpeg, 1, "SJF", 6);
  const TraceEntry& heavy_entry = repo.get(heavy);
  const TraceEntry& light_entry = repo.get(light);

  ArbiterConfig config;
  config.total_containers = 12;
  config.partition = PartitionMode::kBenefitWeighted;
  config.rebalance_period = 2;
  FabricArbiter arbiter(config);
  TenantConfig tenant;
  tenant.quota = 6;
  tenant.floor = 2;
  const TenantId t_heavy = arbiter.add_tenant(tenant);
  const TenantId t_light = arbiter.add_tenant(tenant);

  const auto hef = make_scheduler("HEF");
  const auto sjf = make_scheduler("SJF");
  RtmConfig rc_heavy;
  rc_heavy.scheduler = hef.get();
  rc_heavy.arbiter = &arbiter;
  rc_heavy.tenant = t_heavy;
  RunTimeManager rtm_heavy(&heavy_entry.set, heavy_entry.trace.hot_spots.size(), rc_heavy);
  seed_from_entry(heavy_entry, rtm_heavy);
  RtmConfig rc_light;
  rc_light.scheduler = sjf.get();
  rc_light.arbiter = &arbiter;
  rc_light.tenant = t_light;
  RunTimeManager rtm_light(&light_entry.set, light_entry.trace.hot_spots.size(), rc_light);
  seed_from_entry(light_entry, rtm_light);

  std::vector<TenantRun> runs(2);
  runs[0] = {t_heavy, &heavy_entry.trace, &rtm_heavy, nullptr};
  runs[1] = {t_light, &light_entry.trace, &rtm_light, nullptr};
  arbiter.check_invariants();
  const auto results = run_tenants(arbiter, std::span<TenantRun>(runs));
  arbiter.check_invariants();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_GT(results[0].total_cycles, 0u);
  EXPECT_GT(results[1].total_cycles, 0u);
  EXPECT_LE(arbiter.quota(t_heavy) + arbiter.quota(t_light), config.total_containers);
}

TEST(Multitenant, StaticContentionNeverBeatsTheUncontendedDevice) {
  // Under kStatic partitioning a tenant makes exactly the decisions it would
  // make alone with container_count == quota; the shared port can only delay
  // its upgrades. Simulated cycles are therefore bounded below by the solo
  // run at the same quota.
  TraceRepository repo;
  const SessionSpec spec = small_session(Content::kH264, 2, "HEF", 6);
  const TraceEntry& entry = repo.get(spec);

  const auto solo_scheduler = make_scheduler(spec.scheduler);
  RtmConfig solo_config;
  solo_config.container_count = spec.container_count;
  solo_config.scheduler = solo_scheduler.get();
  RunTimeManager solo_rtm(&entry.set, entry.trace.hot_spots.size(), solo_config);
  seed_from_entry(entry, solo_rtm);
  const Cycles solo_cycles = run_trace(entry.trace, solo_rtm).total_cycles;

  ArbiterConfig config;
  config.total_containers = 12;
  FabricArbiter arbiter(config);
  TenantConfig tenant;
  tenant.quota = 6;
  const TenantId t0 = arbiter.add_tenant(tenant);
  const TenantId t1 = arbiter.add_tenant(tenant);
  const auto s0 = make_scheduler(spec.scheduler);
  const auto s1 = make_scheduler(spec.scheduler);
  RtmConfig rc0;
  rc0.scheduler = s0.get();
  rc0.arbiter = &arbiter;
  rc0.tenant = t0;
  RunTimeManager rtm0(&entry.set, entry.trace.hot_spots.size(), rc0);
  seed_from_entry(entry, rtm0);
  RtmConfig rc1;
  rc1.scheduler = s1.get();
  rc1.arbiter = &arbiter;
  rc1.tenant = t1;
  RunTimeManager rtm1(&entry.set, entry.trace.hot_spots.size(), rc1);
  seed_from_entry(entry, rtm1);

  std::vector<TenantRun> runs(2);
  runs[0] = {t0, &entry.trace, &rtm0, nullptr};
  runs[1] = {t1, &entry.trace, &rtm1, nullptr};
  const auto results = run_tenants(arbiter, std::span<TenantRun>(runs));
  EXPECT_GE(results[0].total_cycles, solo_cycles);
  EXPECT_GE(results[1].total_cycles, solo_cycles);
  EXPECT_EQ(results[0].si_executions, results[1].si_executions);
}

TEST(Multitenant, ContendedFleetIsDeterministicAcrossThreadCounts) {
  // Devices are independent serial co-simulations; fanning them over more
  // threads must not change a single simulated number. (This test carries
  // the TSan shard for the arbiter path.)
  TraceRepository repo;
  std::vector<SessionSpec> specs;
  for (int s = 0; s < 8; ++s)
    specs.push_back(small_session(s % 3 == 0 ? Content::kJpeg : Content::kH264,
                                  1 + s % 2, s % 2 == 0 ? "HEF" : "SJF", 6));
  fleet::ContendedOptions options;
  options.tenants_per_device = 4;
  options.acs_per_tenant = 6;
  options.partition = PartitionMode::kBenefitWeighted;
  options.traces = &repo;

  ThreadPool serial(1);
  options.pool = &serial;
  std::vector<SimResult> serial_results;
  const auto serial_report = fleet::run_contended_fleet(specs, options, &serial_results);

  ThreadPool wide(3);
  options.pool = &wide;
  std::vector<SimResult> wide_results;
  const auto wide_report = fleet::run_contended_fleet(specs, options, &wide_results);

  EXPECT_EQ(serial_report.cycles_checksum, wide_report.cycles_checksum);
  EXPECT_EQ(serial_report.grants, wide_report.grants);
  EXPECT_EQ(serial_report.evictions, wide_report.evictions);
  EXPECT_EQ(serial_report.port_wait_cycles, wide_report.port_wait_cycles);
  ASSERT_EQ(serial_results.size(), wide_results.size());
  for (std::size_t s = 0; s < serial_results.size(); ++s) {
    EXPECT_EQ(serial_results[s].total_cycles, wide_results[s].total_cycles) << s;
    EXPECT_EQ(serial_results[s].si_executions, wide_results[s].si_executions) << s;
    EXPECT_EQ(serial_results[s].atom_loads, wide_results[s].atom_loads) << s;
  }
  EXPECT_EQ(serial_report.devices, 2u);
  EXPECT_GT(serial_report.aggregate_speedup, 1.0);
}

TEST(Multitenant, EmptyTraceTenantsFinalizeAndRetireCleanly) {
  // A tenant whose trace has zero instances must retire immediately with
  // run_trace's semantics — total_cycles 0 and atom_loads populated from its
  // RTM (not left default-initialized) — while the remaining tenants replay
  // normally.
  TraceRepository repo;
  const SessionSpec spec = small_session(Content::kH264, 2, "HEF", 6);
  const TraceEntry& entry = repo.get(spec);
  WorkloadTrace empty_trace = entry.trace;
  empty_trace.instances.clear();

  ArbiterConfig config;
  config.total_containers = 18;
  FabricArbiter arbiter(config);
  TenantConfig tenant;
  tenant.quota = 6;
  std::vector<TenantId> ids(3);
  for (auto& id : ids) id = arbiter.add_tenant(tenant);

  std::vector<std::unique_ptr<AtomScheduler>> schedulers(3);
  std::vector<std::unique_ptr<RunTimeManager>> rtms(3);
  std::vector<TenantRun> runs(3);
  for (std::size_t i = 0; i < 3; ++i) {
    schedulers[i] = make_scheduler(spec.scheduler);
    RtmConfig rc;
    rc.scheduler = schedulers[i].get();
    rc.arbiter = &arbiter;
    rc.tenant = ids[i];
    rtms[i] = std::make_unique<RunTimeManager>(&entry.set, entry.trace.hot_spots.size(), rc);
    seed_from_entry(entry, *rtms[i]);
    runs[i].tenant = ids[i];
    runs[i].rtm = rtms[i].get();
    runs[i].trace = i == 1 ? &empty_trace : &entry.trace;
  }
  const auto results = run_tenants(arbiter, std::span<TenantRun>(runs));
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[1].total_cycles, 0u);
  EXPECT_EQ(results[1].si_executions, 0u);
  EXPECT_EQ(results[1].atom_loads, rtms[1]->completed_loads());
  EXPECT_EQ(results[1].hot_spot_cycles, std::vector<Cycles>(empty_trace.hot_spots.size(), 0));
  // The empty tenant left the round-robin before the first pick: the two
  // real tenants ran an ordinary 2-claimant co-simulation.
  EXPECT_GT(results[0].total_cycles, 0u);
  EXPECT_GT(results[2].total_cycles, 0u);
  EXPECT_EQ(results[0].si_executions, results[2].si_executions);
  arbiter.check_invariants();
}

TEST(Multitenant, OversubscribedQuotasAreAHardError) {
  ArbiterConfig config;
  config.total_containers = 8;
  FabricArbiter arbiter(config);
  TenantConfig tenant;
  tenant.quota = 6;
  arbiter.add_tenant(tenant);
  EXPECT_THROW(arbiter.add_tenant(tenant), std::logic_error);  // 12 > 8
  TenantConfig bad_floor;
  bad_floor.quota = 2;
  bad_floor.floor = 3;
  EXPECT_THROW(arbiter.add_tenant(bad_floor), std::logic_error);
}

}  // namespace
}  // namespace rispp
