// Integration tests of the Run-Time Manager: gradual upgrading, trap
// fallback, reconfiguration interleaving, eviction across hot spots, and
// the Molen baseline contrast.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "base/prng.h"
#include "baselines/molen.h"
#include "baselines/software_only.h"
#include "baselines/static_asip.h"
#include "h264/workload.h"
#include "fleet/shared_decision_cache.h"
#include "isa/h264_si_library.h"
#include "jpeg/jpeg_si_library.h"
#include "rtm/fabric_arbiter.h"
#include "rtm/run_time_manager.h"
#include "sched/hef.h"
#include "sched/registry.h"
#include "select/selection.h"
#include "sim/executor.h"

namespace rispp {
namespace {

/// A long single-hot-spot trace over SAD+SATD (an ME instance).
WorkloadTrace me_trace(const SpecialInstructionSet& set, int executions) {
  const SiId sad = set.find("SAD").value();
  const SiId satd = set.find("SATD").value();
  WorkloadTrace trace;
  trace.hot_spots = {HotSpotInfo{"ME", {sad, satd}, 8}};
  HotSpotInstance inst;
  inst.hot_spot = 0;
  inst.entry_overhead = 1000;
  for (int i = 0; i < executions; ++i) inst.append(i % 8 == 7 ? satd : sad);
  trace.instances.push_back(std::move(inst));
  return trace;
}

RtmConfig config_with(const AtomScheduler* scheduler, unsigned acs) {
  RtmConfig config;
  config.container_count = acs;
  config.scheduler = scheduler;
  return config;
}

TEST(RunTimeManager, StartsInSoftwareAndUpgrades) {
  const auto set = h264sis::build_h264_si_set();
  const SiId sad = set.find("SAD").value();
  HefScheduler hef;
  RunTimeManager rtm(&set, 1, config_with(&hef, 12));
  rtm.seed_forecast(0, sad, 10'000);
  rtm.seed_forecast(0, set.find("SATD").value(), 1'500);

  const WorkloadTrace trace = me_trace(set, 4'000);
  SimStats stats(set.si_count());
  const SimResult result = run_trace(trace, rtm, &stats);

  // The latency timeline of SAD must start at the trap latency and descend.
  const auto& tl = stats.latency_timeline(sad);
  ASSERT_GE(tl.size(), 2u);
  EXPECT_EQ(tl.front().latency, set.si(sad).software_latency);
  for (std::size_t i = 1; i < tl.size(); ++i) EXPECT_LT(tl[i].latency, tl[i - 1].latency);
  EXPECT_LT(tl.back().latency, 40u);
  EXPECT_GT(result.atom_loads, 0u);
}

TEST(RunTimeManager, GradualUpgradeBeatsNoUpgradeBaseline) {
  // The Figure 2 claim: with stepwise upgrades the hot spot finishes earlier
  // than with single-implementation (Molen-like) SIs.
  const auto set = h264sis::build_h264_si_set();
  const WorkloadTrace trace = me_trace(set, 12'000);

  HefScheduler hef;
  RunTimeManager rtm(&set, 3, config_with(&hef, 14));
  h264::seed_default_forecasts(set, rtm);
  const SimResult upgraded = run_trace(trace, rtm);

  MolenConfig mc;
  mc.container_count = 14;
  MolenBackend molen(&set, 3, mc);
  h264::seed_default_forecasts(set, molen);
  const SimResult fixed = run_trace(trace, molen);

  EXPECT_LT(upgraded.total_cycles, fixed.total_cycles);
}

TEST(RunTimeManager, ZeroContainersBehavesLikeSoftware) {
  const auto set = h264sis::build_h264_si_set();
  const WorkloadTrace trace = me_trace(set, 500);
  HefScheduler hef;
  RunTimeManager rtm(&set, 3, config_with(&hef, 0));
  h264::seed_default_forecasts(set, rtm);
  SoftwareOnlyBackend sw(&set);
  EXPECT_EQ(run_trace(trace, rtm).total_cycles, run_trace(trace, sw).total_cycles);
}

TEST(RunTimeManager, MoreContainersNeverSlower) {
  const auto set = h264sis::build_h264_si_set();
  const WorkloadTrace trace = me_trace(set, 8'000);
  Cycles prev = kMaxCycles;
  for (unsigned acs : {4u, 8u, 12u, 17u}) {
    HefScheduler hef;
    RunTimeManager rtm(&set, 3, config_with(&hef, acs));
    h264::seed_default_forecasts(set, rtm);
    const Cycles t = run_trace(trace, rtm).total_cycles;
    EXPECT_LE(t, prev) << acs;
    prev = t;
  }
}

TEST(RunTimeManager, WarmStartSkipsReloadingResidentAtoms) {
  const auto set = h264sis::build_h264_si_set();
  WorkloadTrace trace = me_trace(set, 6'000);
  // Append a second identical ME instance: its schedule should need almost
  // no additional loads.
  trace.instances.push_back(trace.instances.front());
  HefScheduler hef;
  RunTimeManager rtm(&set, 3, config_with(&hef, 17));
  h264::seed_default_forecasts(set, rtm);
  SimStats stats(set.si_count());
  (void)run_trace(trace, rtm, &stats);
  // Second instance runs at full speed immediately: the latency timeline has
  // no regression back to software.
  const SiId sad = set.find("SAD").value();
  const auto& tl = stats.latency_timeline(sad);
  for (std::size_t i = 1; i < tl.size(); ++i)
    EXPECT_LE(tl[i].latency, tl[i - 1].latency);
}

TEST(RunTimeManager, EvictionRepurposesContainersAcrossHotSpots) {
  const auto set = h264sis::build_h264_si_set();
  const SiId sad = set.find("SAD").value();
  const SiId dct = set.find("(I)DCT").value();
  WorkloadTrace trace;
  trace.hot_spots = {HotSpotInfo{"ME", {sad}, 8}, HotSpotInfo{"EE", {dct}, 8}};
  // Alternate hot spots; 4 containers force eviction at each switch.
  for (int rep = 0; rep < 4; ++rep) {
    trace.instances.push_back(HotSpotInstance{0, std::vector<SiId>(3000, sad), 1000});
    trace.instances.push_back(HotSpotInstance{1, std::vector<SiId>(3000, dct), 1000});
  }
  HefScheduler hef;
  RunTimeManager rtm(&set, 2, config_with(&hef, 4));
  rtm.seed_forecast(0, sad, 3000);
  rtm.seed_forecast(1, dct, 3000);
  const SimResult r = run_trace(trace, rtm);
  // Each switch reloads: far more loads than the 4 containers.
  EXPECT_GT(r.atom_loads, 12u);
  // Fewer cycles than software-only nevertheless.
  SoftwareOnlyBackend sw(&set);
  EXPECT_LT(r.total_cycles, run_trace(trace, sw).total_cycles);
}

TEST(RunTimeManager, MonitoringAdaptsForecastsAcrossInstances) {
  const auto set = h264sis::build_h264_si_set();
  const SiId sad = set.find("SAD").value();
  WorkloadTrace trace = me_trace(set, 2'000);
  trace.instances.push_back(trace.instances.front());
  HefScheduler hef;
  RunTimeManager rtm(&set, 1, config_with(&hef, 10));
  rtm.seed_forecast(0, sad, 1);  // wildly wrong seed
  (void)run_trace(trace, rtm);
  // After two instances the forecast reflects the measured ~1750 SADs.
  EXPECT_GT(rtm.monitor().forecast(0)[sad], 1'000u);
}

TEST(RunTimeManager, PrefetchStartsNextHotSpotsAtomsEarly) {
  // Alternating ME/EE style hot spots with spare containers: with prefetch
  // the port keeps working between hot spots, so entries find more atoms
  // resident and the run is never slower.
  const auto set = h264sis::build_h264_si_set();
  const SiId sad = set.find("SAD").value();
  const SiId dct = set.find("(I)DCT").value();
  WorkloadTrace trace;
  trace.hot_spots = {HotSpotInfo{"ME", {sad}, 8}, HotSpotInfo{"EE", {dct}, 8}};
  for (int rep = 0; rep < 6; ++rep) {
    trace.instances.push_back(HotSpotInstance{0, std::vector<SiId>(20'000, sad), 1000});
    trace.instances.push_back(HotSpotInstance{1, std::vector<SiId>(6'000, dct), 1000});
  }
  Cycles cycles[2];
  for (int pf = 0; pf < 2; ++pf) {
    HefScheduler hef;
    RtmConfig config = config_with(&hef, 14);
    config.enable_prefetch = pf == 1;
    RunTimeManager rtm(&set, 2, config);
    rtm.seed_forecast(0, sad, 20'000);
    rtm.seed_forecast(1, dct, 6'000);
    cycles[pf] = run_trace(trace, rtm).total_cycles;
  }
  EXPECT_LE(cycles[1], cycles[0]);
}

TEST(RunTimeManager, PrefetchForecastSourceFollowsForecastMode) {
  // compute_prefetch picks the forecast that predicts the successor hot spot
  // per ForecastMode: the seeds under kStaticSeeds, the monitor under
  // kMonitored — and under kOracle too, deliberately: the oracle only knows
  // the *current* instance's exact counts, so oracle prefetch falls back to
  // the monitored forecast. This pins the once-silent ternary fall-through
  // as documented behavior. Observable: every prefetch decision is one extra
  // decide() call in the decision-cache counters.
  const auto set = h264sis::build_h264_si_set();
  const SiId sad = set.find("SAD").value();
  const SiId dct = set.find("(I)DCT").value();
  // The EE hot spot is deliberately id 0: the successor table defaults to 0,
  // so the only non-self successor prediction in this trace is "after ME
  // comes EE", observed at instance 1 and acted on during instance 2. That
  // makes instance 2 the single prefetch opportunity — one decide() call,
  // cleanly attributable.
  WorkloadTrace trace;
  trace.hot_spots = {HotSpotInfo{"EE", {dct}, 8}, HotSpotInfo{"ME", {sad}, 8}};
  trace.instances.push_back(HotSpotInstance{1, std::vector<SiId>(8'000, sad), 1000});
  trace.instances.push_back(HotSpotInstance{0, std::vector<SiId>(3'000, dct), 1000});
  // Long enough for the port to drain and prefetch for the predicted
  // successor (EE).
  trace.instances.push_back(HotSpotInstance{1, std::vector<SiId>(20'000, sad), 1000});

  const auto decisions_with = [&](ForecastMode mode, bool prefetch) {
    HefScheduler hef;
    RtmConfig config = config_with(&hef, 14);
    config.enable_prefetch = prefetch;
    config.forecast_mode = mode;
    RunTimeManager rtm(&set, 2, config);
    rtm.seed_forecast(1, sad, 8'000);
    // EE is deliberately NOT seeded: a prefetch that consults the seeds
    // sees an all-zero forecast for it and decides nothing, while one
    // consulting the monitor sees the ~3000 DCTs measured at instance 1.
    (void)run_trace(trace, rtm);
    return rtm.decision_cache_hits() + rtm.decision_cache_misses();
  };

  // Without prefetch: exactly one decision per hot-spot entry, every mode.
  for (const ForecastMode mode :
       {ForecastMode::kMonitored, ForecastMode::kStaticSeeds, ForecastMode::kOracle})
    ASSERT_EQ(decisions_with(mode, false), 3u);

  // With prefetch: instance 2 prefetches for EE only when the mode's
  // forecast source knows about it — the monitor does, the seeds do not.
  EXPECT_EQ(decisions_with(ForecastMode::kMonitored, true), 4u);
  EXPECT_EQ(decisions_with(ForecastMode::kOracle, true), 4u)
      << "oracle prefetch must fall back to the monitored forecast";
  EXPECT_EQ(decisions_with(ForecastMode::kStaticSeeds, true), 3u)
      << "static-seeds prefetch must consult the seeds, not the monitor";
}

TEST(RunTimeManager, DecisionCacheEvictsLeastRecentlyUsed) {
  // Three hot spots with distinct SI lists are three distinct cache keys;
  // capacity 2 forces eviction on every third distinct entry. `now` stays 0
  // so the port never retires a load and the ready-atom part of the key is
  // fixed; static seeds fix the forecast part.
  const auto set = h264sis::build_h264_si_set();
  const SiId sad = set.find("SAD").value();
  const SiId satd = set.find("SATD").value();
  const SiId dct = set.find("(I)DCT").value();
  WorkloadTrace trace;
  trace.hot_spots = {HotSpotInfo{"A", {sad}, 8}, HotSpotInfo{"B", {satd}, 8},
                     HotSpotInfo{"C", {dct}, 8}};
  trace.instances = {HotSpotInstance{0, {}, 0}, HotSpotInstance{1, {}, 0},
                     HotSpotInstance{2, {}, 0}};

  HefScheduler hef;
  RtmConfig config = config_with(&hef, 14);
  config.forecast_mode = ForecastMode::kStaticSeeds;
  config.decision_cache_capacity = 2;
  RunTimeManager rtm(&set, 3, config);
  rtm.seed_forecast(0, sad, 10'000);
  rtm.seed_forecast(1, satd, 10'000);
  rtm.seed_forecast(2, dct, 10'000);

  const auto enter = [&](std::size_t instance) {
    rtm.on_hot_spot_entry(trace, instance, 0);
    rtm.on_hot_spot_exit(0);
  };

  enter(0);  // A: miss, cache [A]
  enter(1);  // B: miss, cache [B, A]
  EXPECT_EQ(rtm.decision_cache_misses(), 2u);
  EXPECT_EQ(rtm.decision_cache_evictions(), 0u);

  enter(0);  // A: hit — and A becomes most recent, cache [A, B]
  EXPECT_EQ(rtm.decision_cache_hits(), 1u);

  enter(2);  // C: miss past capacity — evicts B (the LRU), not A
  EXPECT_EQ(rtm.decision_cache_evictions(), 1u);
  EXPECT_EQ(rtm.decision_cache_size(), 2u);

  enter(0);  // A: still a hit — proves the recency splice protected it
  EXPECT_EQ(rtm.decision_cache_hits(), 2u);

  enter(1);  // B: miss again — proves B was the one evicted; evicts C
  EXPECT_EQ(rtm.decision_cache_misses(), 4u);
  EXPECT_EQ(rtm.decision_cache_evictions(), 2u);

  enter(2);  // C: miss (evicted above); evicts A
  EXPECT_EQ(rtm.decision_cache_misses(), 5u);
  EXPECT_EQ(rtm.decision_cache_evictions(), 3u);
  EXPECT_EQ(rtm.decision_cache_size(), 2u);
  EXPECT_EQ(rtm.decision_cache_hits(), 2u);
}

TEST(RunTimeManager, TinyDecisionCacheStaysBitExact) {
  // Eviction-heavy configuration vs unlimited cache vs no cache: the full
  // simulated run must be identical — a miss recomputes, never approximates.
  const auto set = h264sis::build_h264_si_set();
  const WorkloadTrace trace = me_trace(set, 6'000);
  const auto total = [&](bool enable, std::size_t capacity) {
    HefScheduler hef;
    RtmConfig config = config_with(&hef, 14);
    config.enable_decision_cache = enable;
    config.decision_cache_capacity = capacity;
    RunTimeManager rtm(&set, 3, config);
    h264::seed_default_forecasts(set, rtm);
    return run_trace(trace, rtm).total_cycles;
  };
  const Cycles reference = total(false, 4096);
  EXPECT_EQ(total(true, 1), reference);
  EXPECT_EQ(total(true, 4096), reference);
}

TEST(DecisionKey, CappingReadyAtomsAtTheNeedNeverChangesADecision) {
  // The key keeps only what a decision reads: the listed SIs' forecasts and
  // the ready atoms capped at the need (the join of every molecule of the
  // listed SIs). Selection reads no ready atoms, and the schedulers read
  // them only through leq, ⊖ and ∪ against molecules of listed SIs, all ≤
  // the need — so select+schedule must agree on both inputs. Seeded fuzz
  // over both SI sets, every scheduler, hot-spot-style lists (any order) and
  // prefetch-style lists (the SIs with a nonzero forecast, ascending).
  const SpecialInstructionSet h264 = h264sis::build_h264_si_set();
  const SpecialInstructionSet jpeg = jpegsis::build_jpeg_si_set();
  Xoshiro256 rng(0x5eedcab);
  int capped = 0;
  for (const SpecialInstructionSet* set_ptr : {&h264, &jpeg}) {
    const SpecialInstructionSet& set = *set_ptr;
    for (const std::string& name : scheduler_names()) {
      const auto scheduler = make_scheduler(name);
      for (int trial = 0; trial < 200; ++trial) {
        std::vector<std::uint64_t> forecast(set.si_count(), 0);
        std::vector<SiId> sis;
        for (SiId si = 0; si < set.si_count(); ++si)
          if (rng.bounded(3) != 0) forecast[si] = static_cast<std::uint64_t>(rng.range(1, 20'000));
        if (trial % 3 == 0) {
          for (SiId si = 0; si < set.si_count(); ++si)
            if (forecast[si] > 0) sis.push_back(si);
        } else {
          for (SiId si = 0; si < set.si_count(); ++si)
            if (rng.bounded(2) != 0) sis.push_back(si);
          for (std::size_t i = sis.size(); i > 1; --i)
            std::swap(sis[i - 1], sis[rng.bounded(i)]);
        }
        if (sis.empty()) continue;
        Molecule ready(set.atom_type_count());
        for (AtomTypeId t = 0; t < ready.dimension(); ++t)
          ready[t] = static_cast<AtomCount>(rng.bounded(5));
        Molecule capped_ready = ready;
        meet_into(capped_ready, fleet::decision_need(set, sis));
        if (!(capped_ready == ready)) ++capped;
        // The key also drops the forecasts of unlisted SIs.
        std::vector<std::uint64_t> listed_forecast(set.si_count(), 0);
        for (const SiId si : sis) listed_forecast[si] = forecast[si];
        const unsigned budget = static_cast<unsigned>(rng.range(0, 24));
        const Cycles payback = rng.bounded(2) != 0 ? 4'000 : 0;

        const auto decide = [&](const Molecule& available,
                                const std::vector<std::uint64_t>& expected) {
          SelectionRequest sel;
          sel.set = &set;
          sel.hot_spot_sis = sis;
          sel.expected_executions = expected;
          sel.container_count = budget;
          ScheduleRequest req;
          req.set = &set;
          req.selected = select_molecules(sel);
          req.available = available;
          req.expected_executions = expected;
          req.payback_cycles_per_atom = payback;
          return std::make_pair(req.selected, scheduler->schedule(req));
        };
        const auto [full_selection, full] = decide(ready, forecast);
        const auto [key_selection, keyed] = decide(capped_ready, listed_forecast);
        ASSERT_EQ(full_selection, key_selection) << name << " trial " << trial;
        ASSERT_EQ(full.loads, keyed.loads) << name << " trial " << trial;
        ASSERT_EQ(full.steps.size(), keyed.steps.size()) << name << " trial " << trial;
        for (std::size_t i = 0; i < full.steps.size(); ++i) {
          EXPECT_EQ(full.steps[i].molecule, keyed.steps[i].molecule);
          EXPECT_EQ(full.steps[i].load_count, keyed.steps[i].load_count);
        }
      }
    }
  }
  EXPECT_GT(capped, 500);  // the cap actually bit on most inputs
}

TEST(DecisionKey, ReadyAtomsOutsideTheNeedShareOneMemoEntry) {
  const auto set = h264sis::build_h264_si_set();
  const SiId sad = set.find("SAD").value();
  const std::vector<SiId> sis = {sad};
  const Molecule need = fleet::decision_need(set, sis);
  AtomTypeId outside = 0;
  while (outside < need.dimension() && need[outside] != 0) ++outside;
  ASSERT_LT(outside, need.dimension()) << "some atom type must lie outside SAD's need";
  AtomTypeId inside = 0;
  while (need[inside] == 0) ++inside;

  // The shared cache: ready molecules that differ only outside the need, or
  // forecasts that differ only at unlisted SIs, build one key.
  std::vector<std::uint64_t> forecast(set.si_count(), 7);
  forecast[sad] = 10'000;
  const Molecule ready(set.atom_type_count());
  Molecule ready_outside = ready;
  ready_outside[outside] = 3;
  Molecule ready_inside = ready;
  ready_inside[inside] = 1;
  std::vector<std::uint64_t> other_forecast = forecast;
  other_forecast[sad == 0 ? 1 : 0] = 99;
  fleet::DecisionKey key, same, different;
  fleet::make_decision_key(0, sis, forecast, ready, need, 10, key);
  fleet::make_decision_key(0, sis, other_forecast, ready_outside, need, 10, same);
  fleet::make_decision_key(0, sis, forecast, ready_inside, need, 10, different);
  EXPECT_EQ(key, same);
  EXPECT_FALSE(key == different);
  fleet::SharedDecisionCache cache(16, 1);
  fleet::SharedDecision decision;
  decision.loads = {inside};
  cache.insert(/*session=*/1, key, decision);
  fleet::SharedDecision out;
  EXPECT_TRUE(cache.lookup(/*session=*/2, same, out));
  EXPECT_EQ(out.loads, decision.loads);
  EXPECT_FALSE(cache.lookup(/*session=*/2, different, out));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.cross_session_hits(), 1u);

  // The per-RTM memo: a 1-tenant arbiter hands out the tenant's container
  // view, so an atom outside the need can become ready between two entries
  // of the same hot spot. `now` stays 0, so the RTM's own load never lands.
  ArbiterConfig arbiter_config;
  arbiter_config.total_containers = 14;
  FabricArbiter arbiter(arbiter_config);
  TenantConfig tenant_config;
  tenant_config.quota = 14;
  const TenantId tenant = arbiter.add_tenant(tenant_config);
  HefScheduler hef;
  RtmConfig config = config_with(&hef, 14);
  config.forecast_mode = ForecastMode::kStaticSeeds;
  config.arbiter = &arbiter;
  config.tenant = tenant;
  RunTimeManager rtm(&set, 1, config);
  rtm.seed_forecast(0, sad, 10'000);
  WorkloadTrace trace;
  trace.hot_spots = {HotSpotInfo{"ME", sis, 8}};
  trace.instances = {HotSpotInstance{0, {}, 0}};

  rtm.on_hot_spot_entry(trace, 0, 0);
  rtm.on_hot_spot_exit(0);
  EXPECT_EQ(rtm.decision_cache_misses(), 1u);
  ContainerFile& file = arbiter.containers(tenant);
  const auto empty = file.find_empty();
  ASSERT_TRUE(empty.has_value());
  file.begin_load(*empty, outside);
  file.complete_load(*empty);
  ASSERT_EQ(rtm.ready_atoms()[outside], 1u);
  rtm.on_hot_spot_entry(trace, 0, 0);
  rtm.on_hot_spot_exit(0);
  EXPECT_EQ(rtm.decision_cache_hits(), 1u);
  EXPECT_EQ(rtm.decision_cache_misses(), 1u);
  EXPECT_EQ(rtm.decision_cache_size(), 1u);
}

TEST(Molen, NoIntermediateAcceleration) {
  // Until the full selected molecule is loaded, Molen runs in software even
  // though a subset of its atoms is configured.
  const auto set = h264sis::build_h264_si_set();
  const WorkloadTrace trace = me_trace(set, 10'000);
  MolenConfig mc;
  mc.container_count = 17;
  MolenBackend molen(&set, 3, mc);
  h264::seed_default_forecasts(set, molen);
  SimStats stats(set.si_count());
  (void)run_trace(trace, molen, &stats);
  const SiId sad = set.find("SAD").value();
  const auto& tl = stats.latency_timeline(sad);
  // Exactly one downward step: software -> selected molecule.
  ASSERT_EQ(tl.size(), 2u);
  EXPECT_EQ(tl[0].latency, set.si(sad).software_latency);
  const SiId satd = set.find("SATD").value();
  const auto& tl2 = stats.latency_timeline(satd);
  ASSERT_LE(tl2.size(), 2u);  // same: one step at most
}

TEST(StaticAsip, IsTheLowerBound) {
  const auto set = h264sis::build_h264_si_set();
  const WorkloadTrace trace = me_trace(set, 5'000);
  StaticAsipBackend asip(&set);
  const Cycles bound = run_trace(trace, asip).total_cycles;
  for (const auto& name : scheduler_names()) {
    auto sched = make_scheduler(name);
    RunTimeManager rtm(&set, 3, config_with(sched.get(), 24));
    h264::seed_default_forecasts(set, rtm);
    EXPECT_GE(run_trace(trace, rtm).total_cycles, bound) << name;
  }
  // And the paper's Figure 1 overhead remark: dedicated hardware for all SIs
  // far exceeds any AC budget evaluated.
  EXPECT_GT(asip.dedicated_atoms(), 24u * 2);
}

TEST(RunTimeManager, ReseedingForecastIsAHardError) {
  // seed_forecast installs a design-time profile: one value per (hot spot,
  // SI) pair. A second seed for the same pair used to silently overwrite the
  // first — a misconfiguration that produced wrong numbers downstream.
  const auto set = h264sis::build_h264_si_set();
  const SiId sad = set.find("SAD").value();
  HefScheduler hef;
  RunTimeManager rtm(&set, 1, config_with(&hef, 8));
  rtm.seed_forecast(0, sad, 10'000);
  EXPECT_THROW(rtm.seed_forecast(0, sad, 20'000), std::logic_error);
  // A different pair is still fine.
  EXPECT_NO_THROW(rtm.seed_forecast(0, set.find("SATD").value(), 1'500));
}

TEST(RunTimeManager, SeedingAfterFirstHotSpotIsAHardError) {
  // Once the workload runs, the monitor owns the forecast; a late seed would
  // silently lose to the next adapted update instead of taking effect.
  const auto set = h264sis::build_h264_si_set();
  const SiId sad = set.find("SAD").value();
  HefScheduler hef;
  RunTimeManager rtm(&set, 1, config_with(&hef, 8));
  rtm.seed_forecast(0, sad, 10'000);
  run_trace(me_trace(set, 100), rtm);
  EXPECT_THROW(rtm.seed_forecast(0, set.find("SATD").value(), 1'500), std::logic_error);
}

}  // namespace
}  // namespace rispp
