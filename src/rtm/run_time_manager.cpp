#include "rtm/run_time_manager.h"

#include <algorithm>
#include <chrono>

#include "base/check.h"
#include "base/clock.h"
#include "base/log.h"
#include "base/metrics.h"
#include "hw/eviction.h"

namespace rispp {

std::uint64_t rtm_domain_digest(const RtmConfig& config) {
  // See the declaration: fold every knob that changes decide()'s output for
  // an identical key. Seeded with an arbitrary odd constant so digest 0
  // never collides with "no digest".
  return fingerprint_mix(0x9e3779b97f4a7c15ull,
                         static_cast<std::uint64_t>(config.forecast_mode));
}

RunTimeManager::RunTimeManager(const SpecialInstructionSet* set, std::size_t hot_spot_count,
                               const RtmConfig& config)
    : WindowedBackend(set->si_count(), monitor_, type_last_used_),
      set_(set),
      config_(config),
      selector_(set, fingerprint(*set)),
      monitor_(hot_spot_count, set->si_count()),
      seeds_(hot_spot_count, std::vector<std::uint64_t>(set->si_count(), 0)),
      containers_(config.arbiter != nullptr ? 0 : config.container_count,
                  set->atom_type_count()),
      port_(&set->library(), config.bitstream),
      demand_(set->atom_type_count()),
      soft_demand_(set->atom_type_count()),
      hot_spot_sup_(hot_spot_count, Molecule(set->atom_type_count())),
      successor_(hot_spot_count, 0),
      last_forecast_(hot_spot_count),
      last_selection_(hot_spot_count),
      entry_seen_(hot_spot_count, false),
      prefetch_demand_(set->atom_type_count()),
      type_last_used_(set->atom_type_count(), 0),
      cached_molecule_(set->si_count(), kSoftwareMolecule),
      cached_latency_(set->si_count(), 0),
      cached_stamp_(set->si_count(), nullptr),
      si_atom_types_(set->si_count()),
      upgrade_lane_(trace_new_lane()) {
  RISPP_CHECK(config_.scheduler != nullptr);
  if (config_.shared_decision_cache == nullptr && config_.enable_decision_cache)
    decision_memo_ = fleet::DecisionMemo(config_.decision_cache_capacity);
  si_need_.reserve(set_->si_count());
  for (SiId si = 0; si < set_->si_count(); ++si) {
    cached_latency_[si] = set_->si(si).latency(kSoftwareMolecule);
    si_need_.push_back(fleet::decision_need(*set_, std::span<const SiId>(&si, 1)));
    const Molecule& used = si_need_.back();
    for (AtomTypeId t = 0; t < used.dimension(); ++t)
      if (used[t] != 0) si_atom_types_[si].push_back(t);
  }
  trace_name_lane(TraceTrack::kExecutor, upgrade_lane_, "SI upgrades");
  if (config_.arbiter != nullptr) {
    config_.arbiter->bind(config_.tenant, &set_->library(), set_->atom_type_count(),
                          &type_last_used_);
    cf_ = &config_.arbiter->containers(config_.tenant);
  } else {
    cf_ = &containers_;
  }
  if (config_.payback_horizon > 0)
    payback_cycles_per_atom_ =
        cycles_from_us(config_.bitstream.average_reconfig_us(set_->library())) /
        config_.payback_horizon;
  if (config_.shared_decision_cache != nullptr)
    shared_domain_ = config_.shared_decision_cache->register_domain(
        selector_.set_fingerprint(), config_.scheduler->name(), payback_cycles_per_atom_,
        rtm_domain_digest(config_));
}

void RunTimeManager::seed_forecast(HotSpotId hs, SiId si, std::uint64_t expected) {
  RISPP_CHECK_MSG(!seen_any_hot_spot_,
                  "seed_forecast is a design-time profile: seeding after the first "
                  "hot-spot entry would silently lose to the adapted forecast");
  RISPP_CHECK(hs < seeds_.size() && si < seeds_[hs].size());
  RISPP_CHECK_MSG(seeds_[hs][si] == 0, "re-seeding forecast for hot spot "
                                           << hs << ", SI " << si
                                           << ": a profile has one value per pair");
  monitor_.seed(hs, si, expected);
  seeds_[hs][si] = expected;
}

void RunTimeManager::on_hot_spot_entry(const WorkloadTrace& trace, std::size_t instance,
                                       Cycles now) {
  advance_reconfig(now);

  const HotSpotId hs = trace.instances[instance].hot_spot;
  const HotSpotInfo& info = trace.hot_spots[hs];
  bind_instance(trace.instances[instance], info);
  trace_ = &trace;
  // First-order successor prediction for prefetching.
  if (seen_any_hot_spot_) successor_[current_hot_spot_] = hs;
  current_hot_spot_ = hs;
  seen_any_hot_spot_ = true;
  prefetch_computed_ = false;
  prefetch_loads_.clear();
  monitor_.begin_hot_spot(hs);

  const std::vector<std::uint64_t>* forecast = nullptr;
  switch (config_.forecast_mode) {
    case ForecastMode::kMonitored:
      forecast = &monitor_.forecast(hs);
      break;
    case ForecastMode::kStaticSeeds:
      forecast = &seeds_[hs];
      break;
    case ForecastMode::kOracle:
      oracle_forecast_.assign(set_->si_count(), 0);
      for (const SiRun& run : trace.instances[instance].runs)
        oracle_forecast_[run.si] += run.count;
      forecast = &oracle_forecast_;
      break;
  }

  // Multi-tenant: report the forecast mass (the benefit signal) to the
  // arbiter, which may rebalance quotas — so read the budget only after.
  if (config_.arbiter != nullptr) {
    std::uint64_t mass = 0;
    for (SiId si : info.sis) mass += (*forecast)[si];
    config_.arbiter->on_decision_point(config_.tenant, mass, now);
  }

  // III) determine re-loading decisions: selection, then scheduling (memoized
  // — monitored forecasts converge after warm-up, so the steady state of a
  // long replay is pure cache hits).
  const fleet::SharedDecision& decision = decide(info.sis, *forecast, cf_->active());
  selection_ = decision.selection;

  // Mispredict → reconfig churn (ROADMAP traffic-robustness metric): the
  // forecast drifted since this hot spot's previous entry AND that drift
  // flipped the selection, so the loads below are churn the forecaster
  // caused. Oracle forecasts track the true workload — a change there is a
  // real workload shift, not a mispredict.
  if (config_.forecast_mode != ForecastMode::kOracle && entry_seen_[hs] &&
      *forecast != last_forecast_[hs] && decision.selection != last_selection_[hs]) {
    static MetricCounter& mispredicts = metric_counter("rtm.forecast.mispredicts");
    mispredicts.add();
    static MetricHistogram& churn =
        metric_histogram("rtm.forecast.mispredict_reconfig_loads");
    churn.record(decision.loads.size());
  }
  entry_seen_[hs] = true;
  last_forecast_[hs] = *forecast;
  last_selection_[hs] = decision.selection;

  // The new hot spot overrides whatever the previous one still wanted to
  // load (the in-flight atom, if any, completes normally).
  pending_loads_.assign(decision.loads.begin(), decision.loads.end());
  demand_.assign_zero(set_->atom_type_count());
  for (const SiRef& s : selection_)
    join_into(demand_, set_->si(s.si).molecule(s.mol).atoms);
  hot_spot_sup_[hs] = demand_;
  soft_demand_.assign_zero(set_->atom_type_count());
  for (HotSpotId other = 0; other < hot_spot_sup_.size(); ++other)
    if (other != hs) join_into(soft_demand_, hot_spot_sup_[other]);

  RISPP_DEBUG("hot spot " << info.name << " @" << now << ": " << selection_.size()
                          << " molecules selected, " << pending_loads_.size()
                          << " atom loads scheduled by " << config_.scheduler->name());
  start_pending_loads(now);
}

void RunTimeManager::on_hot_spot_exit(Cycles) { monitor_.end_hot_spot(); }

ReconfigPort::InflightLoad RunTimeManager::fabric_retire(Cycles now) {
  return config_.arbiter != nullptr ? config_.arbiter->retire(config_.tenant, now)
                                    : port_.retire(now);
}

std::optional<Cycles> RunTimeManager::fabric_try_start(AtomTypeId type, ContainerId victim,
                                                       Cycles now) {
  if (config_.arbiter != nullptr)
    return config_.arbiter->try_start(config_.tenant, type, victim, now);
  port_.start(type, victim, now);
  return std::nullopt;
}

std::optional<Cycles> RunTimeManager::fabric_stall_bound(Cycles now) const {
  if (fabric_loading()) return fabric_finishes_at();
  // A busy-port denial ends the window when the port frees up, which after
  // advance_reconfig is after `now`. A denial only another tenant can lift
  // ends none: no other tenant acts while this one replays an instance, so
  // every retry before the next hot-spot entry would be denied unchanged.
  if (config_.arbiter != nullptr && denied_until_ > now &&
      denied_until_ != FabricArbiter::kRetryAfterOthers)
    return denied_until_;
  return std::nullopt;
}

void RunTimeManager::sync_fabric() {
  if (config_.arbiter == nullptr) return;
  const std::uint64_t gen = config_.arbiter->fabric_generation(config_.tenant);
  if (gen != fabric_gen_seen_) {
    // A quota rebalance evicted ready atoms behind our back.
    fabric_gen_seen_ = gen;
    if (cache_valid_) cache_event_now_ = config_.arbiter->last_fabric_event(config_.tenant);
    cache_valid_ = false;
  }
}

void RunTimeManager::advance_reconfig(Cycles now) {
  sync_fabric();
  while (fabric_loading() && fabric_finishes_at() <= now) {
    const auto done = fabric_retire(now);
    cf_->complete_load(done.container);
    if (cache_valid_) cache_event_now_ = done.finishes_at;
    cache_valid_ = false;
    start_pending_loads(done.finishes_at);
  }
  if (!fabric_loading()) start_pending_loads(now);
}

void RunTimeManager::start_pending_loads(Cycles now) {
  while (!fabric_loading() && !pending_loads_.empty()) {
    const AtomTypeId type = pending_loads_.front();
    // Ask for the port before scanning for a victim: on the contended retry
    // path nearly every ask is a denial, and precheck performs the identical
    // denial bookkeeping without the O(containers) victim scan. On nullopt
    // an immediate try_start at the same `now` is guaranteed to grant.
    if (config_.arbiter != nullptr) {
      if (const auto hint = config_.arbiter->precheck(config_.tenant, now)) {
        denied_until_ = *hint;
        return;
      }
    }
    const auto victim = pick_victim(*cf_, demand_, soft_demand_, type_last_used_);
    if (!victim.has_value()) {
      // Every container is pinned (in-flight loads); retry at the next
      // reconfiguration event.
      RISPP_DEBUG("load of atom type " << type << " deferred: no victim container");
      return;
    }
    // A denial must leave the container untouched (the claim stands; retry
    // at the hint) — unreachable after a clean precheck, kept for solo mode.
    if (const auto hint = fabric_try_start(type, *victim, now)) {
      denied_until_ = *hint;
      return;
    }
    denied_until_ = 0;
    pending_loads_.pop_front();
    cf_->begin_load(*victim, type);
    if (cache_valid_) cache_event_now_ = now;
    cache_valid_ = false;  // eviction may have removed a ready atom
  }

  // Port drained the current schedule: optionally prefetch the predicted
  // next hot spot's atoms. The current demand stays hard-pinned, so
  // prefetching can only consume containers the current hot spot spares.
  if (config_.enable_prefetch && !fabric_loading() && pending_loads_.empty()) {
    if (!prefetch_computed_) compute_prefetch();
    if (!prefetch_loads_.empty()) {
      // Neither demand changes while the loads drain; join once.
      Molecule hard = demand_;
      join_into(hard, prefetch_demand_);
      while (!fabric_loading() && !prefetch_loads_.empty()) {
        const AtomTypeId type = prefetch_loads_.front();
        if (config_.arbiter != nullptr) {
          if (const auto hint = config_.arbiter->precheck(config_.tenant, now)) {
            denied_until_ = *hint;
            return;
          }
        }
        const auto victim = pick_victim(*cf_, hard, soft_demand_, type_last_used_);
        if (!victim.has_value()) return;
        if (const auto hint = fabric_try_start(type, *victim, now)) {
          denied_until_ = *hint;
          return;
        }
        denied_until_ = 0;
        prefetch_loads_.pop_front();
        cf_->begin_load(*victim, type);
        if (cache_valid_) cache_event_now_ = now;
        cache_valid_ = false;
      }
    }
  }

  // Both queues drained: nothing left to ask the port for, so any standing
  // claim from an earlier denial lapses (other tenants stop yielding to us).
  if (config_.arbiter != nullptr && pending_loads_.empty() && prefetch_loads_.empty()) {
    config_.arbiter->withdraw_claim(config_.tenant);
    denied_until_ = 0;
  }
}

void RunTimeManager::compute_prefetch() {
  prefetch_computed_ = true;
  if (!seen_any_hot_spot_) return;
  const HotSpotId next = successor_[current_hot_spot_];
  if (next == current_hot_spot_) return;  // no prediction yet

  // Select and schedule for the predicted hot spot against what would be
  // resident, but never count on evicting current-demand atoms: the budget
  // is the containers minus the current selection's sup.
  const unsigned budget =
      cf_->active() > demand_.determinant()
          ? cf_->active() - demand_.determinant()
          : 0;
  if (budget == 0) return;

  // Which forecast predicts hot spot `next`'s executions:
  //  - kMonitored: the monitor's adapted forecast (the paper's system);
  //  - kStaticSeeds: the design-time profile, never adapted;
  //  - kOracle: the oracle only knows the *current* instance's exact counts
  //    (it reads trace.instances[instance].runs); no future instance
  //    of `next` has been reached yet, so oracle prefetch intentionally
  //    falls back to the monitored forecast rather than pretending to know
  //    counts it cannot have.
  const std::vector<std::uint64_t>* forecast = nullptr;
  switch (config_.forecast_mode) {
    case ForecastMode::kMonitored:
      forecast = &monitor_.forecast(next);
      break;
    case ForecastMode::kStaticSeeds:
      forecast = &seeds_[next];
      break;
    case ForecastMode::kOracle:
      forecast = &monitor_.forecast(next);
      break;
  }

  // Hot-spot SI lists live in the trace; we reconstruct them from the
  // forecast: any SI with a nonzero forecast for `next` belongs to it.
  // The prefetch selection may also use atoms the current hot spot already
  // holds (sharing), so the effective budget is |sup(next) ∪ demand| <= ACs;
  // we approximate by selecting under the remaining budget.
  prefetch_sis_.clear();
  for (SiId si = 0; si < set_->si_count(); ++si)
    if ((*forecast)[si] > 0) prefetch_sis_.push_back(si);
  if (prefetch_sis_.empty()) return;
  const fleet::SharedDecision& decision = decide(prefetch_sis_, *forecast, budget);
  if (decision.selection.empty()) return;

  prefetch_demand_.assign_zero(set_->atom_type_count());
  for (const SiRef& s : decision.selection)
    join_into(prefetch_demand_, set_->si(s.si).molecule(s.mol).atoms);
  prefetch_loads_.assign(decision.loads.begin(), decision.loads.end());
  RISPP_DEBUG("prefetching " << prefetch_loads_.size() << " atoms for hot spot " << next);
}

const fleet::SharedDecision& RunTimeManager::decide(const std::vector<SiId>& sis,
                                                    const std::vector<std::uint64_t>& forecast,
                                                    unsigned budget) {
  const Molecule& ready = cf_->ready_atoms();
  static MetricCounter& hit_metric = metric_counter("rtm.decision_cache.hits");
  static MetricCounter& miss_metric = metric_counter("rtm.decision_cache.misses");
  static MetricCounter& eviction_metric = metric_counter("rtm.decision_cache.evictions");
  fleet::SharedDecisionCache* const shared = config_.shared_decision_cache;
  if (shared != nullptr || config_.enable_decision_cache) {
    // The need of `sis` from the per-SI needs: a few joins, not one per
    // molecule.
    need_.assign_zero(set_->atom_type_count());
    for (const SiId si : sis) join_into(need_, si_need_[si]);
    fleet::make_decision_key(shared_domain_, sis, forecast, ready, need_, budget, decision_key_);
  }

  fleet::SharedDecision* out = &decision_scratch_;
  if (shared != nullptr) {
    // Memoize through the shared cache so identical decisions computed by
    // other sessions replay here. The hit copies into the scratch slot under
    // the shard lock (the cache entry may be evicted concurrently); the
    // per-RTM counters keep counting so introspection and fig8-style
    // analysis work unchanged.
    if (shared->lookup(config_.session_id, decision_key_, decision_scratch_)) {
      ++decision_cache_hits_;
      hit_metric.add();
      return decision_scratch_;
    }
  } else if (config_.enable_decision_cache) {
    if (fleet::DecisionMemo::Entry* entry = decision_memo_.find(decision_key_)) {
      ++decision_cache_hits_;
      hit_metric.add();
      if (trace_enabled())
        trace_counter_now(TraceTrack::kRtm, "decision cache hits",
                          static_cast<double>(decision_cache_hits_));
      return entry->decision;
    }
    const std::uint64_t evictions = decision_memo_.evictions();
    out = &decision_memo_.insert(decision_key_, config_.session_id).decision;
    if (decision_memo_.evictions() != evictions) eviction_metric.add();
  }
  ++decision_cache_misses_;
  miss_metric.add();

  // The selection→schedule pipeline is the expensive path worth seeing on
  // the timeline; cache hits above return in nanoseconds and stay silent.
  trace_begin_now(TraceTrack::kRtm, "decide");
  compute_decision(sis, forecast, budget, ready, *out);
  trace_end_now(TraceTrack::kRtm, "decide");
  if (shared != nullptr)
    shared->insert(config_.session_id, decision_key_, *out);
  else if (trace_enabled())
    trace_counter_now(TraceTrack::kRtm, "decision cache misses",
                      static_cast<double>(decision_cache_misses_));
  return *out;
}

void RunTimeManager::compute_decision(const std::vector<SiId>& sis,
                                      const std::vector<std::uint64_t>& forecast,
                                      unsigned budget, const Molecule& ready,
                                      fleet::SharedDecision& out) {
  // Wall-clock cost of the uncached selection→schedule pipeline; cache hits
  // never get here, so this is the tail the memo layers are hiding.
  const auto started = std::chrono::steady_clock::now();
  selector_.select(trace_->selection_memo(), sis, forecast, budget, out.selection);

  ScheduleRequest sched_req;
  sched_req.set = set_;
  sched_req.selected = out.selection;
  sched_req.available = ready;
  sched_req.expected_executions = forecast;
  sched_req.payback_cycles_per_atom = payback_cycles_per_atom_;
  Schedule schedule = config_.scheduler->schedule(sched_req);
  out.loads = std::move(schedule.loads);
  static MetricHistogram& latency = metric_histogram("rtm.decision_latency_ns");
  latency.record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - started)
          .count()));
}

void RunTimeManager::refresh_cache() {
  const Molecule& ready = cf_->ready_atoms();
  const bool traced = trace_enabled();
  if (traced && traced_si_names_.empty()) {
    traced_si_names_.reserve(set_->si_count());
    for (SiId si = 0; si < set_->si_count(); ++si)
      traced_si_names_.push_back(trace_intern(set_->si(si).name));
  }
  std::uint64_t upgrades = 0;
  for (SiId si = 0; si < set_->si_count(); ++si) {
    // fastest_available(si, ·) reads only the atom types si's molecules use.
    if (cache_primed_ &&
        std::none_of(si_atom_types_[si].begin(), si_atom_types_[si].end(),
                     [&](AtomTypeId t) { return ready[t] != refreshed_ready_[t]; }))
      continue;
    const MoleculeId mol = set_->fastest_available(si, ready);
    if (mol != cached_molecule_[si]) {
      // The gradual-upgrade property (§3.1): count latency-improving
      // transitions (trap → slow molecule → selected molecule). Downgrades
      // (an eviction took a ready atom) change the cache but are not
      // upgrades. cache_event_now_ holds the port event that invalidated
      // the cache, i.e. when the transition actually happened.
      if (set_->si(si).latency(mol) < set_->si(si).latency(cached_molecule_[si])) {
        ++upgrades;
        if (traced)
          trace_instant(TraceTrack::kExecutor, upgrade_lane_, traced_si_names_[si],
                        us_from_cycles(cache_event_now_));
      }
      cached_molecule_[si] = mol;
      cached_latency_[si] = set_->si(si).latency(mol);
      cached_stamp_[si] = mol != kSoftwareMolecule ? &set_->si(si).molecule(mol).atoms : nullptr;
    }
  }
  if (upgrades > 0) {
    static MetricCounter& upgrade_metric = metric_counter("rtm.si_upgrades");
    upgrade_metric.add(upgrades);
  }
  refreshed_ready_ = ready;
  cache_primed_ = true;
  cache_valid_ = true;
}

Cycles RunTimeManager::current_latency(SiId si) const {
  return set_->fastest_available_latency(si, cf_->ready_atoms());
}

Cycles RunTimeManager::si_execution_latency(SiId si, Cycles now) {
  advance_reconfig(now);
  if (!cache_valid_) refresh_cache();

  // I) control the SI execution: composed molecule or trap.
  const MoleculeId mol = cached_molecule_[si];

  // II) observe.
  monitor_.record_execution(si);

  if (mol != kSoftwareMolecule) {
    // LRU stamps per used atom type (coarse but O(#types of this molecule)).
    const Molecule& atoms = set_->si(si).molecule(mol).atoms;
    for (std::size_t t = 0; t < atoms.dimension(); ++t)
      if (atoms[t] != 0) type_last_used_[t] = now;
  }
  return set_->si(si).latency(mol);
}

PortWindow RunTimeManager::open_window(Cycles now, SiId) {
  advance_reconfig(now);
  if (!cache_valid_) refresh_cache();
  return PortWindow{fabric_stall_bound(now), cached_latency_.data(), cached_stamp_.data()};
}

}  // namespace rispp
