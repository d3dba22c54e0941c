// The RISPP Run-Time Manager (§3.1) — the ExecutionBackend that ties the
// whole platform together:
//
//   I)  controls SI execution: forwards an SI to the Atom Containers when a
//       molecule is composed, or lets it trap onto the base instruction set;
//   II) observes: per-hot-spot SI execution frequencies feed the forecast
//       (ExecutionMonitor) used as "expected executions";
//   III) decides re-loading: at every hot-spot entry it runs Molecule
//       selection under the AC budget, asks the configured SI Scheduler for
//       the atom loading sequence, and feeds the single reconfiguration
//       port, evicting superfluous atoms as loads start.
//
// The gradual-upgrade property falls out of (I): as loads complete, the
// fastest *available* molecule of each SI improves step by step.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "base/trace_event.h"

#include "fleet/shared_decision_cache.h"
#include "hw/atom_container.h"
#include "hw/bitstream.h"
#include "hw/reconfig_port.h"
#include "monitor/forecast.h"
#include "rtm/fabric_arbiter.h"
#include "sched/schedule.h"
#include "select/selection_memo.h"
#include "sim/window_replay.h"

namespace rispp {

/// Where "expected SI executions" come from (the ablation_forecast bench
/// compares these; the paper's system is kMonitored).
enum class ForecastMode {
  kMonitored,    // online monitoring with exponential update (the paper)
  kStaticSeeds,  // design-time profile only, never adapted
  kOracle,       // exact counts of the upcoming instance (future knowledge)
};

struct RtmConfig {
  unsigned container_count = 10;
  BitstreamModel bitstream;
  /// The SI Scheduler strategy (not owned; must outlive the RTM).
  const AtomScheduler* scheduler = nullptr;
  ForecastMode forecast_mode = ForecastMode::kMonitored;
  /// Payback horizon for the upgrade cleaning rule: the number of hot-spot
  /// instances an atom is assumed to stay resident, over which its
  /// reconfiguration time must be repaid by expected latency savings
  /// (0 disables the rule).
  unsigned payback_horizon = 16;
  /// Cross-hot-spot prefetching (an extension beyond the paper): once the
  /// current hot spot's load sequence has drained, the idle port starts
  /// loading the schedule of the *predicted next* hot spot (first-order
  /// successor prediction), without evicting anything the current hot spot
  /// demands.
  bool enable_prefetch = false;
  /// Memoize the selection→schedule decision (DESIGN §6.2). The decision is
  /// a pure function of (hot-spot SI list, its forecast, ready atoms capped
  /// at what the list can use, container budget) once the SI set, the
  /// scheduler strategy, and the payback constant are fixed — and those are
  /// per-RTM-instance constants — so replaying a cached decision is bit-exact
  /// by construction (fleet::make_decision_key). Off is only useful for A/B
  /// tests and the cache's own equivalence tests.
  bool enable_decision_cache = true;
  /// Decision-cache entry bound: past it, the least-recently-used decision
  /// is evicted (misses recompute, so any capacity stays bit-exact).
  /// Steady-state workloads sit far below the default.
  std::size_t decision_cache_capacity = 4096;
  /// Decision cache shared across sessions (src/fleet: the fleet's
  /// process-wide one, or one per contended-fleet run). When
  /// set it replaces the per-instance cache above: decide() registers this
  /// RTM's constants (SI-set fingerprint, scheduler name, payback) as a
  /// cache domain and memoizes through the shared cache, so identical
  /// decisions computed by *other* sessions replay here. Bit-exact for the
  /// same reason the per-instance cache is: the domain makes the key
  /// complete. Not owned; must outlive the RTM.
  fleet::SharedDecisionCache* shared_decision_cache = nullptr;
  /// Identity of the owning session — only used for the shared cache's
  /// cross-session hit accounting, never for decisions.
  std::uint64_t session_id = 0;
  /// Multi-tenant mode (DESIGN §9): when set, this RTM is tenant `tenant` of
  /// the arbiter's shared fabric — the AC view and the reconfiguration port
  /// come from the arbiter (container_count is ignored) and every load is
  /// subject to port arbitration and quota rebalancing. Not owned; must
  /// outlive the RTM. A 1-tenant arbiter is bit-identical to the solo path.
  FabricArbiter* arbiter = nullptr;
  TenantId tenant = 0;
};

/// Digest of every RtmConfig knob that changes decide()'s output for an
/// identical (sis, forecast, ready atoms, budget) key. Folded into the shared
/// decision cache's domain identity so sessions configured differently never
/// share decisions: two domains with equal SI sets, schedulers and payback
/// constants but different digests stay apart. forecast_mode enters today;
/// fold any future decision-influencing knob here the same way.
std::uint64_t rtm_domain_digest(const RtmConfig& config);

class RunTimeManager final : public WindowedBackend {
 public:
  RunTimeManager(const SpecialInstructionSet* set, std::size_t hot_spot_count,
                 const RtmConfig& config);

  /// Design-time forecast seed for the first instance of each hot spot.
  /// Seeds are a design-time profile: seeding after the first hot-spot entry
  /// or re-seeding a (hot spot, SI) pair that already holds a nonzero seed is
  /// a hard error (RISPP_CHECK) — both silently skewed kStaticSeeds results
  /// before, because monitor_.seed and seeds_ disagreed on "latest wins".
  void seed_forecast(HotSpotId hs, SiId si, std::uint64_t expected);

  // -- ExecutionBackend ------------------------------------------------
  std::string_view name() const override { return config_.scheduler->name(); }
  void on_hot_spot_entry(const WorkloadTrace& trace, std::size_t instance,
                         Cycles now) override;
  void on_hot_spot_exit(Cycles now) override;
  Cycles si_execution_latency(SiId si, Cycles now) override;
  std::uint64_t completed_loads() const override {
    return config_.arbiter != nullptr ? config_.arbiter->completed_loads(config_.tenant)
                                      : port_.completed_loads();
  }
  Cycles worst_si_latency(SiId si) const override { return set_->si(si).worst_latency(); }

  // -- Introspection (tests, Figure 8 analysis) ------------------------
  const Molecule& ready_atoms() const { return cf_->ready_atoms(); }
  const ExecutionMonitor& monitor() const { return monitor_; }
  /// Latency the SI would take if issued at the current state.
  Cycles current_latency(SiId si) const;
  /// Decision-cache effectiveness (both the entry and the prefetch path).
  std::uint64_t decision_cache_hits() const { return decision_cache_hits_; }
  std::uint64_t decision_cache_misses() const { return decision_cache_misses_; }
  std::uint64_t decision_cache_evictions() const { return decision_memo_.evictions(); }
  std::size_t decision_cache_size() const { return decision_memo_.size(); }

 private:
  void advance_reconfig(Cycles now);
  void start_pending_loads(Cycles now);
  void compute_prefetch();

  // Fabric shims: the solo path owns a private port and a fully enabled
  // ContainerFile; under an arbiter the tenant shares the device port and
  // views its quota through the arbiter's file (cf_ points at whichever).
  bool fabric_loading() const {
    return config_.arbiter != nullptr ? config_.arbiter->inflight(config_.tenant).has_value()
                                      : port_.busy();
  }
  Cycles fabric_finishes_at() const {
    return config_.arbiter != nullptr
               ? config_.arbiter->inflight(config_.tenant)->finishes_at
               : port_.inflight()->finishes_at;
  }
  ReconfigPort::InflightLoad fabric_retire(Cycles now);
  /// nullopt = the load started; otherwise the arbiter's retry hint (see
  /// FabricArbiter::try_start), recorded in denied_until_ by the caller.
  std::optional<Cycles> fabric_try_start(AtomTypeId type, ContainerId victim, Cycles now);
  /// The next simulated time at which this tenant's SI latencies can change:
  /// its own in-flight load's completion, or the cycle a busy port frees up
  /// while it waits. nullopt = no pending fabric event: latencies are stable
  /// until the next decision point, which is also the case while it waits
  /// on a free port another tenant won (FabricArbiter::kRetryAfterOthers).
  /// Ends every replay window.
  std::optional<Cycles> fabric_stall_bound(Cycles now) const;
  PortWindow open_window(Cycles now, SiId next) override;
  /// Consumes arbiter-side mutations (quota rebalances evicting our atoms)
  /// by invalidating the latency cache when the fabric generation moved.
  void sync_fabric();

  /// Runs selection + scheduling for (sis, forecast, current ready atoms,
  /// budget), or replays the memoized result verbatim on a key match
  /// (fleet::make_decision_key). The returned reference lives in the memo or
  /// a scratch slot: it is invalidated by the next decide() call, so consume
  /// it before any path that may decide again.
  const fleet::SharedDecision& decide(const std::vector<SiId>& sis,
                                      const std::vector<std::uint64_t>& forecast,
                                      unsigned budget);
  /// The uncached selection→schedule pipeline behind decide(). The
  /// selection comes from the replayed trace's selection memo.
  void compute_decision(const std::vector<SiId>& sis,
                        const std::vector<std::uint64_t>& forecast, unsigned budget,
                        const Molecule& ready, fleet::SharedDecision& out);

  const SpecialInstructionSet* set_;
  RtmConfig config_;
  MemoizedSelection selector_;   // also holds the set's fingerprint
  const WorkloadTrace* trace_ = nullptr;  // the trace of the last hot-spot entry
  ExecutionMonitor monitor_;
  std::vector<std::vector<std::uint64_t>> seeds_;  // design-time profile copy
  ContainerFile containers_;  // solo mode only (empty under an arbiter)
  ReconfigPort port_;         // solo mode only (idle under an arbiter)
  ContainerFile* cf_ = nullptr;  // the AC view: &containers_ or the arbiter's
  Cycles denied_until_ = 0;      // arbiter retry hint from the last denial
  std::uint64_t fabric_gen_seen_ = 0;  // last consumed arbiter mutation gen

  std::vector<SiRef> selection_;
  Cycles payback_cycles_per_atom_ = 0;   // avg atom load time (payback rule)
  Molecule demand_;                      // sup of the current selection (hard)
  Molecule soft_demand_;                 // join of the other hot spots' sups
  std::vector<Molecule> hot_spot_sup_;   // last selection sup per hot spot
  std::deque<AtomTypeId> pending_loads_; // remaining SF output
  std::deque<AtomTypeId> prefetch_loads_;       // predicted next hot spot's SF
  std::vector<HotSpotId> successor_;            // last observed successor per hot spot
  // Forecast-churn attribution (DESIGN §7): each hot spot's previous forecast
  // and selection; a drifted forecast that flips the selection is a
  // mispredict and the resulting loads are churn.
  std::vector<std::vector<std::uint64_t>> last_forecast_;
  std::vector<std::vector<SiRef>> last_selection_;
  std::vector<bool> entry_seen_;
  HotSpotId current_hot_spot_ = 0;
  bool seen_any_hot_spot_ = false;
  bool prefetch_computed_ = false;
  Molecule prefetch_demand_;                    // sup of the prefetch selection
  std::vector<Cycles> type_last_used_;   // LRU stamps per atom type

  // Decision memo (see decide()): this RTM's own, unless a shared cache is
  // configured.
  fleet::DecisionMemo decision_memo_;
  std::uint64_t decision_cache_hits_ = 0;
  std::uint64_t decision_cache_misses_ = 0;
  fleet::DecisionKey decision_key_;             // per-decide scratch
  fleet::SharedDecision decision_scratch_;      // result slot (no own memo)
  fleet::SharedDecisionCache::DomainId shared_domain_ = 0;
  std::vector<Molecule> si_need_;               // per SiId: join of its molecules
  Molecule need_;                               // per-decide scratch: the key's cap
  std::vector<std::uint64_t> oracle_forecast_;  // per-entry scratch (kOracle)
  std::vector<SiId> prefetch_sis_;              // per-entry scratch (prefetch)

  // Latency cache, invalidated when ready atoms change. refresh_cache()
  // also diffs old vs new molecules to spot per-SI upgrade transitions
  // (trap → slow molecule → selected molecule): cache_event_now_ remembers
  // the simulated time of the first invalidating port event since the last
  // refresh, which timestamps the upgrade instants on the executor track.
  std::vector<MoleculeId> cached_molecule_;  // per SiId
  std::vector<Cycles> cached_latency_;       // per SiId: latency of cached_molecule_
  std::vector<const Molecule*> cached_stamp_;  // per SiId: its atoms, null for a trap
  // refresh_cache() revisits an SI only when the ready count of an atom
  // type one of its molecules uses moved since the previous refresh.
  std::vector<std::vector<AtomTypeId>> si_atom_types_;  // per SiId
  Molecule refreshed_ready_;                 // ready atoms at the last refresh
  bool cache_primed_ = false;                // a full refresh has run
  bool cache_valid_ = false;
  Cycles cache_event_now_ = 0;
  TraceLane upgrade_lane_;                      // "SI upgrades" row
  std::vector<const char*> traced_si_names_;    // interned, lazy
  void refresh_cache();
};

}  // namespace rispp
