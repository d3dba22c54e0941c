#include "baselines/molen.h"

#include "base/check.h"
#include "hw/eviction.h"
#include "sched/schedule.h"

namespace rispp {

SingleImplBackend::SingleImplBackend(const SpecialInstructionSet* set,
                                     std::size_t hot_spot_count,
                                     const SingleImplConfig& config, LoadPolicy policy)
    : WindowedBackend(set->si_count(), monitor_, type_last_used_),
      set_(set),
      policy_(policy),
      selector_(set, fingerprint(*set)),
      monitor_(hot_spot_count, set->si_count()),
      containers_(config.container_count, set->atom_type_count()),
      port_(&set->library(), config.bitstream),
      demand_(set->atom_type_count()),
      soft_demand_(set->atom_type_count()),
      hot_spot_sup_(hot_spot_count, Molecule(set->atom_type_count())),
      unrequested_(set->si_count(), 0),
      type_last_used_(set->atom_type_count(), 0),
      cached_latency_(set->si_count(), 0),
      cached_stamp_(set->si_count(), nullptr),
      selected_molecule_(set->si_count(), kSoftwareMolecule) {}

void SingleImplBackend::seed_forecast(HotSpotId hs, SiId si, std::uint64_t expected) {
  monitor_.seed(hs, si, expected);
}

void SingleImplBackend::on_hot_spot_entry(const WorkloadTrace& trace, std::size_t instance,
                                          Cycles now) {
  advance_reconfig(now);

  const HotSpotId hs = trace.instances[instance].hot_spot;
  const HotSpotInfo& info = trace.hot_spots[hs];
  bind_instance(trace.instances[instance], info);
  monitor_.begin_hot_spot(hs);
  const auto& forecast = monitor_.forecast(hs);

  // Same accelerators as RISPP: identical selection under the same budget,
  // from the same memo.
  selector_.select(trace.selection_memo(), info.sis, forecast, containers_.size(),
                   selection_);

  pending_loads_.clear();
  std::fill(unrequested_.begin(), unrequested_.end(), 0);
  std::fill(selected_molecule_.begin(), selected_molecule_.end(), kSoftwareMolecule);
  demand_ = Molecule(set_->atom_type_count());
  for (const SiRef& s : selection_) {
    selected_molecule_[s.si] = s.mol;
    demand_ = join(demand_, set_->si(s.si).molecule(s.mol).atoms);
  }

  if (policy_ == LoadPolicy::kPrefetch) {
    // Load each selected molecule completely, most important SI first (the
    // explicit reconfiguration instructions of the Molen model).
    ScheduleRequest order_req;
    order_req.set = set_;
    order_req.selected = selection_;
    order_req.available = containers_.ready_atoms();
    order_req.expected_executions = forecast;
    Molecule accumulated = containers_.ready_atoms();
    for (const SiRef& s : by_importance(order_req)) {
      const Molecule& atoms = set_->si(s.si).molecule(s.mol).atoms;
      for (AtomTypeId t : unit_decomposition(missing(accumulated, atoms)))
        pending_loads_.push_back(t);
      accumulated = join(accumulated, atoms);
    }

    hot_spot_sup_[hs] = demand_;
    soft_demand_ = Molecule(set_->atom_type_count());
    for (HotSpotId other = 0; other < hot_spot_sup_.size(); ++other)
      if (other != hs) soft_demand_ = join(soft_demand_, hot_spot_sup_[other]);
  } else {
    // Configurations are requested lazily, at each SI's first use.
    for (const SiRef& s : selection_) unrequested_[s.si] = s.mol != kSoftwareMolecule;
  }
  cache_valid_ = false;

  start_pending_loads(now);
}

void SingleImplBackend::on_hot_spot_exit(Cycles) { monitor_.end_hot_spot(); }

void SingleImplBackend::advance_reconfig(Cycles now) {
  while (port_.busy() && port_.inflight()->finishes_at <= now) {
    const auto done = port_.retire(now);
    containers_.complete_load(done.container);
    cache_valid_ = false;
    start_pending_loads(done.finishes_at);
  }
  if (!port_.busy()) start_pending_loads(now);
}

void SingleImplBackend::request_configuration(SiId si, Cycles now) {
  if (unrequested_[si] == 0) return;
  unrequested_[si] = 0;
  const MoleculeId mol = selected_molecule_[si];
  // Queue the atoms this SI's single implementation still misses, counting
  // what earlier requests already queued.
  Molecule accumulated = containers_.ready_atoms();
  for (AtomTypeId t : pending_loads_) ++accumulated[t];
  if (port_.busy()) ++accumulated[port_.inflight()->type];
  for (AtomTypeId t : unit_decomposition(missing(accumulated, set_->si(si).molecule(mol).atoms)))
    pending_loads_.push_back(t);
  start_pending_loads(now);
}

void SingleImplBackend::start_pending_loads(Cycles now) {
  while (!port_.busy() && !pending_loads_.empty()) {
    const AtomTypeId type = pending_loads_.front();
    const auto victim = pick_victim(containers_, demand_, soft_demand_, type_last_used_);
    if (!victim.has_value()) return;
    pending_loads_.pop_front();
    containers_.begin_load(*victim, type);
    cache_valid_ = false;
    port_.start(type, *victim, now);
  }
}

void SingleImplBackend::refresh_cache() {
  const Molecule& ready = containers_.ready_atoms();
  for (SiId si = 0; si < set_->si_count(); ++si) {
    const MoleculeId mol = selected_molecule_[si];
    // No upgrade hierarchy: the single implementation is usable only when
    // complete; no intermediate molecule may serve the SI.
    if (mol != kSoftwareMolecule && leq(set_->si(si).molecule(mol).atoms, ready))
      cached_latency_[si] = set_->si(si).molecule(mol).latency;
    else
      cached_latency_[si] = set_->si(si).software_latency;
    cached_stamp_[si] = cached_latency_[si] != set_->si(si).software_latency
                            ? &set_->si(si).molecule(mol).atoms
                            : nullptr;
  }
  cache_valid_ = true;
}

Cycles SingleImplBackend::si_execution_latency(SiId si, Cycles now) {
  advance_reconfig(now);
  request_configuration(si, now);
  if (!cache_valid_) refresh_cache();
  monitor_.record_execution(si);
  if (const Molecule* atoms = cached_stamp_[si])
    for (std::size_t t = 0; t < atoms->dimension(); ++t)
      if ((*atoms)[t] != 0) type_last_used_[t] = now;
  return cached_latency_[si];
}

PortWindow SingleImplBackend::open_window(Cycles now, SiId next) {
  advance_reconfig(now);
  request_configuration(next, now);
  if (!cache_valid_) refresh_cache();
  std::optional<Cycles> end;
  if (port_.busy()) end = port_.inflight()->finishes_at;
  return PortWindow{end, cached_latency_.data(), cached_stamp_.data(),
                    policy_ == LoadPolicy::kDemand ? unrequested_.data() : nullptr};
}

}  // namespace rispp
