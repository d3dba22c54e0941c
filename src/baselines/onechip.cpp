#include "baselines/onechip.h"

#include "base/check.h"
#include "hw/eviction.h"

namespace rispp {

OneChipBackend::OneChipBackend(const SpecialInstructionSet* set, std::size_t hot_spot_count,
                               const OneChipConfig& config)
    : WindowedBackend(set->si_count(), monitor_, type_last_used_),
      set_(set),
      config_(config),
      monitor_(hot_spot_count, set->si_count()),
      containers_(config.container_count, set->atom_type_count()),
      port_(&set->library(), config.bitstream),
      demand_(set->atom_type_count()),
      unrequested_(set->si_count(), 0),
      selected_molecule_(set->si_count(), kSoftwareMolecule),
      type_last_used_(set->atom_type_count(), 0),
      cached_latency_(set->si_count(), 0),
      cached_stamp_(set->si_count(), nullptr) {}

void OneChipBackend::seed_forecast(HotSpotId hs, SiId si, std::uint64_t expected) {
  monitor_.seed(hs, si, expected);
}

void OneChipBackend::on_hot_spot_entry(const WorkloadTrace& trace, std::size_t instance,
                                       Cycles now) {
  advance_reconfig(now);

  const HotSpotId hs = trace.instances[instance].hot_spot;
  const HotSpotInfo& info = trace.hot_spots[hs];
  bind_instance(trace.instances[instance], info);
  monitor_.begin_hot_spot(hs);
  const auto& forecast = monitor_.forecast(hs);

  // Same accelerators: identical selection under the same budget. But no
  // prefetch — configurations are requested lazily at first use.
  SelectionRequest sel_req;
  sel_req.set = set_;
  sel_req.hot_spot_sis = info.sis;
  sel_req.expected_executions = forecast;
  sel_req.container_count = containers_.size();
  selection_ = select_molecules(sel_req);

  pending_loads_.clear();
  std::fill(unrequested_.begin(), unrequested_.end(), 0);
  std::fill(selected_molecule_.begin(), selected_molecule_.end(), kSoftwareMolecule);
  for (const SiRef& s : selection_) {
    selected_molecule_[s.si] = s.mol;
    unrequested_[s.si] = s.mol != kSoftwareMolecule;
  }

  demand_ = Molecule(set_->atom_type_count());
  for (const SiRef& s : selection_)
    demand_ = join(demand_, set_->si(s.si).molecule(s.mol).atoms);
  cache_valid_ = false;
}

void OneChipBackend::on_hot_spot_exit(Cycles) { monitor_.end_hot_spot(); }

void OneChipBackend::request_configuration(SiId si) {
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
}

void OneChipBackend::advance_reconfig(Cycles now) {
  while (port_.busy() && port_.inflight()->finishes_at <= now) {
    const auto done = port_.retire(now);
    containers_.complete_load(done.container);
    cache_valid_ = false;
    start_pending_loads(done.finishes_at);
  }
  if (!port_.busy()) start_pending_loads(now);
}

void OneChipBackend::start_pending_loads(Cycles now) {
  while (!port_.busy() && !pending_loads_.empty()) {
    const AtomTypeId type = pending_loads_.front();
    const auto victim =
        pick_victim(containers_, demand_, Molecule(set_->atom_type_count()), type_last_used_);
    if (!victim.has_value()) return;
    pending_loads_.pop_front();
    containers_.begin_load(*victim, type);
    cache_valid_ = false;
    port_.start(type, *victim, now);
  }
}

void OneChipBackend::refresh_cache() {
  const Molecule& ready = containers_.ready_atoms();
  for (SiId si = 0; si < set_->si_count(); ++si) {
    const MoleculeId mol = selected_molecule_[si];
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

Cycles OneChipBackend::si_execution_latency(SiId si, Cycles now) {
  advance_reconfig(now);
  request_configuration(si);  // demand loading at first use
  start_pending_loads(now);
  if (!cache_valid_) refresh_cache();
  monitor_.record_execution(si);
  if (const Molecule* atoms = cached_stamp_[si])
    for (std::size_t t = 0; t < atoms->dimension(); ++t)
      if ((*atoms)[t] != 0) type_last_used_[t] = now;
  return cached_latency_[si];
}

PortWindow OneChipBackend::open_window(Cycles now, SiId next) {
  advance_reconfig(now);
  request_configuration(next);  // demand loading at first use (idempotent)
  start_pending_loads(now);
  if (!cache_valid_) refresh_cache();
  std::optional<Cycles> end;
  if (port_.busy()) end = port_.inflight()->finishes_at;
  return PortWindow{end, cached_latency_.data(), cached_stamp_.data(), unrequested_.data()};
}

}  // namespace rispp
