// Single-implementation baselines (§5, Table 2): "Molen [19] and OneChip
// [21] … both provide a single implementation per SI and thus cannot
// upgrade during run time."
//
// For the fair comparison the paper describes, both get the same hardware
// accelerators as RISPP: the same Atom Containers, the same reconfiguration
// port and the same selected Molecules (via the same selection under the
// same AC budget). What they lack is the RISPP upgrade hierarchy: an SI
// executes with its molecule only once ALL of that molecule's atoms are
// configured, and in software until then.
//
// The two differ only in when the loads are queued (LoadPolicy):
//  - Molen (kPrefetch): explicitly predetermined reconfiguration. At
//    hot-spot entry every selected molecule is queued, molecule by
//    molecule in importance order.
//  - OneChip (kDemand): a Reconfigurable Functional Unit coupled to the
//    host processor loads configurations on demand. There is no prefetch:
//    the first *use* of an SI requests its implementation, and the SI traps
//    to software until that implementation is fully configured.
// Molen's victim choice also spares the atoms the other hot spots selected
// (soft demand, hw/eviction.h); OneChip's does not.
#pragma once

#include <deque>
#include <vector>

#include "hw/atom_container.h"
#include "hw/bitstream.h"
#include "hw/reconfig_port.h"
#include "monitor/forecast.h"
#include "select/selection_memo.h"
#include "sim/window_replay.h"

namespace rispp {

/// When a single-implementation backend queues its selected molecules.
enum class LoadPolicy {
  kPrefetch,  // Molen: all of them at hot-spot entry, most important first
  kDemand,    // OneChip: each one at its SI's first execution
};

struct SingleImplConfig {
  unsigned container_count = 10;
  BitstreamModel bitstream;
};
using MolenConfig = SingleImplConfig;

class SingleImplBackend : public WindowedBackend {
 public:
  SingleImplBackend(const SpecialInstructionSet* set, std::size_t hot_spot_count,
                    const SingleImplConfig& config, LoadPolicy policy);

  void seed_forecast(HotSpotId hs, SiId si, std::uint64_t expected);

  std::string_view name() const final {
    return policy_ == LoadPolicy::kPrefetch ? "Molen" : "OneChip";
  }
  void on_hot_spot_entry(const WorkloadTrace& trace, std::size_t instance,
                         Cycles now) final;
  void on_hot_spot_exit(Cycles now) final;
  Cycles si_execution_latency(SiId si, Cycles now) final;
  std::uint64_t completed_loads() const final { return port_.completed_loads(); }
  Cycles worst_si_latency(SiId si) const final { return set_->si(si).worst_latency(); }

 private:
  void advance_reconfig(Cycles now);
  /// Demand loading: queues the atoms `si`'s implementation still misses if
  /// its first execution is now, and starts the port on them.
  void request_configuration(SiId si, Cycles now);
  void start_pending_loads(Cycles now);
  void refresh_cache();
  PortWindow open_window(Cycles now, SiId next) final;

  const SpecialInstructionSet* set_;
  LoadPolicy policy_;
  MemoizedSelection selector_;
  ExecutionMonitor monitor_;
  ContainerFile containers_;
  ReconfigPort port_;

  /// The current hot spot's selection, from the trace's selection memo.
  std::vector<SiRef> selection_;
  /// The current selection's atoms, pinned against eviction.
  Molecule demand_;
  /// Prefetch only: the atoms the other hot spots last selected, spared
  /// before LRU (join over hot_spot_sup_). Stays empty under kDemand.
  Molecule soft_demand_;
  std::vector<Molecule> hot_spot_sup_;
  std::deque<AtomTypeId> pending_loads_;
  /// Per SiId: 1 while the SI is selected but its configuration has not
  /// been requested — its next execution issues the demand request, which
  /// closes a replay window. Stays 0 under kPrefetch.
  std::vector<std::uint8_t> unrequested_;
  std::vector<Cycles> type_last_used_;

  /// Per SiId: the latency the SI currently takes (selected molecule if
  /// complete, else software).
  std::vector<Cycles> cached_latency_;
  /// Per SiId: the selected molecule's atoms while it serves the SI, else null.
  std::vector<const Molecule*> cached_stamp_;
  std::vector<MoleculeId> selected_molecule_;  // per SiId, kSoftwareMolecule if none
  bool cache_valid_ = false;
};

class MolenBackend final : public SingleImplBackend {
 public:
  MolenBackend(const SpecialInstructionSet* set, std::size_t hot_spot_count,
               const MolenConfig& config)
      : SingleImplBackend(set, hot_spot_count, config, LoadPolicy::kPrefetch) {}
};

}  // namespace rispp
