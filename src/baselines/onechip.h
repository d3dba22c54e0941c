// OneChip98-like baseline (§2/§5: "We have further on analyzed the behavior
// of state-of-the-art related reconfigurable computing systems, i.e. Molen
// [19] and OneChip [21]. They both provide a single implementation per SI
// and thus cannot upgrade during run time.")
//
// OneChip couples a Reconfigurable Functional Unit to the host processor and
// loads configurations on demand: unlike the Molen model there is no
// explicit prefetch at hot-spot entry — the first *use* of an SI requests
// its (single) implementation, and the SI traps to software until that
// implementation is fully configured. Same accelerators as RISPP/Molen
// (identical selection under the same AC budget).
#pragma once

#include <deque>
#include <vector>

#include "hw/atom_container.h"
#include "hw/bitstream.h"
#include "hw/reconfig_port.h"
#include "monitor/forecast.h"
#include "select/selection.h"
#include "sim/window_replay.h"

namespace rispp {

struct OneChipConfig {
  unsigned container_count = 10;
  BitstreamModel bitstream;
};

class OneChipBackend final : public WindowedBackend {
 public:
  OneChipBackend(const SpecialInstructionSet* set, std::size_t hot_spot_count,
                 const OneChipConfig& config);

  void seed_forecast(HotSpotId hs, SiId si, std::uint64_t expected);

  std::string_view name() const override { return "OneChip"; }
  void on_hot_spot_entry(const WorkloadTrace& trace, std::size_t instance,
                         Cycles now) override;
  void on_hot_spot_exit(Cycles now) override;
  Cycles si_execution_latency(SiId si, Cycles now) override;
  std::uint64_t completed_loads() const override { return port_.completed_loads(); }

 private:
  void advance_reconfig(Cycles now);
  void start_pending_loads(Cycles now);
  void request_configuration(SiId si);
  void refresh_cache();
  PortWindow open_window(Cycles now, SiId next) override;

  const SpecialInstructionSet* set_;
  OneChipConfig config_;
  ExecutionMonitor monitor_;
  ContainerFile containers_;
  ReconfigPort port_;

  std::vector<SiRef> selection_;
  Molecule demand_;
  std::deque<AtomTypeId> pending_loads_;
  /// Per SiId: 1 while the SI is selected but its configuration has not
  /// been requested — its next execution issues the demand request, which
  /// closes a replay window.
  std::vector<std::uint8_t> unrequested_;
  std::vector<MoleculeId> selected_molecule_; // per SiId
  std::vector<Cycles> type_last_used_;
  std::vector<Cycles> cached_latency_;
  /// Per SiId: the selected molecule's atoms while it serves the SI, else null.
  std::vector<const Molecule*> cached_stamp_;
  bool cache_valid_ = false;
};

}  // namespace rispp
