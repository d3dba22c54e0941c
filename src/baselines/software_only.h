// Pure base-processor execution (0 Atom Containers): every SI traps. The
// paper's reference point "down to the execution speed of a general-purpose
// processor in case of zero ACs: 7,403M cycles".
#pragma once

#include "sim/executor.h"
#include "isa/si.h"

namespace rispp {

class SoftwareOnlyBackend final : public ExecutionBackend {
 public:
  explicit SoftwareOnlyBackend(const SpecialInstructionSet* set) : set_(set) {}

  std::string_view name() const override { return "Software"; }
  void on_hot_spot_entry(const WorkloadTrace&, std::size_t, Cycles) override {}
  void on_hot_spot_exit(Cycles) override {}
  Cycles si_execution_latency(SiId si, Cycles) override {
    return set_->si(si).software_latency;
  }
  Cycles si_execution_run_latency(SiId si, std::uint64_t count, Cycles, Cycles,
                                  std::vector<LatencySegment>& segments) override {
    // Latency never changes: a whole run is one segment.
    const Cycles latency = set_->si(si).software_latency;
    append_latency_segment(segments, count, latency);
    return latency * count;
  }
  Cycles si_execution_span(std::span<const SiRun> runs, Cycles now,
                           Cycles per_execution_overhead) override {
    for (const SiRun& run : runs)
      now += run.count * (set_->si(run.si).software_latency + per_execution_overhead);
    return now;
  }
  Cycles worst_si_latency(SiId si) const override { return set_->si(si).software_latency; }

 private:
  const SpecialInstructionSet* set_;
};

}  // namespace rispp
