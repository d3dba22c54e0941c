// Static-ASIP upper bound: every SI permanently owns its fastest molecule in
// dedicated hardware (no reconfiguration, unlimited area). This is the
// extensible-processor paradigm of Figure 1a — maximal speed, maximal idle
// silicon — and serves as the lower bound on achievable execution time.
#pragma once

#include <vector>

#include "isa/si.h"
#include "sim/executor.h"

namespace rispp {

class StaticAsipBackend final : public ExecutionBackend {
 public:
  explicit StaticAsipBackend(const SpecialInstructionSet* set);

  std::string_view name() const override { return "StaticASIP"; }
  void on_hot_spot_entry(const WorkloadTrace&, std::size_t, Cycles) override {}
  void on_hot_spot_exit(Cycles) override {}
  Cycles si_execution_latency(SiId si, Cycles) override { return best_latency_[si]; }
  Cycles si_execution_run_latency(SiId si, std::uint64_t count, Cycles, Cycles,
                                  std::vector<LatencySegment>& segments) override {
    // Dedicated hardware: the latency never changes, a run is one segment.
    append_latency_segment(segments, count, best_latency_[si]);
    return best_latency_[si] * count;
  }
  Cycles si_execution_span(std::span<const SiRun> runs, Cycles now,
                           Cycles per_execution_overhead) override {
    for (const SiRun& run : runs)
      now += run.count * (best_latency_[run.si] + per_execution_overhead);
    return now;
  }

  Cycles worst_si_latency(SiId si) const override { return best_latency_.at(si); }

  /// Total atoms the dedicated hardware would occupy (the paper's "overhead
  /// can easily grow twice the size of the original processor core").
  unsigned dedicated_atoms() const { return dedicated_atoms_; }

 private:
  std::vector<Cycles> best_latency_;
  unsigned dedicated_atoms_ = 0;
};

}  // namespace rispp
