// OneChip98-like baseline (§2/§5): the single-implementation backend with
// demand loading — the first use of an SI requests its implementation
// (baselines/molen.h).
#pragma once

#include "baselines/molen.h"

namespace rispp {

using OneChipConfig = SingleImplConfig;

class OneChipBackend final : public SingleImplBackend {
 public:
  OneChipBackend(const SpecialInstructionSet* set, std::size_t hot_spot_count,
                 const OneChipConfig& config)
      : SingleImplBackend(set, hot_spot_count, config, LoadPolicy::kDemand) {}
};

}  // namespace rispp
