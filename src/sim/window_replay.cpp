#include "sim/window_replay.h"

#include <algorithm>
#include <array>

#include "base/metrics.h"

namespace rispp {

WindowedBackend::WindowedBackend(std::size_t si_count, ExecutionMonitor& monitor,
                                 std::vector<Cycles>& type_last_used)
    : monitor_(monitor),
      type_last_used_(type_last_used),
      window_count_(si_count, 0),
      window_last_(si_count, 0) {}

WindowedBackend::~WindowedBackend() {
  static MetricCounter& windows_metric = metric_counter("sim.replay.windows");
  windows_metric.add(windows_);
}

void WindowedBackend::bind_instance(const HotSpotInstance& instance, const HotSpotInfo& info) {
  bound_runs_ = instance.runs.data();
  bound_run_count_ = instance.runs.size();
  bound_index_ = instance.run_index.slots > 0 ? &instance.run_index : nullptr;
  bound_sis_ = info.sis.data();
}

Cycles WindowedBackend::si_execution_run_latency(SiId si, std::uint64_t count, Cycles now,
                                                 Cycles per_execution_overhead,
                                                 std::vector<LatencySegment>& segments) {
  if (count == 0) return 0;
  const SiRun run{si, 0};  // the count travels as `first_count` (it may exceed 32 bits)
  const Cycles end = replay(std::span<const SiRun>(&run, 1), count, now,
                            per_execution_overhead, &segments);
  return end - now - count * per_execution_overhead;
}

Cycles WindowedBackend::si_execution_span(std::span<const SiRun> runs, Cycles now,
                                          Cycles per_execution_overhead) {
  if (runs.empty()) return now;
  return replay(runs, runs.front().count, now, per_execution_overhead, nullptr);
}

void WindowedBackend::note(SiId si, std::uint64_t fit, Cycles last_start) {
  if (window_count_[si] == 0) window_touched_.push_back(si);
  window_count_[si] += fit;
  window_last_[si] = last_start;
}

void WindowedBackend::close_window(const PortWindow& window) {
  for (const SiId si : window_touched_) {
    monitor_.record_executions(si, window_count_[si]);
    window_count_[si] = 0;
    // Stamp while the window's molecules are still current (the next
    // open_window may change them).
    if (const Molecule* atoms = window.stamp_atoms[si]) {
      const Cycles last = window_last_[si];
      for (std::size_t t = 0; t < atoms->dimension(); ++t)
        if ((*atoms)[t] != 0 && type_last_used_[t] < last) type_last_used_[t] = last;
    }
  }
  window_touched_.clear();
}

Cycles WindowedBackend::replay(std::span<const SiRun> runs, std::uint64_t first_count,
                               Cycles now, Cycles overhead,
                               std::vector<LatencySegment>* segments) {
  constexpr std::size_t kBlock = RunIndex::kBlockRuns;
  const RunIndex* index =
      runs.data() == bound_runs_ && runs.size() == bound_run_count_ ? bound_index_ : nullptr;
  const std::size_t k = index != nullptr ? index->slots : 0;
  std::array<Cycles, RunIndex::kMaxSlots> slot_step{};
  std::array<std::size_t, RunIndex::kMaxSlots> last_blocks{};

  std::size_t i = 0;
  std::uint64_t left = first_count;  // executions of runs[i] not yet replayed
  while (i < runs.size()) {
    const PortWindow window = open_window(now, runs[i].si);
    ++windows_;
    const bool bounded = window.end.has_value();
    const Cycles end = window.end.value_or(0);
    std::uint32_t closing = 0;  // slots a block must not contain to be skipped
    for (std::size_t j = 0; j < k; ++j) {
      const SiId si = bound_sis_[j];
      slot_step[j] = window.latency[si] + overhead;
      if (window.closes != nullptr && window.closes[si] != 0) closing |= std::uint32_t{1} << j;
    }

    while (i < runs.size()) {
      if (bounded && now >= end) break;  // the next execution sees the port event
      const bool fresh = left == runs[i].count;  // no execution of runs[i] replayed yet

      if (k > 0 && fresh && i % kBlock == 0) {
        // At a block boundary: cross every whole block the window still
        // covers. Cycles from checkpoint b to checkpoint c are the slot
        // count deltas times the slot steps.
        const std::size_t b = i / kBlock;
        const std::uint32_t* base = index->checkpoint(b);
        const auto elapsed = [&](std::size_t c) {
          const std::uint32_t* row = index->checkpoint(c);
          Cycles t = 0;
          for (std::size_t j = 0; j < k; ++j) t += slot_step[j] * (row[j] - base[j]);
          return t;
        };
        // Blocks [b, to) are crossed: each must end before the window does
        // and hold no SI that closes it. The forward walk checks the blocks
        // a window crosses plus one, so over an instance it costs its
        // blocks plus its windows.
        const std::size_t blocks = index->blocks();
        std::size_t to = b;
        if (closing == 0 && (!bounded || now + elapsed(blocks) < end)) {
          to = blocks;  // the window outlasts the instance
        } else {
          while (to < blocks && (index->present[to] & closing) == 0 &&
                 (!bounded || now + elapsed(to + 1) < end))
            ++to;
        }
        if (to > b) {
          // Counts: one add per slot. Last starts, needed only for SIs that
          // stamp: walk back to the last block holding each such slot, then
          // rescan those blocks in order so a later block's start overwrites
          // an earlier one's.
          const std::uint32_t* upto = index->checkpoint(to);
          std::uint32_t pending = 0;
          for (std::size_t j = 0; j < k; ++j) {
            const std::uint32_t executions = upto[j] - base[j];
            if (executions == 0) continue;
            const SiId si = bound_sis_[j];
            if (window.stamp_atoms[si] != nullptr) pending |= std::uint32_t{1} << j;
            if (window_count_[si] == 0) window_touched_.push_back(si);
            window_count_[si] += executions;
          }
          std::size_t found = 0;
          for (std::size_t c = to; pending != 0 && c-- > b;) {
            if ((index->present[c] & pending) == 0) continue;
            pending &= ~index->present[c];
            last_blocks[found++] = c;
          }
          while (found > 0) {
            const std::size_t c = last_blocks[--found];
            Cycles t = now + elapsed(c);
            const std::size_t stop = std::min((c + 1) * kBlock, runs.size());
            for (std::size_t r = c * kBlock; r < stop; ++r) {
              const Cycles step = window.latency[runs[r].si] + overhead;
              window_last_[runs[r].si] = t + (runs[r].count - 1) * step;
              t += runs[r].count * step;
            }
          }
          now += elapsed(to);
          i = std::min(to * kBlock, runs.size());
          if (i < runs.size()) left = runs[i].count;
          continue;
        }
      }

      const SiId si = runs[i].si;
      // An SI whose first execution the window cannot absorb opens the next.
      if (fresh && window.closes != nullptr && window.closes[si] != 0) break;
      const Cycles latency = window.latency[si];
      const Cycles step = latency + overhead;
      std::uint64_t fit = left;
      // Executions start at now, now + step, ...; those starting at or after
      // `end` belong to the next window.
      if (bounded && left * step >= end - now + step) fit = (end - now + step - 1) / step;
      if (fit > 0) {
        note(si, fit, now + (fit - 1) * step);
        if (segments != nullptr) append_latency_segment(*segments, fit, latency);
        now += fit * step;
      }
      if (fit < left) {
        left -= fit;
        break;  // the window ends inside this run
      }
      if (++i < runs.size()) left = runs[i].count;
    }
    close_window(window);
  }
  return now;
}

}  // namespace rispp
