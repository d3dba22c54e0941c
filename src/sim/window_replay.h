// Port-quiet-window replay: the one fast-forward core behind every backend
// whose SI latencies change only at reconfiguration-port events (the RISPP
// Run-Time Manager, Molen and OneChip).
//
// Between two port events every SI's latency is fixed, so a whole window of
// executions replays with arithmetic: per run one step (latency plus the
// per-execution overhead) and one clock advance. A backend supplies only
// open_window(now, next): advance its reconfiguration state to `now` and
// describe the window that starts there. The core owns the rest: the split
// of a run at the window end, one monitor bulk add per SI per window, and
// the LRU stamps each window leaves (only the latest execution of an SI
// survives scalar replay, so one stamp per SI per window is exact).
//
// When the runs being replayed are the ones of the instance the backend
// last entered, the core also uses that instance's RunIndex
// (sim/trace.h): inside a window it scans runs one by one only in the
// partial blocks at the window's two edges and crosses every whole block in
// between with O(k) prefix-count arithmetic, k being the hot spot's SI
// count. Any other run array (a copy, for example) has no blocks to skip
// and goes through the same loop run by run. Both are bit-exact with
// scalar replay (tests/replay_equivalence_test.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "alg/molecule.h"
#include "monitor/forecast.h"
#include "sim/executor.h"

namespace rispp {

/// What a backend looks like from `now` until its next port event.
struct PortWindow {
  /// First cycle at which a latency may change (a load completes, an
  /// arbiter retry falls due), strictly after `now`; nullopt when no port
  /// event is pending.
  std::optional<Cycles> end;
  /// Per SiId: the latency an execution takes anywhere in the window.
  const Cycles* latency = nullptr;
  /// Per SiId: the atoms whose LRU stamp an execution refreshes; a null
  /// entry means the execution stamps nothing (it traps to software).
  const Molecule* const* stamp_atoms = nullptr;
  /// Per SiId, or null for none: nonzero when the SI's next execution does
  /// something a window cannot absorb (OneChip's demand request), so the
  /// window closes right before it and the next one opens there.
  const std::uint8_t* closes = nullptr;
};

/// An ExecutionBackend whose run and span replay is the shared window core.
class WindowedBackend : public ExecutionBackend {
 public:
  // The core keeps references into the derived backend: no copies.
  WindowedBackend(const WindowedBackend&) = delete;
  WindowedBackend& operator=(const WindowedBackend&) = delete;
  /// Publishes the windows this backend opened to sim.replay.windows: one
  /// shared-counter add per backend, so fleets replaying on many threads do
  /// not contend on it once per instance.
  ~WindowedBackend() override;

  Cycles si_execution_run_latency(SiId si, std::uint64_t count, Cycles now,
                                  Cycles per_execution_overhead,
                                  std::vector<LatencySegment>& segments) final;
  Cycles si_execution_span(std::span<const SiRun> runs, Cycles now,
                           Cycles per_execution_overhead) final;

 protected:
  /// `monitor` receives the window counts and `type_last_used` the LRU
  /// stamps; both are members of the derived backend and must outlive it.
  WindowedBackend(std::size_t si_count, ExecutionMonitor& monitor,
                  std::vector<Cycles>& type_last_used);

  /// Advances reconfiguration state to `now`, doing what an execution of
  /// `next` issued at `now` triggers first, and describes the window that
  /// starts there. The returned pointers stay valid until the next call.
  virtual PortWindow open_window(Cycles now, SiId next) = 0;

  /// Call from on_hot_spot_entry: a later span over exactly this instance's
  /// runs may then use its run index.
  void bind_instance(const HotSpotInstance& instance, const HotSpotInfo& info);

 private:
  /// The window loop. Replays `runs`, the first of which has `first_count`
  /// executions left, starting at `now`; appends latency segments when
  /// `segments` is non-null. Returns the cycle after the last execution.
  Cycles replay(std::span<const SiRun> runs, std::uint64_t first_count, Cycles now,
                Cycles overhead, std::vector<LatencySegment>* segments);
  /// Counts `fit` executions of `si` in the open window, the last starting
  /// at `last_start`.
  void note(SiId si, std::uint64_t fit, Cycles last_start);
  /// Delivers the open window's counts and stamps.
  void close_window(const PortWindow& window);

  ExecutionMonitor& monitor_;
  std::vector<Cycles>& type_last_used_;
  // Per SiId, zero outside an open window: executions and last start.
  std::vector<std::uint64_t> window_count_;
  std::vector<Cycles> window_last_;
  std::vector<SiId> window_touched_;
  std::uint64_t windows_ = 0;  // windows opened, published on destruction
  // The instance seen at the last hot-spot entry.
  const SiRun* bound_runs_ = nullptr;
  std::size_t bound_run_count_ = 0;
  const RunIndex* bound_index_ = nullptr;
  const SiId* bound_sis_ = nullptr;
};

}  // namespace rispp
