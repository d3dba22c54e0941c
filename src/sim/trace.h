// Workload traces: what the processor executes, independent of *how fast*.
//
// A trace is a sequence of hot-spot instances (e.g. ME, EE, LF of each
// frame), each carrying the exact order of SI executions the application
// issued plus the base-processor overhead around them. The functional H.264
// encoder records a trace once; the cycle-level executor then replays it
// under any Run-Time Manager / scheduler / AC-count configuration — the same
// record-replay methodology as the paper's simulation toolchain.
//
// Real SI streams are extremely repetitive (motion estimation issues tens of
// thousands of consecutive SADs), so each instance also carries a run-length
// encoded view of its executions. The batched replay path (sim/executor.h)
// consumes whole runs at once instead of one virtual call per execution.
#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "base/types.h"
#include "monitor/forecast.h"

namespace rispp {

/// A maximal run of consecutive identical SI executions.
struct SiRun {
  SiId si = 0;
  std::uint32_t count = 0;
};

/// Block index over one instance's runs, derived by build_runs() and load()
/// and never serialized. Slot j stands for the hot spot's `sis[j]`. Runs are
/// grouped in blocks of kBlockRuns; per block boundary the index keeps each
/// slot's execution count so far, and per block which slots occur in it. A
/// port-quiet window (sim/window_replay.h) crosses a whole block in O(k)
/// arithmetic instead of one step per run.
struct RunIndex {
  static constexpr std::size_t kBlockRuns = 16;
  static constexpr std::size_t kMaxSlots = 32;  // one presence bit per slot

  /// k, the hot spot's SI count; 0 means the instance has no index.
  std::uint32_t slots = 0;
  /// (blocks() + 1) rows of k counts: row b holds each slot's executions in
  /// runs [0, min(b * kBlockRuns, runs.size())), so the last row is the total.
  std::vector<std::uint32_t> prefix;
  /// Per block: bit j is set when a run of slot j lies in the block.
  std::vector<std::uint32_t> present;

  std::size_t blocks() const { return present.size(); }
  const std::uint32_t* checkpoint(std::size_t block) const {
    return prefix.data() + block * slots;
  }
};

/// Builds the index of `runs` over the hot-spot SI list `sis`. Returns an
/// empty index (slots == 0) when a run's SI is not in `sis`, `sis` has more
/// than kMaxSlots entries, or a slot's executions overflow 32 bits.
RunIndex build_run_index(const std::vector<SiRun>& runs, const std::vector<SiId>& sis);

struct HotSpotInstance {
  HotSpotInstance() = default;
  HotSpotInstance(HotSpotId hs, std::vector<SiId> execs, Cycles entry)
      : hot_spot(hs), executions(std::move(execs)), entry_overhead(entry) {}

  HotSpotId hot_spot = 0;
  /// SI executions in program order.
  std::vector<SiId> executions;
  /// Base-processor cycles spent entering the hot spot (control code, cache
  /// warmup) before the first SI.
  Cycles entry_overhead = 0;
  /// Run-length encoding of `executions` (consecutive identical SIs
  /// coalesced). Empty until WorkloadTrace::build_runs(); the batched
  /// executor falls back to an on-the-fly encoding when empty.
  std::vector<SiRun> runs;
  /// Block index over `runs`; empty until build_runs() or load().
  RunIndex run_index;
};

struct HotSpotInfo {
  std::string name;
  /// SIs this hot spot uses (input to Molecule selection).
  std::vector<SiId> sis;
  /// Base-processor cycles of glue code around each SI execution.
  Cycles per_execution_overhead = 0;
};

struct WorkloadTrace {
  std::vector<HotSpotInfo> hot_spots;
  std::vector<HotSpotInstance> instances;

  std::size_t total_si_executions() const;
  /// Executions of one SI across the whole trace.
  std::uint64_t executions_of(SiId si) const;

  /// Base-processor cycles the replay spends outside SI latencies: every
  /// instance's entry overhead plus the per-execution glue overhead of its
  /// hot spot. total_cycles of any replay is exactly this plus the summed SI
  /// latencies, so `overhead_cycles() + Σ execs·floor_latency` is a sound
  /// lower bound on any backend's total — the DSE early-abandon bound.
  Cycles overhead_cycles() const;

  /// Builds the per-instance run forms and their run indexes, and caches
  /// per-SI execution totals so total_si_executions()/executions_of() stop
  /// rescanning instances.
  /// Idempotent; re-call after mutating `instances`. Sweeps share one const
  /// trace across threads, so build the runs once before fanning out —
  /// load() and the workload generators already do.
  void build_runs();
  bool runs_built() const { return runs_built_; }

  /// Compact binary serialization (cache for expensive workload generation).
  /// Format v2 stores each instance's run form next to its executions, so
  /// load() validates and adopts the runs instead of rebuilding them; a v1
  /// file (pre-runs magic) is rejected with a clear regenerate message.
  /// load() fails closed (RISPP_CHECK) on a run whose SI is not in its hot
  /// spot's `sis`, on an empty run, and on any length field larger than the
  /// bytes left in a seekable stream, before allocating for it.
  void save(std::ostream& os) const;
  static WorkloadTrace load(std::istream& is);

 private:
  std::vector<std::uint64_t> executions_per_si_;  // cached totals, by SiId
  std::uint64_t total_executions_ = 0;
  bool runs_built_ = false;
};

/// Directory recorded-trace cache files live in: $RISPP_TRACE_DIR, or the
/// system temp directory when unset. Shared by the bench harness and the
/// fleet's TraceRepository so one warm cache serves both.
std::filesystem::path trace_cache_dir();

/// Atomically persists `trace` at `path`: writes a pid-and-counter-unique
/// temp file and renames it into place, so a concurrent reader never sees a
/// partial trace. Best-effort — unwritable paths are silently skipped (the
/// cache is an optimization, never a correctness dependency).
void save_trace_file(const WorkloadTrace& trace, const std::filesystem::path& path);

/// Loads the trace cached at `path`; nullopt when the file is missing or
/// fails load()'s validation (corrupt / stale format — regenerate).
std::optional<WorkloadTrace> try_load_trace_file(const std::filesystem::path& path);

/// As above, and also nullopt when a hot spot names an SI id >= `si_count`
/// (a trace recorded for, or corrupted away from, the SI set it replays on).
std::optional<WorkloadTrace> try_load_trace_file(const std::filesystem::path& path,
                                                 std::size_t si_count);

}  // namespace rispp
