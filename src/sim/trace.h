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
// thousands of consecutive SADs), so an instance records its SI stream only
// as maximal runs of identical executions, in memory and on disk. Generators
// append executions through HotSpotInstance::append, which coalesces them;
// the batched replay path (sim/executor.h) consumes whole runs at once, and
// the scalar reference expands each run into one call per execution.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/types.h"
#include "monitor/forecast.h"

namespace rispp {

class SelectionMemo;  // select/selection_memo.h

/// A run of consecutive identical SI executions.
struct SiRun {
  SiId si = 0;
  std::uint32_t count = 0;

  friend bool operator==(const SiRun&, const SiRun&) = default;
};

/// Block index over one instance's runs, derived by index_runs() and load()
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
  HotSpotInstance(HotSpotId hs, Cycles entry) : hot_spot(hs), entry_overhead(entry) {}
  /// An instance whose SI executions, in program order, are `executions`.
  HotSpotInstance(HotSpotId hs, const std::vector<SiId>& executions, Cycles entry);

  /// Appends `count` executions of `si` after the instance's last one. The
  /// one place executions become runs: a run of the same SI is extended, so
  /// runs built only through append() are maximal (no two adjacent runs
  /// share an SI) unless one run would exceed 2^32 - 1 executions.
  void append(SiId si, std::uint64_t count = 1);
  /// SI executions in the instance: the sum of its run counts.
  std::uint64_t execution_count() const { return execution_count_; }

  HotSpotId hot_spot = 0;
  /// Base-processor cycles spent entering the hot spot (control code, cache
  /// warmup) before the first SI.
  Cycles entry_overhead = 0;
  /// The instance's SI executions in program order, as runs of consecutive
  /// identical SIs. Extend it through append() only, which keeps
  /// execution_count() in step.
  std::vector<SiRun> runs;
  /// Block index over `runs`; empty until WorkloadTrace::index_runs() or
  /// load().
  RunIndex run_index;

 private:
  std::uint64_t execution_count_ = 0;
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
  /// Executions of one SI across the whole trace; counted by index_runs()
  /// and load().
  std::uint64_t executions_of(SiId si) const;

  /// Base-processor cycles the replay spends outside SI latencies: every
  /// instance's entry overhead plus the per-execution glue overhead of its
  /// hot spot. total_cycles of any replay is exactly this plus the summed SI
  /// latencies, so `overhead_cycles() + Σ execs·floor_latency` is a sound
  /// lower bound on any backend's total — the DSE early-abandon bound.
  Cycles overhead_cycles() const;

  /// Derives each instance's run index and the per-SI execution totals
  /// executions_of() reads. Idempotent; re-call after mutating `instances`.
  /// Sweeps share one const trace across threads, so index once before
  /// fanning out — load() and the workload generators already do.
  void index_runs();

  /// Compact binary serialization (cache for expensive workload generation).
  /// Format v3 stores each instance's hot spot, entry overhead and runs, and
  /// ends with a 64-bit trace_checksum() of every byte before it. Files of
  /// format v1 or v2 (which stored executions too) are rejected with a
  /// regenerate message. load() fails closed (RISPP_CHECK) on a checksum
  /// mismatch, an empty run, a run whose SI is not in its hot spot's `sis`,
  /// an out-of-range hot spot, trailing bytes, overheads or execution counts
  /// that could wrap simulated time, and on any length field larger than the
  /// bytes left, before allocating for it.
  void save(std::ostream& os) const;
  static WorkloadTrace load(std::istream& is);

  /// The memo of the molecule selections made while replaying this trace
  /// (select/selection_memo.h), created by the first call. Every backend
  /// that replays this object shares it, so each distinct selection is
  /// computed once per trace. A copy starts with an empty memo; a move takes
  /// the memo along.
  SelectionMemo& selection_memo() const;

 private:
  /// Owner of selection_memo(): null until the first call installs one.
  class MemoSlot {
   public:
    MemoSlot() = default;
    MemoSlot(const MemoSlot&) {}
    MemoSlot(MemoSlot&& other) noexcept : memo_(other.memo_.exchange(nullptr)) {}
    MemoSlot& operator=(const MemoSlot&) {
      reset(nullptr);
      return *this;
    }
    MemoSlot& operator=(MemoSlot&& other) noexcept {
      reset(other.memo_.exchange(nullptr));
      return *this;
    }
    ~MemoSlot() { reset(nullptr); }

    SelectionMemo& get();

   private:
    void reset(SelectionMemo* memo) noexcept;
    std::atomic<SelectionMemo*> memo_{nullptr};
  };

  std::vector<std::uint64_t> executions_per_si_;  // by SiId, from index_runs()
  mutable MemoSlot selection_memo_;
};

/// The 64-bit content checksum a v3 trace file ends with, over `bytes` (the
/// whole file before the checksum). A change to any single 8-byte word of
/// the input always changes it.
std::uint64_t trace_checksum(std::string_view bytes);

/// Directory recorded-trace cache files live in: $RISPP_TRACE_DIR, or the
/// system temp directory when unset. Shared by the bench harness and the
/// fleet's TraceRepository so one warm cache serves both.
std::filesystem::path trace_cache_dir();

/// Atomically persists `trace` at `path`: creates the parent directory, writes
/// a pid-and-counter-unique temp file and renames it into place, so a
/// concurrent reader never sees a partial trace. A path that still cannot be
/// written is skipped, since the cache is an optimization and never a
/// correctness dependency, but the first such failure in a process prints
/// one stderr line saying that trace caching is off.
void save_trace_file(const WorkloadTrace& trace, const std::filesystem::path& path);

/// Loads the trace cached at `path`; nullopt when the file is missing or
/// fails load()'s validation (corrupt / stale format — regenerate).
std::optional<WorkloadTrace> try_load_trace_file(const std::filesystem::path& path);

/// As above, and also nullopt when a hot spot names an SI id >= `si_count`
/// (a trace recorded for, or corrupted away from, the SI set it replays on).
std::optional<WorkloadTrace> try_load_trace_file(const std::filesystem::path& path,
                                                 std::size_t si_count);

}  // namespace rispp
