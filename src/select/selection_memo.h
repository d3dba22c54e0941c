// The selection memo: each molecule selection computed once per trace.
//
// select_molecules reads only the SI set, the hot spot's SI list, the
// forecasts of the listed SIs and the Atom Container budget — never the
// ready atoms, the clock or any other backend state (DESIGN §6.2). Monitored
// forecasts depend on the trace alone, so every backend that replays one
// trace (the four RTM schedulers, Molen and OneChip, at every AC count) asks
// for the same few thousand selections over and over. The trace owns one
// SelectionMemo (WorkloadTrace::selection_memo), and backends obtain their
// selections only through it.
//
// Structure: the memo keeps one SelectionTable per SI set, found by the
// set's fingerprint, for the kTables most recently used fingerprints. A
// table maps a key (make_selection_key) to the selection. It is sharded by
// key digest; each entry's key and selection are one record of words,
// bump-allocated in a region the table maps at construction. Records never
// move and cost no allocation of their own, the OS commits a page of the
// region only once a record lands on it, and the region goes back to the OS
// whole when the table dies: a trace replayed once per pass leaves no freed
// memo memory behind to fragment the heap.
//
// Compute once: a miss inserts a pending entry under the shard lock, computes
// with the lock released, then publishes the selection and wakes any thread
// that asked for the same key in between. Other keys of the shard are never
// blocked behind a computation. select.computed counts every selection
// computed, so while no table's region is full and none has been dropped
// from the memo, it equals the number of distinct keys at any thread count.
//
// Bounds: at most kTables tables stay in the memo (a backend keeps the table
// it uses alive until it is destroyed), and a table's records fit in
// kTableWords; once the region is full, a miss computes without inserting.
// A hit returns exactly what select_molecules returns for the request, so
// neither bound ever changes a result.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "isa/si.h"

namespace rispp {

/// A selection key: packed words plus their digest (see make_selection_key).
struct SelectionKey {
  std::vector<std::uint64_t> words;
  std::uint64_t hash = 0;
};

/// The one selection-key function, built from exactly what select_molecules
/// reads: the SI set's fingerprint, the listed SIs in order, their forecasts
/// (`forecast` is indexed by SiId and read only at the listed SIs) and the
/// budget.
void make_selection_key(std::uint64_t set_fingerprint, std::span<const SiId> sis,
                        std::span<const std::uint64_t> forecast, unsigned budget,
                        SelectionKey& key);

/// The memoized selections of one SI set. Thread-safe.
class SelectionTable {
 public:
  static constexpr std::size_t kShards = 8;
  /// Words of records one table can hold (2 MiB).
  static constexpr std::size_t kTableWords = std::size_t{1} << 18;

  explicit SelectionTable(std::uint64_t set_fingerprint);
  SelectionTable(const SelectionTable&) = delete;
  SelectionTable& operator=(const SelectionTable&) = delete;
  ~SelectionTable();

  /// Writes select_molecules' result for (`set`, `sis`, `forecast`,
  /// `budget`) to `out`, computing it only if no thread has before. `set`
  /// must have this table's fingerprint; `key` is caller-owned scratch.
  void select(const SpecialInstructionSet& set, std::span<const SiId> sis,
              std::span<const std::uint64_t> forecast, unsigned budget, SelectionKey& key,
              std::vector<SiRef>& out);

  std::uint64_t set_fingerprint() const { return set_fingerprint_.load(); }
  /// Selections computed through this table, stored or not.
  std::uint64_t computed() const { return computed_.load(std::memory_order_relaxed); }
  /// Entries stored.
  std::size_t size() const;

 private:
  friend class SelectionMemo;
  struct Shard;

  /// Empties the table and gives it to the set with `set_fingerprint`. Only
  /// for a table nobody else holds.
  void reset(std::uint64_t set_fingerprint);

  std::atomic<std::uint64_t> set_fingerprint_;
  std::unique_ptr<Shard[]> shards_;
  std::uint64_t* region_ = nullptr;  // kTableWords, mapped at construction
  std::atomic<std::size_t> used_{0};  // region words handed out
  std::atomic<std::uint64_t> computed_{0};
};

/// The selection tables of the kTables most recently used SI sets. A table
/// that drops out and that no backend still holds is emptied and reused for
/// the next set, so a search that replays one trace against a new set per
/// candidate maps no region per candidate.
class SelectionMemo {
 public:
  static constexpr std::size_t kTables = 16;

  /// The table of the set with `set_fingerprint`, created if the memo holds
  /// none, and made the most recently used.
  std::shared_ptr<SelectionTable> table(std::uint64_t set_fingerprint);

  /// Selections computed through the tables the memo holds now.
  std::uint64_t computed() const;
  /// Entries stored in the tables the memo holds now.
  std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<SelectionTable>> tables_;  // front = most recent
};

/// How a backend selects: its SI set, fingerprinted once, bound to the
/// table for that set in the memo of the trace it replays.
class MemoizedSelection {
 public:
  MemoizedSelection(const SpecialInstructionSet* set, std::uint64_t set_fingerprint);

  /// select_molecules on (sis, forecast, budget) through `memo`, into `out`.
  void select(SelectionMemo& memo, std::span<const SiId> sis,
              std::span<const std::uint64_t> forecast, unsigned budget,
              std::vector<SiRef>& out);

  std::uint64_t set_fingerprint() const { return set_fingerprint_; }

 private:
  const SpecialInstructionSet* set_;
  std::uint64_t set_fingerprint_;
  const SelectionMemo* memo_ = nullptr;  // the memo table_ came from
  std::shared_ptr<SelectionTable> table_;
  SelectionKey key_;
};

}  // namespace rispp
