// RTM decision memos: the one key function, the LRU memo every RTM owns, and
// the process-wide, thread-safe memo shared across sessions.
//
// The Run-Time Manager memoizes its selection→schedule decision (DESIGN
// §6.2). The key is built by make_decision_key alone, from exactly what the
// decision reads: the hot spot's SI list, the forecast of the listed SIs,
// the container budget, and the ready atoms capped at the list's need (the
// join of every molecule of every listed SI). Selection never reads ready
// atoms, and the schedulers read them only through leq, ⊖ and ∪ against
// molecules of the listed SIs, all of which are ≤ the need, so atoms beyond
// it cannot change a decision. The SI set, the scheduler strategy, the
// payback constant and the decision-relevant RtmConfig knobs are per-RTM
// constants; the key carries them as a registered domain id, so one memo can
// serve RTMs configured differently.
//
// DecisionMemo is an unsynchronized LRU map from key to decision (one owner).
// SharedDecisionCache hoists the memo to many owners: thousands of fleet
// sessions replay the same handful of contents under the same handful of
// scheduler/AC configs, and the tenants of a contended device meet the same
// keys, so session B hits decisions session A computed. Replaying a hit is
// bit-exact: the value is a pure function of the key.
//
// Concurrency: the shared cache is sharded by key digest; each shard holds its
// own mutex and DecisionMemo, so concurrent sessions on the work-stealing
// pool contend only when their keys land in the same shard. A hit copies the
// decision out under the shard lock (entries may be evicted by other sessions
// the moment the lock drops). Hash collisions degrade to a full key compare,
// never to a wrong decision.
//
// Metrics: fleet.decision_cache.{hits,misses,evictions,cross_session_hits};
// cross_session_hits counts hits on entries inserted by a *different*
// session — the number that should climb with fleet size.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "alg/molecule.h"
#include "base/types.h"
#include "isa/si.h"

namespace rispp::fleet {

/// The memoized result of one selection→schedule decision. Schedule::steps
/// are not kept: the RTM only replays the atom load sequence.
struct SharedDecision {
  std::vector<SiRef> selection;
  std::vector<AtomTypeId> loads;
};

/// A decision key: packed words plus their digest (see make_decision_key).
struct DecisionKey {
  std::vector<std::uint64_t> words;
  std::uint64_t hash = 0;
  bool operator==(const DecisionKey& rhs) const {
    return hash == rhs.hash && words == rhs.words;
  }
};

/// The most of each atom type a decision over `sis` can read: the join of
/// every molecule of every listed SI.
Molecule decision_need(const SpecialInstructionSet& set, std::span<const SiId> sis);

/// The one decision-key function. `domain` names the per-RTM constants (0
/// for an RTM's own memo), `forecast` is indexed by SiId and read only at the
/// listed SIs, and `ready` enters capped at `need` (decision_need of `sis`).
void make_decision_key(std::uint32_t domain, std::span<const SiId> sis,
                       std::span<const std::uint64_t> forecast, const Molecule& ready,
                       const Molecule& need, unsigned budget, DecisionKey& key);

/// Unsynchronized LRU map from DecisionKey to SharedDecision.
class DecisionMemo {
 public:
  struct Entry {
    DecisionKey key;
    std::uint64_t session = 0;  // inserter (cross-session-hit accounting)
    SharedDecision decision;
  };

  /// Holds at most `capacity` (at least 1) entries.
  explicit DecisionMemo(std::size_t capacity = 1);

  /// The entry stored under `key`, made the most recent; null on a miss.
  Entry* find(const DecisionKey& key);
  /// Stores an empty decision under `key` (which must be absent), evicting
  /// the least recently used entry at capacity, and returns the new entry.
  Entry& insert(const DecisionKey& key, std::uint64_t session);

  std::size_t size() const { return lru_.size(); }
  std::uint64_t evictions() const { return evictions_; }

 private:
  std::size_t capacity_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_multimap<std::uint64_t, std::list<Entry>::iterator> index_;
  std::uint64_t evictions_ = 0;
};

class SharedDecisionCache {
 public:
  /// `capacity` bounds the total entry count across all shards (LRU per
  /// shard); `shards` is rounded up to a power of two.
  explicit SharedDecisionCache(std::size_t capacity = 1 << 16, unsigned shards = 16);

  /// A domain is the tuple of per-RTM constants the key names by id.
  /// Registration interns the exact tuple (same tuple → same id), so a key
  /// compare on the id is an exact compare of the tuple. `config_digest`
  /// folds every remaining RtmConfig knob that can change a decision
  /// (rtm_domain_digest: forecast mode today) — without it, two sessions with
  /// equal SI set / scheduler / payback but different configurations would
  /// intern the *same* domain and could replay each other's decisions.
  using DomainId = std::uint32_t;
  DomainId register_domain(std::uint64_t set_fingerprint, std::string_view scheduler,
                           Cycles payback_cycles_per_atom, std::uint64_t config_digest);

  /// Looks up the decision for `key`; on a hit copies it into `out` and
  /// returns true. `session` identifies the caller for the
  /// cross-session-hit metric.
  bool lookup(std::uint64_t session, const DecisionKey& key, SharedDecision& out);

  /// Inserts a freshly computed decision. A concurrent insert of the same
  /// key by another session is benign: the value is a pure function of the
  /// key, so whichever copy survives replays identically.
  void insert(std::uint64_t session, const DecisionKey& key, const SharedDecision& decision);

  // -- Introspection ----------------------------------------------------
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::uint64_t evictions() const;
  /// Hits on entries inserted by a different session than the one looking up.
  std::uint64_t cross_session_hits() const;
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

  /// The process-wide instance the fleet driver shares across every session.
  static SharedDecisionCache& global();

 private:
  struct Shard {
    mutable std::mutex mutex;
    DecisionMemo memo;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t cross_session_hits = 0;
  };

  Shard& shard_for(std::uint64_t hash) { return shards_[hash & shard_mask_]; }

  std::size_t capacity_;
  std::size_t shard_mask_;
  std::vector<Shard> shards_;

  std::mutex domains_mutex_;
  struct Domain {
    std::uint64_t set_fingerprint;
    std::string scheduler;
    Cycles payback;
    std::uint64_t config_digest;
  };
  std::vector<Domain> domains_;
};

}  // namespace rispp::fleet
