#include "fleet/shared_decision_cache.h"

#include <algorithm>

#include "base/check.h"
#include "base/metrics.h"

namespace rispp::fleet {

namespace {

MetricCounter& hit_metric() {
  static MetricCounter& m = metric_counter("fleet.decision_cache.hits");
  return m;
}
MetricCounter& miss_metric() {
  static MetricCounter& m = metric_counter("fleet.decision_cache.misses");
  return m;
}
MetricCounter& eviction_metric() {
  static MetricCounter& m = metric_counter("fleet.decision_cache.evictions");
  return m;
}
MetricCounter& cross_metric() {
  static MetricCounter& m = metric_counter("fleet.decision_cache.cross_session_hits");
  return m;
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

Molecule decision_need(const SpecialInstructionSet& set, std::span<const SiId> sis) {
  Molecule need(set.atom_type_count());
  for (const SiId si : sis)
    for (const MoleculeImpl& m : set.si(si).molecules) join_into(need, m.atoms);
  return need;
}

void make_decision_key(std::uint32_t domain, std::span<const SiId> sis,
                       std::span<const std::uint64_t> forecast, const Molecule& ready,
                       const Molecule& need, unsigned budget, DecisionKey& key) {
  RISPP_CHECK(ready.dimension() == need.dimension());
  // Layout: [domain | budget] [SI count | atom dimension], the SI ids four
  // to a word, one forecast word per listed SI, the capped ready counts four
  // to a word. The two counts make the layout unambiguous.
  std::vector<std::uint64_t>& words = key.words;
  words.clear();
  words.reserve(2 + (sis.size() + 3) / 4 + sis.size() + (ready.dimension() + 3) / 4);
  words.push_back(std::uint64_t{domain} << 32 | budget);
  words.push_back(std::uint64_t{sis.size()} << 32 | ready.dimension());
  const auto pack16 = [&](std::size_t count, auto value_at) {
    for (std::size_t i = 0; i < count; i += 4) {
      std::uint64_t word = 0;
      for (std::size_t j = i; j < std::min(count, i + 4); ++j)
        word |= std::uint64_t{value_at(j)} << (16 * (j - i));
      words.push_back(word);
    }
  };
  pack16(sis.size(), [&](std::size_t j) { return sis[j]; });
  for (const SiId si : sis) words.push_back(forecast[si]);
  pack16(ready.dimension(), [&](std::size_t t) { return std::min(ready[t], need[t]); });
  std::uint64_t hash = 0;
  for (const std::uint64_t w : words) hash = fingerprint_mix(hash, w);
  key.hash = hash;
}

DecisionMemo::DecisionMemo(std::size_t capacity) : capacity_(std::max<std::size_t>(1, capacity)) {}

DecisionMemo::Entry* DecisionMemo::find(const DecisionKey& key) {
  const auto [first, last] = index_.equal_range(key.hash);
  for (auto it = first; it != last; ++it) {
    if (it->second->key.words != key.words) continue;
    lru_.splice(lru_.begin(), lru_, it->second);
    return &*it->second;
  }
  return nullptr;
}

DecisionMemo::Entry& DecisionMemo::insert(const DecisionKey& key, std::uint64_t session) {
  if (lru_.size() >= capacity_) {
    // A future miss on the evicted key simply recomputes, so any capacity
    // stays bit-exact.
    const auto victim = std::prev(lru_.end());
    auto it = index_.equal_range(victim->key.hash).first;
    while (it->second != victim) ++it;
    index_.erase(it);
    lru_.erase(victim);
    ++evictions_;
  }
  lru_.emplace_front();
  Entry& entry = lru_.front();
  entry.key = key;
  entry.session = session;
  index_.emplace(key.hash, lru_.begin());
  return entry;
}

SharedDecisionCache::SharedDecisionCache(std::size_t capacity, unsigned shards)
    : capacity_(std::max<std::size_t>(1, capacity)) {
  const std::size_t count = round_up_pow2(std::max(1u, shards));
  shard_mask_ = count - 1;
  shards_ = std::vector<Shard>(count);
  for (Shard& shard : shards_) shard.memo = DecisionMemo(capacity_ / count);
}

SharedDecisionCache::DomainId SharedDecisionCache::register_domain(
    std::uint64_t set_fingerprint, std::string_view scheduler,
    Cycles payback_cycles_per_atom, std::uint64_t config_digest) {
  std::lock_guard<std::mutex> lock(domains_mutex_);
  for (DomainId id = 0; id < domains_.size(); ++id) {
    const Domain& d = domains_[id];
    if (d.set_fingerprint == set_fingerprint && d.scheduler == scheduler &&
        d.payback == payback_cycles_per_atom && d.config_digest == config_digest)
      return id;
  }
  domains_.push_back(Domain{set_fingerprint, std::string(scheduler), payback_cycles_per_atom,
                            config_digest});
  return static_cast<DomainId>(domains_.size() - 1);
}

bool SharedDecisionCache::lookup(std::uint64_t session, const DecisionKey& key,
                                 SharedDecision& out) {
  Shard& shard = shard_for(key.hash);
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (const DecisionMemo::Entry* entry = shard.memo.find(key)) {
    ++shard.hits;
    hit_metric().add();
    if (entry->session != session) {
      ++shard.cross_session_hits;
      cross_metric().add();
    }
    out = entry->decision;  // copy out: the entry may be evicted next
    return true;
  }
  ++shard.misses;
  miss_metric().add();
  return false;
}

void SharedDecisionCache::insert(std::uint64_t session, const DecisionKey& key,
                                 const SharedDecision& decision) {
  Shard& shard = shard_for(key.hash);
  std::lock_guard<std::mutex> lock(shard.mutex);
  // A racing session may have inserted the same key since our miss; keeping
  // the first copy keeps its session tag.
  if (shard.memo.find(key) != nullptr) return;
  const std::uint64_t evictions = shard.memo.evictions();
  shard.memo.insert(key, session).decision = decision;
  if (shard.memo.evictions() != evictions) eviction_metric().add();
}

std::uint64_t SharedDecisionCache::hits() const {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mutex);
    total += s.hits;
  }
  return total;
}

std::uint64_t SharedDecisionCache::misses() const {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mutex);
    total += s.misses;
  }
  return total;
}

std::uint64_t SharedDecisionCache::evictions() const {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mutex);
    total += s.memo.evictions();
  }
  return total;
}

std::uint64_t SharedDecisionCache::cross_session_hits() const {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mutex);
    total += s.cross_session_hits;
  }
  return total;
}

std::size_t SharedDecisionCache::size() const {
  std::size_t total = 0;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mutex);
    total += s.memo.size();
  }
  return total;
}

SharedDecisionCache& SharedDecisionCache::global() {
  static SharedDecisionCache* cache = new SharedDecisionCache();
  return *cache;
}

}  // namespace rispp::fleet
