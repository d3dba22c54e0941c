#include "select/selection_memo.h"

#include <sys/mman.h>

#include <algorithm>
#include <condition_variable>
#include <limits>
#include <new>

#include "base/check.h"
#include "base/metrics.h"
#include "select/selection.h"

namespace rispp {

namespace {

// Record states that are not selection sizes.
constexpr std::uint32_t kPending = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint32_t kFailed = kPending - 1;

}  // namespace

void make_selection_key(std::uint64_t set_fingerprint, std::span<const SiId> sis,
                        std::span<const std::uint64_t> forecast, unsigned budget,
                        SelectionKey& key) {
  // Layout: the fingerprint, [wide | SI count | budget], the SI ids four to a
  // word, then the forecasts of the listed SIs: two to a word when all of
  // them fit in 32 bits, else one each ("wide"). The count and the wide bit
  // make the layout unambiguous.
  const bool wide = std::any_of(sis.begin(), sis.end(), [&](SiId si) {
    return forecast[si] > std::numeric_limits<std::uint32_t>::max();
  });
  std::vector<std::uint64_t>& words = key.words;
  words.clear();
  words.reserve(2 + (sis.size() + 3) / 4 + (wide ? sis.size() : (sis.size() + 1) / 2));
  words.push_back(set_fingerprint);
  words.push_back(std::uint64_t{wide} << 63 | std::uint64_t{sis.size()} << 32 | budget);
  const auto pack = [&](std::size_t per_word, auto value_at) {
    const unsigned bits = 64 / static_cast<unsigned>(per_word);
    for (std::size_t i = 0; i < sis.size(); i += per_word) {
      std::uint64_t word = 0;
      for (std::size_t j = i; j < std::min(sis.size(), i + per_word); ++j)
        word |= std::uint64_t{value_at(j)} << (bits * (j - i));
      words.push_back(word);
    }
  };
  pack(4, [&](std::size_t j) { return sis[j]; });
  pack(wide ? 1 : 2, [&](std::size_t j) { return forecast[sis[j]]; });
  // One multiply and shift per word (bytewise FNV costs eight multiplies):
  // the digest only spreads keys over shards and slots, and every match is
  // confirmed on the full key.
  std::uint64_t hash = 0;
  for (const std::uint64_t w : words) {
    hash = (hash ^ w) * 0x9e3779b97f4a7c15ull;
    hash ^= hash >> 29;
  }
  key.hash = hash;
}

/// One lock's worth of entries. An entry is one record of words in the
/// table's region: [hash] [key word count << 32 | selection size, or
/// kPending / kFailed] [key words after the first, the fingerprint every key
/// of the table shares] [room for one SiRef per listed SI, two to a word].
/// `slots` is an open-addressing index of the shard's records (region offset
/// + 1, 0 for a free slot).
struct alignas(64) SelectionTable::Shard {
  std::mutex mutex;
  std::condition_variable published;
  std::uint64_t* region = nullptr;
  std::size_t entries = 0;
  std::vector<std::uint32_t> slots;

  /// Words a record of `key` takes with room for `max_refs` SiRefs.
  static std::size_t record_words(const SelectionKey& key, std::size_t max_refs) {
    return 1 + key.words.size() + (max_refs + 1) / 2;
  }

  static std::uint32_t state(const std::uint64_t* record) {
    return static_cast<std::uint32_t>(record[1]);
  }

  std::uint64_t* find(const SelectionKey& key) const {
    if (slots.empty()) return nullptr;
    const std::size_t mask = slots.size() - 1;
    for (std::size_t p = (key.hash / kShards) & mask;; p = (p + 1) & mask) {
      if (slots[p] == 0) return nullptr;
      std::uint64_t* record = region + (slots[p] - 1);
      if (record[0] == key.hash && record[1] >> 32 == key.words.size() - 1 &&
          std::equal(key.words.begin() + 1, key.words.end(), record + 2))
        return record;
    }
  }

  void place(const std::uint64_t* record) {
    const std::size_t mask = slots.size() - 1;
    std::size_t p = (record[0] / kShards) & mask;
    while (slots[p] != 0) p = (p + 1) & mask;
    slots[p] = static_cast<std::uint32_t>(record - region + 1);
  }

  /// Stores `key` as a pending record at `record`.
  void insert(std::uint64_t* record, const SelectionKey& key) {
    record[0] = key.hash;
    record[1] = std::uint64_t{key.words.size() - 1} << 32 | kPending;
    std::copy(key.words.begin() + 1, key.words.end(), record + 2);
    if (2 * (entries + 1) > slots.size()) {
      std::vector<std::uint32_t> old = std::move(slots);
      slots.assign(std::max<std::size_t>(16, 2 * old.size()), 0);
      for (const std::uint32_t slot : old)
        if (slot != 0) place(region + (slot - 1));
    }
    place(record);
    ++entries;
  }

  static void publish(std::uint64_t* record, const std::vector<SiRef>& selection) {
    std::uint64_t* refs = record + 2 + (record[1] >> 32);
    for (std::size_t i = 0; i < selection.size(); ++i) {
      const SiRef& ref = selection[i];
      const std::uint64_t packed = std::uint64_t{ref.si} << 16 | ref.mol;
      if (i % 2 == 0)
        refs[i / 2] = packed;
      else
        refs[i / 2] |= packed << 32;
    }
    record[1] = (record[1] >> 32) << 32 | selection.size();
  }

  static void read(const std::uint64_t* record, std::vector<SiRef>& out) {
    const std::uint64_t* refs = record + 2 + (record[1] >> 32);
    out.resize(state(record));
    for (std::size_t i = 0; i < out.size(); ++i) {
      const auto packed = static_cast<std::uint32_t>(refs[i / 2] >> (i % 2 == 0 ? 0 : 32));
      out[i] = SiRef{static_cast<SiId>(packed >> 16), static_cast<MoleculeId>(packed)};
    }
  }
};

SelectionTable::SelectionTable(std::uint64_t set_fingerprint)
    : set_fingerprint_(set_fingerprint), shards_(std::make_unique<Shard[]>(kShards)) {
  // Reserved, not committed: the OS backs a page when a record first lands
  // on it, and the whole region goes back to it with the table.
  void* region = ::mmap(nullptr, kTableWords * sizeof(std::uint64_t), PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (region == MAP_FAILED) throw std::bad_alloc();
  // A huge page would commit the whole region at the first record.
  ::madvise(region, kTableWords * sizeof(std::uint64_t), MADV_NOHUGEPAGE);
  region_ = static_cast<std::uint64_t*>(region);
  for (std::size_t s = 0; s < kShards; ++s) shards_[s].region = region_;
}

SelectionTable::~SelectionTable() { ::munmap(region_, kTableWords * sizeof(std::uint64_t)); }

void SelectionTable::select(const SpecialInstructionSet& set, std::span<const SiId> sis,
                            std::span<const std::uint64_t> forecast, unsigned budget,
                            SelectionKey& key, std::vector<SiRef>& out) {
  const auto compute = [&] {
    static MetricCounter& computed_metric = metric_counter("select.computed");
    SelectionRequest request;
    request.set = &set;
    request.hot_spot_sis.assign(sis.begin(), sis.end());
    request.expected_executions.assign(forecast.begin(), forecast.end());
    request.container_count = budget;
    out = select_molecules(request);
    computed_.fetch_add(1, std::memory_order_relaxed);
    computed_metric.add();
  };

  make_selection_key(set_fingerprint(), sis, forecast, budget, key);
  Shard& shard = shards_[key.hash % kShards];
  std::unique_lock<std::mutex> lock(shard.mutex);
  std::uint64_t* record = shard.find(key);
  if (record != nullptr) {
    // Another thread may still be computing this key: wait for it.
    shard.published.wait(lock, [&] { return Shard::state(record) != kPending; });
    if (Shard::state(record) != kFailed) {
      Shard::read(record, out);
      return;
    }
    lock.unlock();
    compute();  // the first computation threw; this one reports the same failure
    return;
  }
  // Records are bump-allocated across shards, so a small table commits few
  // pages. select_molecules returns at most one SiRef per listed SI.
  const std::size_t size = Shard::record_words(key, sis.size());
  const std::size_t at = used_ + size <= kTableWords ? used_.fetch_add(size) : kTableWords;
  if (at + size > kTableWords) {
    lock.unlock();
    compute();  // the region is full: compute without storing
    return;
  }
  record = region_ + at;
  shard.insert(record, key);
  lock.unlock();
  try {
    compute();
  } catch (...) {
    {
      const std::lock_guard<std::mutex> relock(shard.mutex);
      record[1] = (record[1] >> 32) << 32 | kFailed;
    }
    shard.published.notify_all();
    throw;
  }
  RISPP_CHECK(out.size() <= sis.size());
  lock.lock();
  Shard::publish(record, out);
  lock.unlock();
  shard.published.notify_all();
}

void SelectionTable::reset(std::uint64_t set_fingerprint) {
  set_fingerprint_ = set_fingerprint;
  for (std::size_t s = 0; s < kShards; ++s) {
    Shard& shard = shards_[s];
    const std::lock_guard<std::mutex> lock(shard.mutex);
    shard.entries = 0;
    std::fill(shard.slots.begin(), shard.slots.end(), 0);
  }
  used_ = 0;
  computed_ = 0;
}

std::size_t SelectionTable::size() const {
  std::size_t total = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    const std::lock_guard<std::mutex> lock(shards_[s].mutex);
    total += shards_[s].entries;
  }
  return total;
}

std::shared_ptr<SelectionTable> SelectionMemo::table(std::uint64_t set_fingerprint) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = std::find_if(tables_.begin(), tables_.end(), [&](const auto& table) {
    return table->set_fingerprint() == set_fingerprint;
  });
  if (it != tables_.end()) {
    std::rotate(tables_.begin(), it, it + 1);
  } else if (tables_.size() < kTables) {
    tables_.insert(tables_.begin(), std::make_shared<SelectionTable>(set_fingerprint));
  } else {
    // The least recently used table goes. Only the memo can hand it out, and
    // only under this lock, so a count of 1 means no backend holds it.
    std::shared_ptr<SelectionTable>& last = tables_.back();
    if (last.use_count() == 1)
      last->reset(set_fingerprint);
    else
      last = std::make_shared<SelectionTable>(set_fingerprint);
    std::rotate(tables_.begin(), tables_.end() - 1, tables_.end());
  }
  return tables_.front();
}

std::uint64_t SelectionMemo::computed() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& table : tables_) total += table->computed();
  return total;
}

std::size_t SelectionMemo::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& table : tables_) total += table->size();
  return total;
}

MemoizedSelection::MemoizedSelection(const SpecialInstructionSet* set,
                                     std::uint64_t set_fingerprint)
    : set_(set), set_fingerprint_(set_fingerprint) {}

void MemoizedSelection::select(SelectionMemo& memo, std::span<const SiId> sis,
                               std::span<const std::uint64_t> forecast, unsigned budget,
                               std::vector<SiRef>& out) {
  if (&memo != memo_) {
    table_ = memo.table(set_fingerprint_);
    memo_ = &memo;
  }
  table_->select(*set_, sis, forecast, budget, key_, out);
}

}  // namespace rispp
