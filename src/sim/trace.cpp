#include "sim/trace.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <memory>
#include <mutex>
#include <ostream>
#include <system_error>

#include "base/check.h"
#include "select/selection_memo.h"

namespace rispp {
namespace {

// Format v1 ("RTRC") serialized executions only and rebuilt the run form on
// every load; v2 stored the executions and their runs side by side. v3
// stores only the runs and ends with a content checksum. Each format has its
// own magic, so an older file can never be misparsed as a newer one.
constexpr std::uint32_t kMagicV1 = 0x52545243;  // "RTRC"
constexpr std::uint32_t kMagicV2 = 0x32545243;
constexpr std::uint32_t kMagic = 0x33545243;  // v3: runs only, checksummed

constexpr std::size_t kRunBytes = sizeof(SiId) + sizeof(std::uint32_t);

// A replay's clock is the trace's base-processor overhead plus one SI latency
// per execution. Bounding both keeps it far below 2^64 for any latency under
// 2^21 cycles, so simulated time never wraps (a wrapped clock stalls the
// window replay).
constexpr Cycles kMaxOverheadCycles = Cycles{1} << 62;
constexpr std::uint64_t kMaxExecutions = std::uint64_t{1} << 40;

template <typename T>
void put(std::string& out, const T& v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void put_string(std::string& out, const std::string& s) {
  put<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

/// Reads the whole of `is`.
std::string read_all(std::istream& is) {
  std::string bytes;
  char chunk[1 << 16];
  while (is.read(chunk, sizeof chunk) || is.gcount() > 0)
    bytes.append(chunk, static_cast<std::size_t>(is.gcount()));
  return bytes;
}

/// A cursor over a trace's bytes that checks every read, and every length
/// field, against the bytes left before anything is allocated for it.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  template <typename T>
  T get() {
    RISPP_CHECK_MSG(left() >= sizeof(T), "truncated trace stream");
    T v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof v);
    pos_ += sizeof v;
    return v;
  }

  std::size_t left() const { return bytes_.size() - pos_; }

  /// Whether `count` elements of at least `min_bytes` each can still follow.
  bool fits(std::uint64_t count, std::size_t min_bytes) const {
    return count <= left() / min_bytes;
  }

  /// A 64-bit length field whose elements take at least `min_bytes` each.
  std::uint64_t get_length(std::size_t min_bytes) {
    const auto n = get<std::uint64_t>();
    RISPP_CHECK_MSG(fits(n, min_bytes),
                    "trace length field " << n << " exceeds the " << left() << " bytes left");
    return n;
  }

  std::string get_string() {
    const auto n = get<std::uint32_t>();
    RISPP_CHECK_MSG(n <= left(), "trace string length " << n << " exceeds the stream");
    std::string s(bytes_.substr(pos_, n));
    pos_ += n;
    return s;
  }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

std::uint64_t trace_checksum(std::string_view bytes) {
  // Per 8-byte word: xor, multiply by an odd constant, xor-shift. Each step
  // is a bijection of the running state, so changing any one word changes
  // the result; the length is folded in last.
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t word) {
    h = (h ^ word) * 0x9e3779b97f4a7c15ull;
    h ^= h >> 29;
  };
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t word;
    std::memcpy(&word, bytes.data() + i, 8);
    mix(word);
  }
  std::uint64_t tail = 0;
  std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
  mix(tail);
  mix(bytes.size());
  return h;
}

RunIndex build_run_index(const std::vector<SiRun>& runs, const std::vector<SiId>& sis) {
  constexpr std::size_t kBlock = RunIndex::kBlockRuns;
  const std::size_t k = sis.size();
  if (k == 0 || k > RunIndex::kMaxSlots) return {};
  RunIndex index;
  const std::size_t blocks = (runs.size() + kBlock - 1) / kBlock;
  index.prefix.assign((blocks + 1) * k, 0);
  index.present.assign(blocks, 0);
  std::array<std::uint64_t, RunIndex::kMaxSlots> total{};
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const auto it = std::find(sis.begin(), sis.end(), runs[r].si);
    if (it == sis.end()) return {};
    const auto slot = static_cast<std::size_t>(it - sis.begin());
    total[slot] += runs[r].count;
    if (total[slot] > std::numeric_limits<std::uint32_t>::max()) return {};
    if (runs[r].count > 0) index.present[r / kBlock] |= std::uint32_t{1} << slot;
    if ((r + 1) % kBlock == 0 || r + 1 == runs.size()) {
      std::uint32_t* row = index.prefix.data() + ((r + 1 + kBlock - 1) / kBlock) * k;
      for (std::size_t j = 0; j < k; ++j) row[j] = static_cast<std::uint32_t>(total[j]);
    }
  }
  index.slots = static_cast<std::uint32_t>(k);
  return index;
}

HotSpotInstance::HotSpotInstance(HotSpotId hs, const std::vector<SiId>& executions,
                                 Cycles entry)
    : hot_spot(hs), entry_overhead(entry) {
  for (auto it = executions.begin(); it != executions.end();) {
    const SiId si = *it;
    const auto end = std::find_if(it, executions.end(), [si](SiId s) { return s != si; });
    append(si, static_cast<std::uint64_t>(end - it));
    it = end;
  }
}

void HotSpotInstance::append(SiId si, std::uint64_t count) {
  constexpr std::uint32_t kMaxCount = std::numeric_limits<std::uint32_t>::max();
  execution_count_ += count;
  while (count > 0) {
    if (runs.empty() || runs.back().si != si || runs.back().count == kMaxCount)
      runs.push_back(SiRun{si, 0});
    const auto take = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(count, kMaxCount - runs.back().count));
    runs.back().count += take;
    count -= take;
  }
}

std::size_t WorkloadTrace::total_si_executions() const {
  std::size_t n = 0;
  for (const auto& inst : instances) n += inst.execution_count();
  return n;
}

Cycles WorkloadTrace::overhead_cycles() const {
  Cycles total = 0;
  for (const auto& inst : instances)
    total += inst.entry_overhead +
             hot_spots[inst.hot_spot].per_execution_overhead * inst.execution_count();
  return total;
}

std::uint64_t WorkloadTrace::executions_of(SiId si) const {
  return si < executions_per_si_.size() ? executions_per_si_[si] : 0;
}

void WorkloadTrace::index_runs() {
  executions_per_si_.clear();
  for (auto& inst : instances) {
    for (const SiRun& run : inst.runs) {
      if (run.si >= executions_per_si_.size()) executions_per_si_.resize(run.si + 1, 0);
      executions_per_si_[run.si] += run.count;
    }
    inst.run_index = build_run_index(inst.runs, hot_spots[inst.hot_spot].sis);
  }
}

SelectionMemo& WorkloadTrace::selection_memo() const { return selection_memo_.get(); }

SelectionMemo& WorkloadTrace::MemoSlot::get() {
  SelectionMemo* memo = memo_.load();
  if (memo != nullptr) return *memo;
  // Concurrent first callers race to install one; the losers use the winner's.
  auto fresh = std::make_unique<SelectionMemo>();
  if (memo_.compare_exchange_strong(memo, fresh.get())) return *fresh.release();
  return *memo;
}

void WorkloadTrace::MemoSlot::reset(SelectionMemo* memo) noexcept { delete memo_.exchange(memo); }

void WorkloadTrace::save(std::ostream& os) const {
  std::string out;
  put(out, kMagic);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(hot_spots.size()));
  for (const auto& hs : hot_spots) {
    put_string(out, hs.name);
    put<std::uint32_t>(out, static_cast<std::uint32_t>(hs.sis.size()));
    for (SiId si : hs.sis) put(out, si);
    put(out, hs.per_execution_overhead);
  }
  put<std::uint64_t>(out, instances.size());
  for (const auto& inst : instances) {
    put(out, inst.hot_spot);
    put(out, inst.entry_overhead);
    put<std::uint64_t>(out, inst.runs.size());
    for (const SiRun& run : inst.runs) {
      put(out, run.si);
      put(out, run.count);
    }
  }
  put(out, trace_checksum(out));
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

WorkloadTrace WorkloadTrace::load(std::istream& is) {
  const std::string bytes = read_all(is);
  Reader magic_reader(bytes);
  const auto magic = magic_reader.get<std::uint32_t>();
  RISPP_CHECK_MSG(magic != kMagicV1 && magic != kMagicV2,
                  "trace format v" << (magic == kMagicV1 ? 1 : 2)
                                   << " (superseded by v3) — delete the file and regenerate");
  RISPP_CHECK_MSG(magic == kMagic, "not a RISPP trace");
  RISPP_CHECK_MSG(bytes.size() >= sizeof magic + sizeof(std::uint64_t),
                  "truncated trace stream");
  const std::string_view body(bytes.data(), bytes.size() - sizeof(std::uint64_t));
  std::uint64_t checksum;
  std::memcpy(&checksum, bytes.data() + body.size(), sizeof checksum);
  RISPP_CHECK_MSG(checksum == trace_checksum(body), "trace checksum mismatch");

  Reader in(body.substr(sizeof magic));
  WorkloadTrace trace;
  // Minimum serialized sizes bound the counts: a hot spot is a name length,
  // an SI count and an overhead; an instance is its id, overhead and run
  // count.
  const auto hs_count = in.get<std::uint32_t>();
  RISPP_CHECK_MSG(in.fits(hs_count, 4 + 4 + sizeof(Cycles)),
                  "trace hot-spot count exceeds the stream");
  trace.hot_spots.resize(hs_count);
  std::vector<std::vector<SiId>> sorted_sis(hs_count);  // run-membership lookups
  for (std::size_t h = 0; h < hs_count; ++h) {
    HotSpotInfo& hs = trace.hot_spots[h];
    hs.name = in.get_string();
    const auto si_count = in.get<std::uint32_t>();
    RISPP_CHECK_MSG(in.fits(si_count, sizeof(SiId)), "trace SI list exceeds the stream");
    hs.sis.resize(si_count);
    for (auto& si : hs.sis) si = in.get<SiId>();
    hs.per_execution_overhead = in.get<Cycles>();
    sorted_sis[h] = hs.sis;
    std::sort(sorted_sis[h].begin(), sorted_sis[h].end());
  }
  const auto inst_count =
      in.get_length(sizeof(HotSpotId) + sizeof(Cycles) + sizeof(std::uint64_t));
  trace.instances.resize(inst_count);
  std::uint64_t executions = 0;
  Cycles overhead = 0;
  for (auto& inst : trace.instances) {
    inst.hot_spot = in.get<HotSpotId>();
    RISPP_CHECK_MSG(inst.hot_spot < trace.hot_spots.size(),
                    "trace instance of hot spot " << inst.hot_spot << " out of range");
    const std::vector<SiId>& sorted = sorted_sis[inst.hot_spot];
    inst.entry_overhead = in.get<Cycles>();
    const auto run_count = in.get_length(kRunBytes);
    inst.runs.reserve(run_count);
    for (std::uint64_t r = 0; r < run_count; ++r) {
      const auto si = in.get<SiId>();
      const auto count = in.get<std::uint32_t>();
      RISPP_CHECK_MSG(count > 0, "empty run in trace");
      RISPP_CHECK_MSG(std::binary_search(sorted.begin(), sorted.end(), si),
                      "trace run of SI " << si << " outside its hot spot's SI list");
      inst.append(si, count);
    }
    executions += inst.execution_count();
    Cycles glue = 0;
    const bool wraps =
        __builtin_mul_overflow(trace.hot_spots[inst.hot_spot].per_execution_overhead,
                               inst.execution_count(), &glue) ||
        __builtin_add_overflow(overhead, glue, &overhead) ||
        __builtin_add_overflow(overhead, inst.entry_overhead, &overhead);
    RISPP_CHECK_MSG(!wraps && overhead <= kMaxOverheadCycles && executions <= kMaxExecutions,
                    "trace overheads or execution counts overflow simulated time");
  }
  RISPP_CHECK_MSG(in.left() == 0, "trailing bytes after the trace");
  trace.index_runs();
  return trace;
}

std::filesystem::path trace_cache_dir() {
  if (const char* env = std::getenv("RISPP_TRACE_DIR"); env != nullptr && *env != '\0')
    return env;
  return std::filesystem::temp_directory_path();
}

void save_trace_file(const WorkloadTrace& trace, const std::filesystem::path& path) {
  // The atomic counter keeps two writers constructed concurrently in one
  // process (fleet devices, in-process bench drivers) from clobbering each
  // other's temp file; distinct processes are separated by the pid.
  static std::atomic<unsigned> counter{0};
  const std::filesystem::path tmp = path.string() + "." + std::to_string(::getpid()) +
                                    "." + std::to_string(counter.fetch_add(1)) + ".tmp";
  std::error_code ec;
  if (path.has_parent_path()) std::filesystem::create_directories(path.parent_path(), ec);
  bool written = false;
  {
    std::ofstream out(tmp, std::ios::binary);
    if (out.good()) {
      trace.save(out);
      written = out.good();
    }
  }
  if (written) {
    std::filesystem::rename(tmp, path, ec);
    written = !ec;
  }
  if (written) return;
  std::filesystem::remove(tmp, ec);
  static std::once_flag reported;
  std::call_once(reported, [&path] {
    std::fprintf(stderr, "[trace] cannot write %s: trace caching is off\n",
                 path.string().c_str());
  });
}

std::optional<WorkloadTrace> try_load_trace_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return std::nullopt;
  try {
    return WorkloadTrace::load(in);
  } catch (const std::exception&) {
    return std::nullopt;  // corrupt or stale-format cache: regenerate
  }
}

std::optional<WorkloadTrace> try_load_trace_file(const std::filesystem::path& path,
                                                 std::size_t si_count) {
  std::optional<WorkloadTrace> trace = try_load_trace_file(path);
  if (!trace) return std::nullopt;
  // load() keeps every run inside its hot spot's list, so bounding the
  // lists bounds every replayed id.
  for (const HotSpotInfo& hs : trace->hot_spots)
    for (SiId si : hs.sis)
      if (si >= si_count) return std::nullopt;
  return trace;
}

}  // namespace rispp
