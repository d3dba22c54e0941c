#include "sim/trace.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <system_error>

#include "base/check.h"

namespace rispp {
namespace {

// Format v1 ("RTRC") serialized executions only and rebuilt the run form on
// every load. v2 appends each instance's RLE runs so warm loads skip
// build_runs(); the magic itself changed so a v1 file can never be misparsed
// as v2 (a version field after the old magic could collide with v1's
// hot-spot count).
constexpr std::uint32_t kMagicV1 = 0x52545243;  // "RTRC"
constexpr std::uint32_t kMagic = 0x32545243;    // v2: serialized runs

template <typename T>
void put(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

void put_string(std::ostream& os, const std::string& s) {
  put<std::uint32_t>(os, static_cast<std::uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

/// Reads a trace stream while tracking the bytes left in it, so every
/// length field is checked against what the stream can still hold before
/// anything is allocated for it. A stream that cannot seek reports no
/// bound; its reads still fail on truncation.
class Reader {
 public:
  explicit Reader(std::istream& is) : is_(is) {
    const auto here = is.tellg();
    if (here == std::istream::pos_type(-1)) return;
    is.seekg(0, std::ios::end);
    const auto end = is.tellg();
    is.seekg(here);
    if (end != std::istream::pos_type(-1) && is.good())
      left_ = static_cast<std::uint64_t>(end - here);
    else
      is.clear();
  }

  template <typename T>
  T get() {
    T v{};
    read(&v, sizeof v);
    return v;
  }

  /// Whether `count` elements of at least `min_bytes` each can still follow.
  bool fits(std::uint64_t count, std::size_t min_bytes) const {
    return count <= left_ / min_bytes;
  }

  /// A 64-bit length field whose elements take at least `min_bytes` each.
  std::uint64_t get_length(std::size_t min_bytes) {
    const auto n = get<std::uint64_t>();
    RISPP_CHECK_MSG(fits(n, min_bytes),
                    "trace length field " << n << " exceeds the " << left_ << " bytes left");
    return n;
  }

  std::string get_string() {
    const auto n = get<std::uint32_t>();
    RISPP_CHECK_MSG(n <= left_, "trace string length " << n << " exceeds the stream");
    std::string s(n, '\0');
    read(s.data(), n);
    return s;
  }

  void read(void* out, std::uint64_t bytes) {
    is_.read(static_cast<char*>(out), static_cast<std::streamsize>(bytes));
    RISPP_CHECK_MSG(is_.good(), "truncated trace stream");
    left_ -= std::min(left_, bytes);
  }

 private:
  std::istream& is_;
  std::uint64_t left_ = std::numeric_limits<std::uint64_t>::max();
};

}  // namespace

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

std::size_t WorkloadTrace::total_si_executions() const {
  if (runs_built_) return static_cast<std::size_t>(total_executions_);
  std::size_t n = 0;
  for (const auto& inst : instances) n += inst.executions.size();
  return n;
}

Cycles WorkloadTrace::overhead_cycles() const {
  Cycles total = 0;
  for (const auto& inst : instances)
    total += inst.entry_overhead +
             hot_spots[inst.hot_spot].per_execution_overhead * inst.executions.size();
  return total;
}

std::uint64_t WorkloadTrace::executions_of(SiId si) const {
  if (runs_built_) return si < executions_per_si_.size() ? executions_per_si_[si] : 0;
  std::uint64_t n = 0;
  for (const auto& inst : instances)
    for (SiId s : inst.executions)
      if (s == si) ++n;
  return n;
}

void WorkloadTrace::build_runs() {
  total_executions_ = 0;
  executions_per_si_.clear();
  for (auto& inst : instances) {
    inst.runs.clear();
    for (SiId si : inst.executions) {
      if (!inst.runs.empty() && inst.runs.back().si == si)
        ++inst.runs.back().count;
      else
        inst.runs.push_back(SiRun{si, 1});
      if (si >= executions_per_si_.size()) executions_per_si_.resize(si + 1, 0);
      ++executions_per_si_[si];
    }
    total_executions_ += inst.executions.size();
    inst.run_index = build_run_index(inst.runs, hot_spots[inst.hot_spot].sis);
  }
  runs_built_ = true;
}

void WorkloadTrace::save(std::ostream& os) const {
  put(os, kMagic);
  put<std::uint32_t>(os, static_cast<std::uint32_t>(hot_spots.size()));
  for (const auto& hs : hot_spots) {
    put_string(os, hs.name);
    put<std::uint32_t>(os, static_cast<std::uint32_t>(hs.sis.size()));
    for (SiId si : hs.sis) put(os, si);
    put(os, hs.per_execution_overhead);
  }
  put<std::uint64_t>(os, instances.size());
  for (const auto& inst : instances) {
    put(os, inst.hot_spot);
    put(os, inst.entry_overhead);
    put<std::uint64_t>(os, inst.executions.size());
    os.write(reinterpret_cast<const char*>(inst.executions.data()),
             static_cast<std::streamsize>(inst.executions.size() * sizeof(SiId)));
    // The instance's run form; encoded on the fly when build_runs() hasn't
    // been called, so every v2 file carries runs.
    std::vector<SiRun> local;
    const std::vector<SiRun>* runs = &inst.runs;
    if (runs->empty() && !inst.executions.empty()) {
      for (SiId si : inst.executions) {
        if (!local.empty() && local.back().si == si)
          ++local.back().count;
        else
          local.push_back(SiRun{si, 1});
      }
      runs = &local;
    }
    put<std::uint64_t>(os, runs->size());
    for (const SiRun& run : *runs) {
      put(os, run.si);
      put(os, run.count);
    }
  }
}

WorkloadTrace WorkloadTrace::load(std::istream& is) {
  Reader in(is);
  const auto magic = in.get<std::uint32_t>();
  RISPP_CHECK_MSG(magic != kMagicV1,
                  "trace format v1 (runs not serialized) — delete the file and regenerate");
  RISPP_CHECK_MSG(magic == kMagic, "not a RISPP trace");
  WorkloadTrace trace;
  // Minimum serialized sizes bound the counts: a hot spot is a name length,
  // an SI count and an overhead; an instance is its id, overhead and two
  // length fields.
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
      in.get_length(sizeof(HotSpotId) + sizeof(Cycles) + 2 * sizeof(std::uint64_t));
  trace.instances.resize(inst_count);
  for (auto& inst : trace.instances) {
    inst.hot_spot = in.get<HotSpotId>();
    RISPP_CHECK(inst.hot_spot < trace.hot_spots.size());
    const std::vector<SiId>& sorted = sorted_sis[inst.hot_spot];
    inst.entry_overhead = in.get<Cycles>();
    const auto n = in.get_length(sizeof(SiId));
    inst.executions.resize(n);
    in.read(inst.executions.data(), n * sizeof(SiId));
    const auto run_count = in.get_length(sizeof(SiId) + sizeof(std::uint32_t));
    inst.runs.resize(run_count);
    std::uint64_t run_total = 0;
    for (auto& run : inst.runs) {
      run.si = in.get<SiId>();
      run.count = in.get<std::uint32_t>();
      RISPP_CHECK_MSG(run.count > 0, "empty run in trace");
      RISPP_CHECK_MSG(std::binary_search(sorted.begin(), sorted.end(), run.si),
                      "trace run of SI " << run.si << " outside its hot spot's SI list");
      RISPP_CHECK_MSG(run.count <= n - run_total,
                      "trace runs inconsistent with execution count");
      // The run must replay exactly the executions it covers. Branch-free so
      // the compare vectorizes; it runs over every execution of the trace.
      const SiId* span = inst.executions.data() + run_total;
      unsigned mismatch = 0;
      for (std::uint32_t k = 0; k < run.count; ++k) mismatch |= span[k] ^ run.si;
      RISPP_CHECK_MSG(mismatch == 0, "trace run of SI " << run.si
                                         << " disagrees with the executions it covers");
      run_total += run.count;
      // Totals come from the runs, so the rebuild scan is skipped entirely.
      if (run.si >= trace.executions_per_si_.size())
        trace.executions_per_si_.resize(run.si + 1, 0);
      trace.executions_per_si_[run.si] += run.count;
    }
    RISPP_CHECK_MSG(run_total == n, "trace runs inconsistent with execution count");
    inst.run_index = build_run_index(inst.runs, trace.hot_spots[inst.hot_spot].sis);
    trace.total_executions_ += n;
  }
  trace.runs_built_ = true;
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
  {
    std::ofstream out(tmp, std::ios::binary);
    if (!out.good()) return;
    trace.save(out);
    if (!out.good()) {
      out.close();
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) std::filesystem::remove(tmp, ec);
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
