// Deterministic mutation fuzz of the trace loader (WorkloadTrace::load).
//
// A small recorded H.264 trace is saved in format v3 and then mutated: single
// byte flips, truncations, and length and run-count fields set to values the
// bytes after them no longer match. Every mutant's trailing checksum is
// re-sealed, so it gets past the checksum to the structural checks behind
// it. Each mutant must either be rejected (load() throws) or load a trace
// whose runs all lie inside their hot spots' SI lists and that replays on the
// RTM and both single-implementation baselines without aborting. The
// ASan+UBSan CI job runs this file with the rest of the suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/molen.h"
#include "base/prng.h"
#include "h264/workload.h"
#include "isa/h264_si_library.h"
#include "rtm/run_time_manager.h"
#include "sched/hef.h"
#include "sim/executor.h"
#include "sim/trace.h"

namespace rispp {
namespace {

/// A length or count field of a v3 file: its offset and width in bytes.
struct Field {
  std::size_t offset;
  std::size_t width;
};

/// Every length and count field of the well-formed v3 file `bytes`, found by
/// walking the layout save() writes.
std::vector<Field> count_fields(const std::string& bytes) {
  std::vector<Field> fields;
  std::size_t pos = sizeof(std::uint32_t);  // magic
  const auto field = [&](std::size_t width) {
    fields.push_back(Field{pos, width});
    std::uint64_t v = 0;
    std::memcpy(&v, bytes.data() + pos, width);
    pos += width;
    return v;
  };
  const std::uint64_t hot_spots = field(4);
  for (std::uint64_t h = 0; h < hot_spots; ++h) {
    pos += field(4);                  // name
    pos += field(4) * sizeof(SiId);   // SI list
    pos += sizeof(Cycles);            // per-execution overhead
  }
  const std::uint64_t instances = field(8);
  for (std::uint64_t i = 0; i < instances; ++i) {
    pos += sizeof(HotSpotId) + sizeof(Cycles);
    const std::uint64_t runs = field(8);
    for (std::uint64_t r = 0; r < runs; ++r) {
      pos += sizeof(SiId);
      field(4);  // run count
    }
  }
  return fields;
}

/// `body` followed by its checksum: a v3 file as save() would seal it.
std::string sealed(std::string body) {
  const std::uint64_t checksum = trace_checksum(body);
  body.append(reinterpret_cast<const char*>(&checksum), sizeof checksum);
  return body;
}

class TraceLoadFuzz : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    set_ = new SpecialInstructionSet(h264sis::build_h264_si_set());
    h264::WorkloadConfig config;
    config.frames = 2;
    config.video.width = 64;
    config.video.height = 48;
    std::ostringstream os;
    h264::generate_h264_workload(*set_, config).trace.save(os);
    file_ = new std::string(os.str());
  }
  static void TearDownTestSuite() {
    delete file_;
    delete set_;
  }

  /// The saved file without its checksum.
  static std::string body() { return file_->substr(0, file_->size() - sizeof(std::uint64_t)); }

  /// Loads `bytes`. A rejected mutant returns false; a loaded one must keep
  /// every run inside its hot spot's SI list and replay without aborting.
  static bool loads_soundly(const std::string& bytes, const std::string& what) {
    std::istringstream is(bytes);
    WorkloadTrace trace;
    try {
      trace = WorkloadTrace::load(is);
    } catch (const std::logic_error&) {
      return false;
    }
    for (const HotSpotInstance& inst : trace.instances) {
      EXPECT_LT(inst.hot_spot, trace.hot_spots.size()) << what;
      if (inst.hot_spot >= trace.hot_spots.size()) return true;
      const std::vector<SiId>& sis = trace.hot_spots[inst.hot_spot].sis;
      for (const SiRun& run : inst.runs) {
        EXPECT_GT(run.count, 0u) << what;
        EXPECT_NE(std::find(sis.begin(), sis.end(), run.si), sis.end()) << what;
      }
    }
    // The cache path also rejects SI ids beyond the replaying set
    // (try_load_trace_file's si_count check); only what passes it replays.
    for (const HotSpotInfo& hs : trace.hot_spots)
      for (const SiId si : hs.sis)
        if (si >= set_->si_count()) return true;
    replay(trace, what);
    return true;
  }

  static void replay(const WorkloadTrace& trace, const std::string& what) {
    const HefScheduler hef;
    RtmConfig config;
    config.container_count = 8;
    config.scheduler = &hef;
    RunTimeManager rtm(set_, trace.hot_spots.size(), config);
    EXPECT_EQ(run_trace(trace, rtm).si_executions, trace.total_si_executions()) << what;
    for (const LoadPolicy policy : {LoadPolicy::kPrefetch, LoadPolicy::kDemand}) {
      SingleImplConfig baseline;
      baseline.container_count = 8;
      SingleImplBackend backend(set_, trace.hot_spots.size(), baseline, policy);
      EXPECT_EQ(run_trace(trace, backend).si_executions, trace.total_si_executions()) << what;
    }
  }

  static SpecialInstructionSet* set_;
  static std::string* file_;
};

SpecialInstructionSet* TraceLoadFuzz::set_ = nullptr;
std::string* TraceLoadFuzz::file_ = nullptr;

TEST_F(TraceLoadFuzz, UnmutatedFileLoadsAndReplays) {
  EXPECT_TRUE(loads_soundly(*file_, "unmutated"));
  EXPECT_FALSE(loads_soundly(body(), "checksum cut off"));
}

// Kept cases: byte flips that once loaded and then stalled the replay for
// good. A per-execution overhead with its top byte set (byte 59 of the file,
// the EE hot spot's overhead) or a huge entry overhead made simulated time
// wrap past 2^64, and the window replay stopped making progress. load() now
// rejects overheads that could wrap simulated time.
TEST_F(TraceLoadFuzz, OverheadsThatWrapSimulatedTimeAreRejected) {
  std::istringstream is(*file_);
  const WorkloadTrace original = WorkloadTrace::load(is);
  const auto save = [](const WorkloadTrace& trace) {
    std::ostringstream os;
    trace.save(os);
    return os.str();
  };
  WorkloadTrace glue = original;
  glue.hot_spots[h264::kHotSpotEe].per_execution_overhead |= Cycles{0xff} << 56;
  EXPECT_FALSE(loads_soundly(save(glue), "per-execution overhead top byte set"));
  WorkloadTrace entry = original;
  entry.instances.back().entry_overhead = ~Cycles{0} - 5;
  EXPECT_FALSE(loads_soundly(save(entry), "entry overhead near 2^64"));
}

TEST_F(TraceLoadFuzz, ByteFlips) {
  const std::string original = body();
  Xoshiro256 rng(0x7472616365);
  int loaded = 0;
  for (int m = 0; m < 400; ++m) {
    std::string mutant = original;
    const std::size_t at = rng.bounded(mutant.size());
    // Half single-bit flips, half whole-byte replacements.
    if (m % 2 == 0)
      mutant[at] = static_cast<char>(mutant[at] ^ (1 << rng.bounded(8)));
    else
      mutant[at] = static_cast<char>(rng.bounded(256));
    loaded += loads_soundly(sealed(mutant), "byte " + std::to_string(at) + " of mutant " +
                                                std::to_string(m)) ? 1 : 0;
    // Without re-sealing, the checksum rejects every changed byte.
    if (mutant != original) {
      std::string unsealed = mutant + file_->substr(original.size());
      EXPECT_FALSE(loads_soundly(unsealed, "unsealed mutant " + std::to_string(m)));
    }
  }
  // Some flips (overheads, names, in-list SIs) are structurally valid.
  EXPECT_GT(loaded, 0);
}

TEST_F(TraceLoadFuzz, Truncations) {
  const std::string original = body();
  Xoshiro256 rng(0x7472756e63);
  std::vector<std::size_t> lengths = {0, 1, 3, 4, 5, 8, original.size() - 1};
  for (int m = 0; m < 60; ++m) lengths.push_back(rng.bounded(original.size()));
  for (const std::size_t length : lengths) {
    const std::string cut = original.substr(0, length);
    EXPECT_FALSE(loads_soundly(sealed(cut), "resealed cut at " + std::to_string(length)));
    EXPECT_FALSE(loads_soundly(file_->substr(0, length), "cut at " + std::to_string(length)));
  }
}

TEST_F(TraceLoadFuzz, InflatedAndShrunkenLengthFields) {
  const std::string original = body();
  const std::vector<Field> fields = count_fields(*file_);
  Xoshiro256 rng(0x6c656e677468);
  for (std::size_t f = 0; f < fields.size(); ++f) {
    const Field& field = fields[f];
    // Run counts are most of the fields: sample them, keep every length.
    if (field.width == 4 && f > 0 && rng.bounded(8) != 0) continue;
    std::uint64_t value = 0;
    std::memcpy(&value, original.data() + field.offset, field.width);
    const std::uint64_t max = field.width == 4 ? 0xffffffffull : ~0ull;
    for (const std::uint64_t changed :
         {std::uint64_t{0}, value - 1, value + 1, 2 * value + 1, max / 2 + 1, max}) {
      std::string mutant = original;
      const std::uint64_t v = changed & max;
      std::memcpy(mutant.data() + field.offset, &v, field.width);
      loads_soundly(sealed(mutant), "field at " + std::to_string(field.offset) + " set to " +
                                        std::to_string(v));
    }
  }
}

}  // namespace
}  // namespace rispp
