// Tests for traces, the cycle-level executor and bucketed statistics.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>

#include "baselines/software_only.h"
#include "h264/workload.h"
#include "isa/h264_si_library.h"
#include "jpeg/jpeg_si_library.h"
#include "jpeg/jpeg_workload.h"
#include "sim/executor.h"
#include "sim/stats.h"
#include "sim/trace.h"

namespace rispp {
namespace {

WorkloadTrace tiny_trace() {
  WorkloadTrace trace;
  trace.hot_spots = {HotSpotInfo{"A", {0, 1}, 5}, HotSpotInfo{"B", {1}, 3}};
  trace.instances = {
      HotSpotInstance{0, {0, 1, 0}, 100},
      HotSpotInstance{1, {1, 1}, 50},
  };
  trace.index_runs();
  return trace;
}

/// Backend with fixed latencies for executor arithmetic tests.
class FixedBackend final : public ExecutionBackend {
 public:
  explicit FixedBackend(std::vector<Cycles> latencies) : latencies_(std::move(latencies)) {}
  std::string_view name() const override { return "Fixed"; }
  void on_hot_spot_entry(const WorkloadTrace&, std::size_t, Cycles) override { ++entries_; }
  void on_hot_spot_exit(Cycles) override { ++exits_; }
  Cycles si_execution_latency(SiId si, Cycles) override { return latencies_[si]; }
  int entries_ = 0, exits_ = 0;

 private:
  std::vector<Cycles> latencies_;
};

TEST(Executor, AccountsOverheadsAndLatencies) {
  const WorkloadTrace trace = tiny_trace();
  FixedBackend backend({10, 20});
  SimStats stats(2);
  const SimResult result = run_trace(trace, backend, &stats);
  // Instance 0: 100 entry + (10+5)+(20+5)+(10+5) = 155.
  // Instance 1: 50 entry + (20+3)+(20+3) = 96.
  EXPECT_EQ(result.total_cycles, 155u + 96u);
  EXPECT_EQ(result.si_executions, 5u);
  EXPECT_EQ(backend.entries_, 2);
  EXPECT_EQ(backend.exits_, 2);
  EXPECT_EQ(stats.executions(0), 2u);
  EXPECT_EQ(stats.executions(1), 3u);
  ASSERT_EQ(result.hot_spot_cycles.size(), 2u);
  EXPECT_EQ(result.hot_spot_cycles[0], 155u);
  EXPECT_EQ(result.hot_spot_cycles[1], 96u);
}

TEST(Stats, BucketsSplitAt100KCycles) {
  SimStats stats(1);
  stats.record_execution(0, 0, 10);
  stats.record_execution(0, 99'999, 10);
  stats.record_execution(0, 100'000, 10);
  stats.record_execution(0, 250'000, 10);
  EXPECT_EQ(stats.bucket_executions(0, 0), 2u);
  EXPECT_EQ(stats.bucket_executions(0, 1), 1u);
  EXPECT_EQ(stats.bucket_executions(0, 2), 1u);
  EXPECT_EQ(stats.bucket_executions(0, 3), 0u);
  EXPECT_EQ(stats.bucket_count(), 3u);
  EXPECT_EQ(stats.total_executions(), 4u);
}

TEST(Stats, LatencyTimelineRecordsChangePoints) {
  SimStats stats(1);
  stats.record_execution(0, 10, 500);
  stats.record_execution(0, 20, 500);  // same latency -> no new point
  stats.record_execution(0, 30, 100);
  const auto& tl = stats.latency_timeline(0);
  ASSERT_EQ(tl.size(), 2u);
  EXPECT_EQ(tl[0].at, 10u);
  EXPECT_EQ(tl[0].latency, 500u);
  EXPECT_EQ(tl[1].at, 30u);
  EXPECT_EQ(tl[1].latency, 100u);
}

TEST(Trace, TotalsAndPerSiCounts) {
  const WorkloadTrace trace = tiny_trace();
  EXPECT_EQ(trace.total_si_executions(), 5u);
  EXPECT_EQ(trace.executions_of(0), 2u);
  EXPECT_EQ(trace.executions_of(1), 3u);
  EXPECT_EQ(trace.executions_of(7), 0u);
}

std::string saved(const WorkloadTrace& trace) {
  std::ostringstream os;
  trace.save(os);
  return os.str();
}

WorkloadTrace loaded(const std::string& bytes) {
  std::istringstream is(bytes);
  return WorkloadTrace::load(is);
}

/// The v3 file `bytes` with its trailing checksum replaced by `from`'s, as if
/// the body of a file sealed as `from` had been corrupted into `bytes`' body.
std::string with_checksum_of(std::string bytes, const std::string& from) {
  bytes.replace(bytes.size() - 8, 8, from, from.size() - 8, 8);
  return bytes;
}

/// Equal hot spots, runs, run indexes and execution totals.
void expect_same_trace(const WorkloadTrace& a, const WorkloadTrace& b) {
  ASSERT_EQ(a.hot_spots.size(), b.hot_spots.size());
  for (std::size_t h = 0; h < a.hot_spots.size(); ++h) {
    EXPECT_EQ(a.hot_spots[h].name, b.hot_spots[h].name);
    EXPECT_EQ(a.hot_spots[h].sis, b.hot_spots[h].sis);
    EXPECT_EQ(a.hot_spots[h].per_execution_overhead, b.hot_spots[h].per_execution_overhead);
  }
  ASSERT_EQ(a.instances.size(), b.instances.size());
  for (std::size_t i = 0; i < a.instances.size(); ++i) {
    const HotSpotInstance& x = a.instances[i];
    const HotSpotInstance& y = b.instances[i];
    EXPECT_EQ(x.hot_spot, y.hot_spot) << "instance " << i;
    EXPECT_EQ(x.entry_overhead, y.entry_overhead) << "instance " << i;
    EXPECT_EQ(x.runs, y.runs) << "instance " << i;
    EXPECT_EQ(x.execution_count(), y.execution_count()) << "instance " << i;
    EXPECT_EQ(x.run_index.slots, y.run_index.slots) << "instance " << i;
    EXPECT_EQ(x.run_index.prefix, y.run_index.prefix) << "instance " << i;
    EXPECT_EQ(x.run_index.present, y.run_index.present) << "instance " << i;
  }
  EXPECT_EQ(a.total_si_executions(), b.total_si_executions());
  EXPECT_EQ(a.overhead_cycles(), b.overhead_cycles());
  for (SiId si = 0; si < 64; ++si) EXPECT_EQ(a.executions_of(si), b.executions_of(si));
}

TEST(Trace, BinaryRoundTrip) {
  const WorkloadTrace trace = tiny_trace();
  const WorkloadTrace back = loaded(saved(trace));
  ASSERT_EQ(back.hot_spots.size(), trace.hot_spots.size());
  EXPECT_EQ(back.hot_spots[0].name, "A");
  EXPECT_EQ(back.hot_spots[0].sis, trace.hot_spots[0].sis);
  EXPECT_EQ(back.hot_spots[1].per_execution_overhead, 3u);
  ASSERT_EQ(back.instances.size(), trace.instances.size());
  EXPECT_EQ(back.instances[0].runs, trace.instances[0].runs);
  EXPECT_EQ(back.instances[1].entry_overhead, 50u);
}

TEST(Trace, RejectsGarbage) {
  std::stringstream ss;
  ss << "this is not a trace";
  EXPECT_THROW(WorkloadTrace::load(ss), std::logic_error);
}

TEST(Trace, RoundTripCarriesRuns) {
  // v3 serializes only the runs; a load restores them, their indexes and the
  // execution totals.
  const WorkloadTrace trace = tiny_trace();
  expect_same_trace(loaded(saved(trace)), trace);
}

TEST(Trace, SaveEncodesRunsWhenNotBuilt) {
  // A trace whose runs were never indexed still saves every run, and the
  // load indexes them.
  WorkloadTrace trace;
  trace.hot_spots = {HotSpotInfo{"A", {0, 1}, 5}, HotSpotInfo{"B", {1}, 3}};
  trace.instances = {HotSpotInstance{0, {0, 1, 0}, 100}, HotSpotInstance{1, {1, 1}, 50}};
  const WorkloadTrace back = loaded(saved(trace));
  EXPECT_EQ(back.instances[0].runs, (std::vector<SiRun>{{0, 1}, {1, 1}, {0, 1}}));
  EXPECT_EQ(back.instances[1].runs, (std::vector<SiRun>{{1, 2}}));
  EXPECT_EQ(back.instances[0].run_index.slots, 2u);
  EXPECT_EQ(back.executions_of(1), 3u);
}

TEST(Trace, AppendCoalescesIntoMaximalRuns) {
  HotSpotInstance inst{0, 0};
  inst.append(3, 2);
  inst.append(3);
  inst.append(4, 0);  // nothing to append
  inst.append(5);
  inst.append(3);
  EXPECT_EQ(inst.runs, (std::vector<SiRun>{{3, 3}, {5, 1}, {3, 1}}));
  EXPECT_EQ(inst.execution_count(), 5u);
  // A run holds at most 2^32 - 1 executions; the rest starts a new run.
  const std::uint64_t big = std::uint64_t{1} << 32;
  inst.append(3, big);
  EXPECT_EQ(inst.runs, (std::vector<SiRun>{{3, 3}, {5, 1}, {3, 0xffffffffu}, {3, 2}}));
  EXPECT_EQ(inst.execution_count(), 5u + big);
}

TEST(Trace, RejectsV1FormatWithRegenerateMessage) {
  // A v1 file ("RTRC" magic, no serialized runs) must be rejected outright,
  // not misparsed: the magic changed with the format.
  std::stringstream ss;
  const std::uint32_t v1_magic = 0x52545243;
  ss.write(reinterpret_cast<const char*>(&v1_magic), sizeof v1_magic);
  const std::uint32_t hot_spots = 1;  // plausible v1 payload after the magic
  ss.write(reinterpret_cast<const char*>(&hot_spots), sizeof hot_spots);
  try {
    WorkloadTrace::load(ss);
    FAIL() << "v1 trace was not rejected";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("regenerate"), std::string::npos) << e.what();
  }
}

TEST(Trace, RejectsV2FormatWithRegenerateMessage) {
  // A v2 file (executions stored next to the runs) has its own magic; it is
  // rejected before anything after the magic is read.
  std::string v2 = saved(tiny_trace());
  const std::uint32_t v2_magic = 0x32545243;
  v2.replace(0, sizeof v2_magic, reinterpret_cast<const char*>(&v2_magic), sizeof v2_magic);
  try {
    loaded(v2);
    FAIL() << "v2 trace was not rejected";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("v2"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("regenerate"), std::string::npos) << e.what();
  }
}

TEST(Trace, LoadedRealWorkloadsMatchGenerated) {
  // A saved-and-loaded real trace (H.264 and JPEG) has exactly the runs, run
  // indexes and totals the generator produced.
  const auto check = [](const WorkloadTrace& generated) {
    expect_same_trace(loaded(saved(generated)), generated);
  };
  {
    h264::WorkloadConfig config;
    config.frames = 3;
    config.video.width = 96;
    config.video.height = 64;
    check(h264::generate_h264_workload(h264sis::build_h264_si_set(), config).trace);
  }
  {
    jpeg::JpegWorkloadConfig config;
    config.images = 2;
    config.width = 128;
    config.height = 96;
    check(jpeg::generate_jpeg_workload(jpegsis::build_jpeg_si_set(), config).trace);
  }
}

TEST(Trace, RejectsInconsistentRuns) {
  // A run count changed after the file was sealed no longer matches the
  // checksum.
  const std::string good = saved(tiny_trace());
  WorkloadTrace changed = tiny_trace();
  changed.instances[0].runs[0].count += 1;
  EXPECT_THROW(loaded(with_checksum_of(saved(changed), good)), std::logic_error);
}

TEST(Trace, RejectsFlippedInListRunSi) {
  // A run whose SI flipped to another SI of the same hot spot passes every
  // structural check; only the checksum catches it.
  const std::string good = saved(tiny_trace());
  WorkloadTrace flipped = tiny_trace();
  flipped.instances[0].runs[1].si = 0;  // runs {0},{1},{0} become {0},{0},{0}
  const std::string bad = with_checksum_of(saved(flipped), good);
  ASSERT_EQ(bad.size(), good.size());
  EXPECT_NO_THROW(loaded(saved(flipped)));  // structurally fine once resealed
  try {
    loaded(bad);
    FAIL() << "flipped run SI was not rejected";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos) << e.what();
  }
}

TEST(Trace, RejectsTrailingBytes) {
  std::string bytes = saved(tiny_trace());
  bytes.resize(bytes.size() - 8);
  bytes += "x";
  const std::uint64_t checksum = trace_checksum(bytes);
  bytes.append(reinterpret_cast<const char*>(&checksum), sizeof checksum);
  EXPECT_THROW(loaded(bytes), std::logic_error);
}

TEST(Trace, RejectsRunOutsideItsHotSpotSis) {
  // Hot spot B lists only SI 1; a run of SI 0 in a B instance is corruption,
  // even though SI 0 is a valid id elsewhere in the trace.
  WorkloadTrace trace = tiny_trace();
  trace.instances[1] = HotSpotInstance{1, {0, 0}, 50};
  trace.index_runs();
  EXPECT_EQ(trace.instances[1].run_index.slots, 0u);  // no index for such runs
  EXPECT_THROW(loaded(saved(trace)), std::logic_error);
}

TEST(Trace, HugeLengthFieldsFailBeforeAllocating) {
  // Each length field is checked against the bytes left in the stream, so a
  // corrupt count fails the load instead of asking for terabytes. The
  // streams carry a valid checksum, so the length checks themselves fire.
  const auto stream_with = [](std::uint64_t runs, std::uint32_t name_length) {
    std::string bytes;
    const auto put = [&bytes](const auto& v) {
      bytes.append(reinterpret_cast<const char*>(&v), sizeof v);
    };
    put(std::uint32_t{0x33545243});  // v3 magic
    put(std::uint32_t{1});           // one hot spot
    put(name_length);
    put(std::uint32_t{1});  // its SI list: SI 0
    put(SiId{0});
    put(Cycles{5});
    put(std::uint64_t{1});  // one instance
    put(HotSpotId{0});
    put(Cycles{100});
    put(runs);
    put(trace_checksum(bytes));
    return bytes;
  };
  try {
    loaded(stream_with(std::uint64_t{1} << 40, 0));
    FAIL() << "huge run count was not rejected";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("length field"), std::string::npos) << e.what();
  }
  try {
    loaded(stream_with(1, 0xfffffff0u));
    FAIL() << "huge name length was not rejected";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("string length"), std::string::npos) << e.what();
  }
}

TEST(Trace, SaveTraceFileCreatesMissingDirectory) {
  // A cache directory that does not exist yet is created, not silently
  // skipped: the file written there loads back.
  const std::filesystem::path root = std::filesystem::path(::testing::TempDir()) /
                                     ("rispp_trace_dir_" + std::to_string(::getpid()));
  std::filesystem::remove_all(root);
  const std::filesystem::path file = root / "not" / "yet" / "trace.rtrc";
  const WorkloadTrace trace = tiny_trace();
  save_trace_file(trace, file);
  const std::optional<WorkloadTrace> back = try_load_trace_file(file);
  std::filesystem::remove_all(root);
  ASSERT_TRUE(back.has_value());
  expect_same_trace(*back, trace);
}

TEST(Trace, GeneratedRunsStayInsideTheirHotSpotSis) {
  // Every run of a generated trace belongs to its hot spot's SI list, so
  // every instance carries a run index after generation and after a load.
  const auto check = [](const WorkloadTrace& trace) {
    for (const HotSpotInstance& inst : trace.instances) {
      const std::vector<SiId>& sis = trace.hot_spots[inst.hot_spot].sis;
      for (const SiRun& run : inst.runs)
        ASSERT_NE(std::find(sis.begin(), sis.end(), run.si), sis.end());
      EXPECT_EQ(inst.run_index.slots, sis.size());
    }
    std::stringstream ss;
    trace.save(ss);
    for (const HotSpotInstance& inst : WorkloadTrace::load(ss).instances)
      EXPECT_GT(inst.run_index.slots, 0u);
  };
  h264::WorkloadConfig h264_config;
  h264_config.frames = 2;
  h264_config.video.width = 96;
  h264_config.video.height = 64;
  check(h264::generate_h264_workload(h264sis::build_h264_si_set(), h264_config).trace);
  jpeg::JpegWorkloadConfig jpeg_config;
  jpeg_config.images = 2;
  jpeg_config.width = 128;
  jpeg_config.height = 96;
  check(jpeg::generate_jpeg_workload(jpegsis::build_jpeg_si_set(), jpeg_config).trace);
}

TEST(Executor, SoftwareOnlyMatchesClosedForm) {
  const auto set = h264sis::build_h264_si_set();
  WorkloadTrace trace;
  trace.hot_spots = {HotSpotInfo{"X", {0}, 7}};
  trace.instances = {HotSpotInstance{0, std::vector<SiId>(10, 0), 1000}};
  SoftwareOnlyBackend backend(&set);
  const SimResult r = run_trace(trace, backend);
  EXPECT_EQ(r.total_cycles, 1000u + 10u * (set.si(0).software_latency + 7));
  EXPECT_EQ(r.atom_loads, 0u);
}

}  // namespace
}  // namespace rispp
