// Tests for traces, the cycle-level executor and bucketed statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

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

TEST(Trace, BinaryRoundTrip) {
  const WorkloadTrace trace = tiny_trace();
  std::stringstream ss;
  trace.save(ss);
  const WorkloadTrace loaded = WorkloadTrace::load(ss);
  ASSERT_EQ(loaded.hot_spots.size(), trace.hot_spots.size());
  EXPECT_EQ(loaded.hot_spots[0].name, "A");
  EXPECT_EQ(loaded.hot_spots[0].sis, trace.hot_spots[0].sis);
  EXPECT_EQ(loaded.hot_spots[1].per_execution_overhead, 3u);
  ASSERT_EQ(loaded.instances.size(), trace.instances.size());
  EXPECT_EQ(loaded.instances[0].executions, trace.instances[0].executions);
  EXPECT_EQ(loaded.instances[1].entry_overhead, 50u);
}

TEST(Trace, RejectsGarbage) {
  std::stringstream ss;
  ss << "this is not a trace";
  EXPECT_THROW(WorkloadTrace::load(ss), std::logic_error);
}

TEST(Trace, RoundTripCarriesRuns) {
  // v2 serializes the RLE run form: a load never rebuilds it.
  WorkloadTrace trace = tiny_trace();
  trace.build_runs();
  std::stringstream ss;
  trace.save(ss);
  const WorkloadTrace loaded = WorkloadTrace::load(ss);
  EXPECT_TRUE(loaded.runs_built());
  ASSERT_EQ(loaded.instances.size(), trace.instances.size());
  for (std::size_t i = 0; i < trace.instances.size(); ++i) {
    ASSERT_EQ(loaded.instances[i].runs.size(), trace.instances[i].runs.size());
    for (std::size_t r = 0; r < trace.instances[i].runs.size(); ++r) {
      EXPECT_EQ(loaded.instances[i].runs[r].si, trace.instances[i].runs[r].si);
      EXPECT_EQ(loaded.instances[i].runs[r].count, trace.instances[i].runs[r].count);
    }
  }
  EXPECT_EQ(loaded.total_si_executions(), trace.total_si_executions());
  EXPECT_EQ(loaded.executions_of(0), trace.executions_of(0));
  EXPECT_EQ(loaded.executions_of(1), trace.executions_of(1));
}

TEST(Trace, SaveEncodesRunsWhenNotBuilt) {
  // Even a trace saved before build_runs() yields a v2 file with runs.
  const WorkloadTrace trace = tiny_trace();  // runs never built
  std::stringstream ss;
  trace.save(ss);
  const WorkloadTrace loaded = WorkloadTrace::load(ss);
  EXPECT_TRUE(loaded.runs_built());
  ASSERT_EQ(loaded.instances[0].runs.size(), 3u);  // {0},{1},{0}
  ASSERT_EQ(loaded.instances[1].runs.size(), 1u);  // {1,1} coalesced
  EXPECT_EQ(loaded.instances[1].runs[0].count, 2u);
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

TEST(Trace, SerializedRunsMatchBuildRunsOnRealWorkloads) {
  // Migration guarantee: for real traces (H.264 and JPEG) the serialized run
  // form is exactly what build_runs() would compute from the executions.
  const auto check = [](const WorkloadTrace& generated) {
    std::stringstream ss;
    generated.save(ss);
    const WorkloadTrace loaded = WorkloadTrace::load(ss);
    WorkloadTrace rebuilt = loaded;
    rebuilt.build_runs();
    ASSERT_EQ(loaded.instances.size(), rebuilt.instances.size());
    for (std::size_t i = 0; i < loaded.instances.size(); ++i) {
      ASSERT_EQ(loaded.instances[i].runs.size(), rebuilt.instances[i].runs.size())
          << "instance " << i;
      for (std::size_t r = 0; r < loaded.instances[i].runs.size(); ++r) {
        EXPECT_EQ(loaded.instances[i].runs[r].si, rebuilt.instances[i].runs[r].si);
        EXPECT_EQ(loaded.instances[i].runs[r].count, rebuilt.instances[i].runs[r].count);
      }
    }
    EXPECT_EQ(loaded.total_si_executions(), rebuilt.total_si_executions());
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
  // Runs whose counts do not sum to the execution count are corruption.
  WorkloadTrace trace = tiny_trace();
  trace.build_runs();
  trace.instances[0].runs[0].count += 1;  // now sum(runs) != executions
  std::stringstream ss;
  trace.save(ss);
  EXPECT_THROW(WorkloadTrace::load(ss), std::logic_error);
}

TEST(Trace, RejectsRunOutsideItsHotSpotSis) {
  // Hot spot B lists only SI 1; a run of SI 0 in a B instance is corruption,
  // even though SI 0 is a valid id elsewhere in the trace.
  WorkloadTrace trace = tiny_trace();
  trace.instances[1].executions = {0, 0};
  trace.build_runs();
  EXPECT_EQ(trace.instances[1].run_index.slots, 0u);  // no index for such runs
  std::stringstream ss;
  trace.save(ss);
  EXPECT_THROW(WorkloadTrace::load(ss), std::logic_error);
}

TEST(Trace, RejectsRunsThatDisagreeWithTheirExecutions) {
  // Run counts that sum to the execution count are not enough: each run's SI
  // must match every execution it covers, or the batched and scalar replay
  // paths would see two different traces.
  {
    // A wrong SI that is still in hot spot A's list.
    WorkloadTrace trace = tiny_trace();
    trace.build_runs();
    trace.instances[0].runs[1].si = 0;
    std::stringstream ss;
    trace.save(ss);
    EXPECT_THROW(WorkloadTrace::load(ss), std::logic_error);
  }
  {
    // An execution id that no run covers.
    WorkloadTrace trace = tiny_trace();
    trace.build_runs();
    trace.instances[1].executions[1] = 7;
    std::stringstream ss;
    trace.save(ss);
    EXPECT_THROW(WorkloadTrace::load(ss), std::logic_error);
  }
}

TEST(Trace, HugeLengthFieldsFailBeforeAllocating) {
  // Each length field is checked against the bytes left in the stream, so a
  // corrupt count fails the load instead of asking for terabytes.
  const auto stream_with = [](std::uint64_t executions, std::uint32_t name_length) {
    std::stringstream ss;
    const auto put = [&ss](const auto& v) {
      ss.write(reinterpret_cast<const char*>(&v), sizeof v);
    };
    put(std::uint32_t{0x32545243});  // v2 magic
    put(std::uint32_t{1});           // one hot spot
    put(name_length);
    put(std::uint32_t{1});  // its SI list: SI 0
    put(SiId{0});
    put(Cycles{5});
    put(std::uint64_t{1});  // one instance
    put(HotSpotId{0});
    put(Cycles{100});
    put(executions);
    return ss;
  };
  auto huge_executions = stream_with(std::uint64_t{1} << 40, 0);
  EXPECT_THROW(WorkloadTrace::load(huge_executions), std::logic_error);
  auto huge_name = stream_with(1, 0xfffffff0u);
  EXPECT_THROW(WorkloadTrace::load(huge_name), std::logic_error);
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
