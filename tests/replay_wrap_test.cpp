// Replays whose simulated time could wrap 2^64 are rejected up front.
//
// A clock that wraps gives wrong cycle counts on every replay path, and the
// window replay (sim/window_replay.cpp) stops making progress for good once
// `now` has wrapped while a load is in flight. The trace loader bounds the
// overheads a file may carry, but an SI set whose latencies are near
// 2^64 / executions, or a trace built in memory, reaches the replay
// unchecked. check_replay_fits bounds the whole replay once, before the
// first instance, at every replay entry point: run_trace, the fleet's
// session batch and run_tenants.
//
// Without the check these tests do not fail, they hang; ctest runs them with
// a timeout (tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/molen.h"
#include "config/h264_platform.h"
#include "config/platform_parser.h"
#include "fleet/session_batch.h"
#include "h264/workload.h"
#include "isa/h264_si_library.h"
#include "rtm/fabric_arbiter.h"
#include "rtm/run_time_manager.h"
#include "rtm/tenant_sim.h"
#include "sched/hef.h"
#include "sim/executor.h"

namespace rispp {
namespace {

constexpr Cycles kTopByte = Cycles{0xff} << 56;

h264::WorkloadConfig small_config() {
  h264::WorkloadConfig config;
  config.frames = 2;
  config.video.width = 64;
  config.video.height = 48;
  return config;
}

/// Runs `replay` and expects the wrap rejection, not a result.
template <typename Replay>
void expect_rejected(Replay replay, const std::string& what) {
  try {
    replay();
    ADD_FAILURE() << what << ": replay returned instead of rejecting the input";
  } catch (const std::logic_error& error) {
    EXPECT_NE(std::string(error.what()).find("could wrap simulated time"), std::string::npos)
        << what << ": " << error.what();
  }
}

TEST(ReplayWrap, RunTraceRejectsAPlatformWhoseTrapLatencyWrapsTime) {
  // The Table 1 platform with one EE SI trapping for about 2^64 cycles.
  const SpecialInstructionSet set = h264sis::build_h264_si_set();
  const WorkloadTrace trace = h264::generate_h264_workload(set, small_config()).trace;
  config::PlatformSpec spec = config::h264_platform_spec();
  spec.sis[set.find(h264sis::kDct).value()].trap_overhead |= kTopByte;
  const SpecialInstructionSet wrapping = config::build_platform(spec);
  ASSERT_EQ(wrapping.si_count(), set.si_count());

  for (const ReplayMode mode : {ReplayMode::kBatched, ReplayMode::kScalar}) {
    const std::string label = mode == ReplayMode::kBatched ? " batched" : " scalar";
    const HefScheduler hef;
    RtmConfig config;
    config.container_count = 8;
    config.scheduler = &hef;
    RunTimeManager rtm(&wrapping, trace.hot_spots.size(), config);
    expect_rejected([&] { run_trace(trace, rtm, nullptr, mode); }, "RTM" + label);
    for (const LoadPolicy policy : {LoadPolicy::kPrefetch, LoadPolicy::kDemand}) {
      SingleImplConfig baseline;
      baseline.container_count = 8;
      SingleImplBackend backend(&wrapping, trace.hot_spots.size(), baseline, policy);
      expect_rejected([&] { run_trace(trace, backend, nullptr, mode); },
                      std::string(backend.name()) + label);
    }
  }
}

TEST(ReplayWrap, RunTraceRejectsATraceWhoseOverheadWrapsTime) {
  const SpecialInstructionSet set = h264sis::build_h264_si_set();
  WorkloadTrace trace = h264::generate_h264_workload(set, small_config()).trace;
  trace.hot_spots[h264::kHotSpotEe].per_execution_overhead |= kTopByte;
  const HefScheduler hef;
  RtmConfig config;
  config.container_count = 8;
  config.scheduler = &hef;
  RunTimeManager rtm(&set, trace.hot_spots.size(), config);
  expect_rejected([&] { run_trace(trace, rtm); }, "RTM");
}

TEST(ReplayWrap, RunTenantsRejectsATraceWhoseOverheadWrapsTime) {
  const SpecialInstructionSet set = h264sis::build_h264_si_set();
  const WorkloadTrace sound = h264::generate_h264_workload(set, small_config()).trace;
  WorkloadTrace wrapping = sound;
  wrapping.hot_spots[h264::kHotSpotEe].per_execution_overhead |= kTopByte;

  ArbiterConfig arbiter_config;
  arbiter_config.total_containers = 16;
  FabricArbiter arbiter(arbiter_config);
  const HefScheduler hef;
  std::vector<std::unique_ptr<RunTimeManager>> rtms;
  std::vector<TenantRun> runs(2);
  TenantConfig tenant;
  tenant.quota = 8;
  for (std::size_t i = 0; i < runs.size(); ++i) runs[i].tenant = arbiter.add_tenant(tenant);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    RtmConfig config;
    config.scheduler = &hef;
    config.arbiter = &arbiter;
    config.tenant = runs[i].tenant;
    rtms.push_back(std::make_unique<RunTimeManager>(&set, sound.hot_spots.size(), config));
    runs[i].trace = i == 0 ? &sound : &wrapping;
    runs[i].rtm = rtms.back().get();
  }
  expect_rejected([&] { run_tenants(arbiter, std::span<TenantRun>(runs)); }, "tenant 1");
}

TEST(ReplayWrap, SessionBatchRejectsATraceWhoseOverheadWrapsTime) {
  fleet::SessionSpec spec;
  spec.frames = 1;
  spec.width = 64;
  spec.height = 48;
  // A private repository whose entry stands in for a trace that reached the
  // fleet without passing the loader's bounds. The repository hands entries
  // out const; this one is corrupted before any session replays it.
  fleet::TraceRepository traces;
  auto& entry = const_cast<fleet::TraceEntry&>(traces.get(spec));
  entry.trace.hot_spots[h264::kHotSpotEe].per_execution_overhead |= kTopByte;

  fleet::SharedDecisionCache cache;
  fleet::FleetOptions options;
  options.traces = &traces;
  options.shared_cache = &cache;
  fleet::SessionBatch batch({spec, spec}, options);
  expect_rejected([&] { batch.run(); }, "session batch");
}

}  // namespace
}  // namespace rispp
