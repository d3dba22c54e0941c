// Tests for the comparison systems: OneChip-like demand loading vs the
// Molen-like prefetch model, and their relation to RISPP.
//
// Both baselines are pinned by golden digests: every SimResult field and the
// full SimStats (buckets and latency timelines) per cell, over a short H.264
// trace, a JPEG trace and a seeded random trace, several AC budgets and both
// replay modes. The replay equivalence suite compares the scalar and batched
// paths of one backend, so it cannot see a change that moves both alike;
// these digests can.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "baselines/molen.h"
#include "baselines/onechip.h"
#include "baselines/software_only.h"
#include "base/prng.h"
#include "h264/workload.h"
#include "isa/h264_si_library.h"
#include "jpeg/jpeg_si_library.h"
#include "jpeg/jpeg_workload.h"
#include "rtm/run_time_manager.h"
#include "sched/hef.h"
#include "sim/executor.h"
#include "sim/stats.h"

namespace rispp {
namespace {

WorkloadTrace two_si_trace(const SpecialInstructionSet& set, int executions) {
  const SiId sad = set.find("SAD").value();
  const SiId satd = set.find("SATD").value();
  WorkloadTrace trace;
  trace.hot_spots = {HotSpotInfo{"ME", {sad, satd}, 8}};
  HotSpotInstance inst{0, 1000};
  for (int i = 0; i < executions; ++i) inst.append(i % 8 == 7 ? satd : sad);
  trace.instances.push_back(std::move(inst));
  return trace;
}

TEST(OneChip, DemandLoadingBeatsSoftwareButTrailsPrefetch) {
  const auto set = h264sis::build_h264_si_set();
  const WorkloadTrace trace = two_si_trace(set, 20'000);

  SoftwareOnlyBackend software(&set);
  const Cycles sw = run_trace(trace, software).total_cycles;

  OneChipConfig oc;
  oc.container_count = 17;
  OneChipBackend onechip(&set, 3, oc);
  h264::seed_default_forecasts(set, onechip);
  const Cycles demand = run_trace(trace, onechip).total_cycles;

  MolenConfig mc;
  mc.container_count = 17;
  MolenBackend molen(&set, 3, mc);
  h264::seed_default_forecasts(set, molen);
  const Cycles prefetch = run_trace(trace, molen).total_cycles;

  EXPECT_LT(demand, sw);
  // Both load the same accelerators; demand loading can only start later.
  EXPECT_GE(demand, prefetch);
}

TEST(OneChip, LoadsNothingForUnexecutedSis) {
  const auto set = h264sis::build_h264_si_set();
  const SiId sad = set.find("SAD").value();
  // Hot spot declares SAD+SATD, but only SAD ever executes.
  WorkloadTrace trace;
  trace.hot_spots = {HotSpotInfo{"ME", {sad, set.find("SATD").value()}, 8}};
  trace.instances = {HotSpotInstance{0, std::vector<SiId>(30'000, sad), 1000}};

  OneChipConfig oc;
  oc.container_count = 17;
  OneChipBackend onechip(&set, 3, oc);
  h264::seed_default_forecasts(set, onechip);
  const SimResult result = run_trace(trace, onechip);
  // Only SAD's selected molecule gets configured (3 atoms at most).
  EXPECT_LE(result.atom_loads, 3u);
}

TEST(OneChip, SingleImplementationNoIntermediates) {
  const auto set = h264sis::build_h264_si_set();
  const WorkloadTrace trace = two_si_trace(set, 20'000);
  OneChipConfig oc;
  oc.container_count = 17;
  OneChipBackend onechip(&set, 3, oc);
  h264::seed_default_forecasts(set, onechip);
  SimStats stats(set.si_count());
  (void)run_trace(trace, onechip, &stats);
  const SiId sad = set.find("SAD").value();
  // One step: trap -> selected molecule (no gradual upgrading).
  EXPECT_LE(stats.latency_timeline(sad).size(), 2u);
}

TEST(Baselines, FullH264OrderingHolds) {
  // On a short real workload: software > OneChip >= Molen >= RISPP(HEF),
  // with a little tolerance for residency noise between the middle two.
  const auto set = h264sis::build_h264_si_set();
  h264::WorkloadConfig config;
  config.frames = 6;
  const auto workload = h264::generate_h264_workload(set, config);
  constexpr unsigned kAcs = 14;

  SoftwareOnlyBackend software(&set);
  const Cycles sw = run_trace(workload.trace, software).total_cycles;

  OneChipConfig oc;
  oc.container_count = kAcs;
  OneChipBackend onechip(&set, 3, oc);
  h264::seed_default_forecasts(set, onechip);
  const Cycles demand = run_trace(workload.trace, onechip).total_cycles;

  MolenConfig mc;
  mc.container_count = kAcs;
  MolenBackend molen(&set, 3, mc);
  h264::seed_default_forecasts(set, molen);
  const Cycles prefetch = run_trace(workload.trace, molen).total_cycles;

  HefScheduler hef;
  RtmConfig rtm_config;
  rtm_config.container_count = kAcs;
  rtm_config.scheduler = &hef;
  RunTimeManager rtm(&set, 3, rtm_config);
  h264::seed_default_forecasts(set, rtm);
  const Cycles rispp = run_trace(workload.trace, rtm).total_cycles;

  EXPECT_LT(demand, sw);
  EXPECT_LE(static_cast<double>(prefetch), static_cast<double>(demand) * 1.05);
  EXPECT_LT(rispp, prefetch);
}

/// A seeded random workload over `set`'s SIs: 2-5 hot spots of 1-4 SIs, 40
/// instances of 60 runs of 1-3000 executions, and a seed forecast per
/// (hot spot, SI), parallel to each hot spot's SI list.
struct RandomWorkload {
  WorkloadTrace trace;
  std::vector<std::vector<std::uint64_t>> forecasts;
};

RandomWorkload random_workload(const SpecialInstructionSet& set, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  RandomWorkload w;
  const std::size_t hot_spots = 2 + rng.bounded(4);
  for (std::size_t h = 0; h < hot_spots; ++h) {
    std::vector<SiId> sis(set.si_count());
    std::iota(sis.begin(), sis.end(), SiId{0});
    const std::size_t k = 1 + rng.bounded(std::min<std::size_t>(4, sis.size()));
    for (std::size_t j = 0; j < k; ++j) std::swap(sis[j], sis[j + rng.bounded(sis.size() - j)]);
    sis.resize(k);
    w.forecasts.emplace_back();
    for (std::size_t j = 0; j < k; ++j) w.forecasts.back().push_back(1 + rng.bounded(3000));
    w.trace.hot_spots.push_back(HotSpotInfo{"hs" + std::to_string(h), std::move(sis), 4});
  }
  for (int i = 0; i < 40; ++i) {
    HotSpotInstance inst;
    inst.hot_spot = static_cast<HotSpotId>(rng.bounded(hot_spots));
    inst.entry_overhead = rng.bounded(2000);
    const std::vector<SiId>& sis = w.trace.hot_spots[inst.hot_spot].sis;
    for (int r = 0; r < 60; ++r) {
      const SiId si = sis[rng.bounded(sis.size())];
      inst.append(si, 1 + rng.bounded(3000));
    }
    w.trace.instances.push_back(std::move(inst));
  }
  w.trace.index_runs();
  return w;
}

/// FNV-1a over 64-bit words: order-sensitive, stable across hosts.
struct Digest {
  std::uint64_t value = 0xcbf29ce484222325ull;
  void add(std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      value ^= (word >> (8 * b)) & 0xff;
      value *= 0x100000001b3ull;
    }
  }
};

/// Every field of `result` plus `stats` over `si_count` SIs: per-SI totals,
/// every bucket, every latency change point.
std::uint64_t run_digest(const SimResult& result, const SimStats& stats, std::size_t si_count) {
  Digest d;
  d.add(result.total_cycles);
  d.add(result.si_executions);
  d.add(result.atom_loads);
  d.add(result.hot_spot_cycles.size());
  for (const Cycles c : result.hot_spot_cycles) d.add(c);
  d.add(stats.bucket_count());
  for (SiId si = 0; si < si_count; ++si) {
    d.add(stats.executions(si));
    for (std::size_t b = 0; b < stats.bucket_count(); ++b) d.add(stats.bucket_executions(si, b));
    const auto& timeline = stats.latency_timeline(si);
    d.add(timeline.size());
    for (const SimStats::LatencyPoint& p : timeline) {
      d.add(p.at);
      d.add(p.latency);
    }
  }
  return d.value;
}

// Recorded from the separate Molen and OneChip backends; one digest per cell.
const std::map<std::string, std::uint64_t>& golden_digests() {
  static const std::map<std::string, std::uint64_t> golden = {
      {"Molen/h264@0/scalar", 0xd47393606968e299ull},
      {"OneChip/h264@0/scalar", 0xd47393606968e299ull},
      {"Molen/h264@0/batched", 0xd47393606968e299ull},
      {"OneChip/h264@0/batched", 0xd47393606968e299ull},
      {"Molen/h264@5/scalar", 0x3774a0bd781181c1ull},
      {"OneChip/h264@5/scalar", 0x4adfc6867dd95763ull},
      {"Molen/h264@5/batched", 0x3774a0bd781181c1ull},
      {"OneChip/h264@5/batched", 0x4adfc6867dd95763ull},
      {"Molen/h264@10/scalar", 0xd18f59a6fdff19cbull},
      {"OneChip/h264@10/scalar", 0xfb6212fd965a19e6ull},
      {"Molen/h264@10/batched", 0xd18f59a6fdff19cbull},
      {"OneChip/h264@10/batched", 0xfb6212fd965a19e6ull},
      {"Molen/h264@17/scalar", 0x6553239d12b8a7edull},
      {"OneChip/h264@17/scalar", 0xa82edb69826bea73ull},
      {"Molen/h264@17/batched", 0x6553239d12b8a7edull},
      {"OneChip/h264@17/batched", 0xa82edb69826bea73ull},
      {"Molen/h264@24/scalar", 0x26786bdd69933619ull},
      {"OneChip/h264@24/scalar", 0xbe724bf2718ef559ull},
      {"Molen/h264@24/batched", 0x26786bdd69933619ull},
      {"OneChip/h264@24/batched", 0xbe724bf2718ef559ull},
      {"Molen/jpeg@0/scalar", 0x1a73d3f4b6db90dcull},
      {"OneChip/jpeg@0/scalar", 0x1a73d3f4b6db90dcull},
      {"Molen/jpeg@0/batched", 0x1a73d3f4b6db90dcull},
      {"OneChip/jpeg@0/batched", 0x1a73d3f4b6db90dcull},
      {"Molen/jpeg@5/scalar", 0xf80a2dcd0002f7cbull},
      {"OneChip/jpeg@5/scalar", 0xf80a2dcd0002f7cbull},
      {"Molen/jpeg@5/batched", 0xf80a2dcd0002f7cbull},
      {"OneChip/jpeg@5/batched", 0xf80a2dcd0002f7cbull},
      {"Molen/jpeg@10/scalar", 0x32c4defbae64001eull},
      {"OneChip/jpeg@10/scalar", 0x32c4defbae64001eull},
      {"Molen/jpeg@10/batched", 0x32c4defbae64001eull},
      {"OneChip/jpeg@10/batched", 0x32c4defbae64001eull},
      {"Molen/jpeg@17/scalar", 0x845af712fd079fafull},
      {"OneChip/jpeg@17/scalar", 0x845af712fd079fafull},
      {"Molen/jpeg@17/batched", 0x845af712fd079fafull},
      {"OneChip/jpeg@17/batched", 0x845af712fd079fafull},
      {"Molen/jpeg@24/scalar", 0x6883c2e315da375bull},
      {"OneChip/jpeg@24/scalar", 0x6883c2e315da375bull},
      {"Molen/jpeg@24/batched", 0x6883c2e315da375bull},
      {"OneChip/jpeg@24/batched", 0x6883c2e315da375bull},
      {"Molen/random@0/scalar", 0xeb0e5a3ffd3e7dbdull},
      {"OneChip/random@0/scalar", 0xeb0e5a3ffd3e7dbdull},
      {"Molen/random@0/batched", 0xeb0e5a3ffd3e7dbdull},
      {"OneChip/random@0/batched", 0xeb0e5a3ffd3e7dbdull},
      {"Molen/random@5/scalar", 0xc5b844fa491c8170ull},
      {"OneChip/random@5/scalar", 0xb03ff1420f58db5full},
      {"Molen/random@5/batched", 0xc5b844fa491c8170ull},
      {"OneChip/random@5/batched", 0xb03ff1420f58db5full},
      {"Molen/random@10/scalar", 0x061b027e0d63be66ull},
      {"OneChip/random@10/scalar", 0x27954ee61edac874ull},
      {"Molen/random@10/batched", 0x061b027e0d63be66ull},
      {"OneChip/random@10/batched", 0x27954ee61edac874ull},
      {"Molen/random@17/scalar", 0x3a973a60e3afadb6ull},
      {"OneChip/random@17/scalar", 0xb4e9f3967d91fb58ull},
      {"Molen/random@17/batched", 0x3a973a60e3afadb6ull},
      {"OneChip/random@17/batched", 0xb4e9f3967d91fb58ull},
      {"Molen/random@24/scalar", 0x477cbcbd67944f7aull},
      {"OneChip/random@24/scalar", 0x78bf3c46cd93a8afull},
      {"Molen/random@24/batched", 0x477cbcbd67944f7aull},
      {"OneChip/random@24/batched", 0x78bf3c46cd93a8afull},
  };
  return golden;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llxull", static_cast<unsigned long long>(v));
  return buf;
}

TEST(Baselines, SingleImplementationMatchesGoldenDigests) {
  // Every workload has several hot spots, so Molen's victim choice, which
  // spares the atoms the other hot spots selected, has something to spare.
  // On the H.264 and JPEG traces it never changes a victim; on the random
  // one (seed 358) it does, at 17 and 24 ACs, and so would giving OneChip
  // the same rule.
  const auto h264_set = h264sis::build_h264_si_set();
  h264::WorkloadConfig h264_config;
  h264_config.frames = 8;
  h264_config.video.width = 176;
  h264_config.video.height = 144;
  h264_config.video.cut_period = 5;  // an intra burst shifts the forecasts mid-run
  const WorkloadTrace h264_trace = h264::generate_h264_workload(h264_set, h264_config).trace;

  const auto jpeg_set = jpegsis::build_jpeg_si_set();
  jpeg::JpegWorkloadConfig jpeg_config;
  jpeg_config.images = 6;
  const WorkloadTrace jpeg_trace = jpeg::generate_jpeg_workload(jpeg_set, jpeg_config).trace;

  const RandomWorkload random = random_workload(h264_set, 358);

  enum class Workload { kH264, kJpeg, kRandom };
  const auto run = [&](Workload workload, const SpecialInstructionSet& set,
                       const WorkloadTrace& trace, auto&& backend, ReplayMode mode) {
    if (workload == Workload::kH264)
      h264::seed_default_forecasts(set, backend);
    else if (workload == Workload::kJpeg)
      jpeg::seed_jpeg_forecasts(set, backend);
    else
      for (HotSpotId hs = 0; hs < trace.hot_spots.size(); ++hs)
        for (std::size_t j = 0; j < trace.hot_spots[hs].sis.size(); ++j)
          backend.seed_forecast(hs, trace.hot_spots[hs].sis[j], random.forecasts[hs][j]);
    SimStats stats(set.si_count());
    const SimResult result = run_trace(trace, backend, &stats, mode);
    return run_digest(result, stats, set.si_count());
  };

  std::string mismatched_rows;
  for (const Workload workload : {Workload::kH264, Workload::kJpeg, Workload::kRandom}) {
    const SpecialInstructionSet& set = workload == Workload::kJpeg ? jpeg_set : h264_set;
    const WorkloadTrace& trace = workload == Workload::kH264   ? h264_trace
                                 : workload == Workload::kJpeg ? jpeg_trace
                                                               : random.trace;
    const char* tag = workload == Workload::kH264   ? "/h264@"
                      : workload == Workload::kJpeg ? "/jpeg@"
                                                    : "/random@";
    for (const unsigned acs : {0u, 5u, 10u, 17u, 24u}) {
      for (const ReplayMode mode : {ReplayMode::kScalar, ReplayMode::kBatched}) {
        const std::string where = tag + std::to_string(acs) +
                                  (mode == ReplayMode::kScalar ? "/scalar" : "/batched");
        MolenConfig molen_config;
        molen_config.container_count = acs;
        OneChipConfig onechip_config;
        onechip_config.container_count = acs;
        const std::pair<std::string, std::uint64_t> cells[] = {
            {"Molen" + where,
             run(workload, set, trace, MolenBackend(&set, trace.hot_spots.size(), molen_config),
                 mode)},
            {"OneChip" + where,
             run(workload, set, trace,
                 OneChipBackend(&set, trace.hot_spots.size(), onechip_config), mode)},
        };
        for (const auto& [cell, actual] : cells) {
          const auto it = golden_digests().find(cell);
          if (it == golden_digests().end() || it->second != actual)
            mismatched_rows += "      {\"" + cell + "\", " + hex(actual) + "},\n";
        }
      }
    }
  }
  if (!mismatched_rows.empty()) ADD_FAILURE() << "digest mismatch; actual rows:\n" << mismatched_rows;
}

}  // namespace
}  // namespace rispp
