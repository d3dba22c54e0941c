// Bit-exactness of the run-batched fast-forward replay (ReplayMode::kBatched,
// the default) against the scalar reference path (ReplayMode::kScalar), for
// every backend the repo ships. The batched path may only change simulator
// wall-clock, never a simulated number: total cycles, per-hot-spot cycles,
// load counts, stats buckets and latency timelines must all match.
//
// Two workloads: the H.264 CIF encode (the paper's evaluation run) and the
// JPEG stream — the latter exercises different SI shapes, data-dependent EC
// run lengths and a different hot-spot cadence, so a fast path that
// overfits H.264's structure cannot pass.
//
// The window-edge tests at the end drive the shared window core
// (sim/window_replay.h) over seeded random run arrays: the indexed span path
// (whole blocks skipped), the unindexed one (a copied run array, scanned run
// by run), the per-run path and the scalar reference must agree, also when a
// window ends exactly on a block or run boundary.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/molen.h"
#include "baselines/software_only.h"
#include "baselines/static_asip.h"
#include "base/prng.h"
#include "h264/workload.h"
#include "isa/h264_si_library.h"
#include "jpeg/jpeg_si_library.h"
#include "jpeg/jpeg_workload.h"
#include "rtm/run_time_manager.h"
#include "sched/hef.h"
#include "sched/registry.h"
#include "sim/executor.h"
#include "sim/stats.h"
#include "sim/window_replay.h"

namespace rispp {
namespace {

/// Molen and OneChip: the single-implementation backend's two load policies.
constexpr LoadPolicy kLoadPolicies[] = {LoadPolicy::kPrefetch, LoadPolicy::kDemand};

std::string baseline_name(LoadPolicy policy) {
  return policy == LoadPolicy::kPrefetch ? "Molen" : "OneChip";
}

/// A fresh single-implementation baseline with `acs` containers, unseeded.
std::unique_ptr<SingleImplBackend> make_baseline(const SpecialInstructionSet* set,
                                                 std::size_t hot_spot_count,
                                                 LoadPolicy policy, unsigned acs) {
  SingleImplConfig config;
  config.container_count = acs;
  return std::make_unique<SingleImplBackend>(set, hot_spot_count, config, policy);
}

class ReplayEquivalenceFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    set_ = new SpecialInstructionSet(h264sis::build_h264_si_set());
    h264::WorkloadConfig config;
    config.frames = kFrames;
    trace_ = new WorkloadTrace(h264::generate_h264_workload(*set_, config).trace);

    jpeg_set_ = new SpecialInstructionSet(jpegsis::build_jpeg_si_set());
    jpeg::JpegWorkloadConfig jpeg_config;
    jpeg_config.images = kJpegImages;
    jpeg_trace_ = new WorkloadTrace(
        jpeg::generate_jpeg_workload(*jpeg_set_, jpeg_config).trace);
  }
  static void TearDownTestSuite() {
    delete jpeg_trace_;
    delete jpeg_set_;
    delete trace_;
    delete set_;
  }

  struct Observed {
    SimResult result;
    std::uint64_t loads = 0;
  };

  // Runs `trace` twice with `make_backend` producing a fresh backend each
  // time, and asserts the batched replay matches the scalar one exactly —
  // including the per-bucket stats and latency timelines.
  template <typename MakeBackend>
  static void expect_equivalent(const SpecialInstructionSet& set,
                                const WorkloadTrace& trace, MakeBackend&& make_backend,
                                const std::string& label) {
    SCOPED_TRACE(label);
    SimStats scalar_stats(set.si_count()), batched_stats(set.si_count());
    Observed scalar, batched;
    {
      auto backend = make_backend();
      scalar.result = run_trace(trace, *backend, &scalar_stats, ReplayMode::kScalar);
      scalar.loads = backend->completed_loads();
    }
    {
      auto backend = make_backend();
      batched.result = run_trace(trace, *backend, &batched_stats, ReplayMode::kBatched);
      batched.loads = backend->completed_loads();
    }
    EXPECT_EQ(scalar.result.total_cycles, batched.result.total_cycles);
    EXPECT_EQ(scalar.result.si_executions, batched.result.si_executions);
    EXPECT_EQ(scalar.result.atom_loads, batched.result.atom_loads);
    EXPECT_EQ(scalar.result.hot_spot_cycles, batched.result.hot_spot_cycles);
    EXPECT_EQ(scalar.loads, batched.loads);

    ASSERT_EQ(scalar_stats.bucket_count(), batched_stats.bucket_count());
    for (SiId si = 0; si < set.si_count(); ++si) {
      EXPECT_EQ(scalar_stats.executions(si), batched_stats.executions(si)) << "si " << si;
      for (std::size_t b = 0; b < scalar_stats.bucket_count(); ++b)
        ASSERT_EQ(scalar_stats.bucket_executions(si, b),
                  batched_stats.bucket_executions(si, b))
            << "si " << si << " bucket " << b;
      const auto& st = scalar_stats.latency_timeline(si);
      const auto& bt = batched_stats.latency_timeline(si);
      ASSERT_EQ(st.size(), bt.size()) << "si " << si;
      for (std::size_t p = 0; p < st.size(); ++p) {
        EXPECT_EQ(st[p].at, bt[p].at) << "si " << si << " point " << p;
        EXPECT_EQ(st[p].latency, bt[p].latency) << "si " << si << " point " << p;
      }
    }

    // The stats-free span fast path must agree with the stats path too.
    auto backend = make_backend();
    const SimResult span = run_trace(trace, *backend, nullptr, ReplayMode::kBatched);
    EXPECT_EQ(scalar.result.total_cycles, span.total_cycles);
    EXPECT_EQ(scalar.result.si_executions, span.si_executions);
    EXPECT_EQ(scalar.result.atom_loads, span.atom_loads);
    EXPECT_EQ(scalar.result.hot_spot_cycles, span.hot_spot_cycles);
  }

  // The single-implementation baseline under `policy`, on each workload's
  // container budgets.
  static void expect_h264_baseline_equivalent(LoadPolicy policy) {
    for (const unsigned acs : {6u, 10u, 17u, 24u}) {
      expect_equivalent(
          *set_, *trace_,
          [&] {
            auto baseline = make_baseline(set_, trace_->hot_spots.size(), policy, acs);
            h264::seed_default_forecasts(*set_, *baseline);
            return baseline;
          },
          baseline_name(policy) + "@" + std::to_string(acs));
    }
  }
  static void expect_jpeg_baseline_equivalent(LoadPolicy policy) {
    for (const unsigned acs : {4u, 8u, 14u}) {
      expect_equivalent(
          *jpeg_set_, *jpeg_trace_,
          [&] {
            auto baseline =
                make_baseline(jpeg_set_, jpeg_trace_->hot_spots.size(), policy, acs);
            jpeg::seed_jpeg_forecasts(*jpeg_set_, *baseline);
            return baseline;
          },
          "jpeg:" + baseline_name(policy) + "@" + std::to_string(acs));
    }
  }

  static constexpr int kFrames = 8;
  static constexpr int kJpegImages = 6;
  static SpecialInstructionSet* set_;
  static WorkloadTrace* trace_;
  static SpecialInstructionSet* jpeg_set_;
  static WorkloadTrace* jpeg_trace_;
};

SpecialInstructionSet* ReplayEquivalenceFixture::set_ = nullptr;
WorkloadTrace* ReplayEquivalenceFixture::trace_ = nullptr;
SpecialInstructionSet* ReplayEquivalenceFixture::jpeg_set_ = nullptr;
WorkloadTrace* ReplayEquivalenceFixture::jpeg_trace_ = nullptr;

struct RtmHolder {
  std::unique_ptr<AtomScheduler> scheduler;
  std::unique_ptr<RunTimeManager> rtm;
  std::uint64_t completed_loads() const { return rtm->completed_loads(); }
  operator RunTimeManager&() { return *rtm; }
};

TEST_F(ReplayEquivalenceFixture, RtmAllSchedulersAllBudgets) {
  for (const auto& name : scheduler_names()) {
    for (const unsigned acs : {6u, 10u, 17u, 24u}) {
      expect_equivalent(
          *set_, *trace_,
          [&] {
            auto holder = std::make_unique<RtmHolder>();
            holder->scheduler = make_scheduler(name);
            RtmConfig config;
            config.container_count = acs;
            config.scheduler = holder->scheduler.get();
            holder->rtm = std::make_unique<RunTimeManager>(
                set_, trace_->hot_spots.size(), config);
            h264::seed_default_forecasts(*set_, *holder->rtm);
            return holder;
          },
          name + "@" + std::to_string(acs));
    }
  }
}

TEST_F(ReplayEquivalenceFixture, RtmWithPrefetchEnabled) {
  expect_equivalent(
      *set_, *trace_,
      [&] {
        auto holder = std::make_unique<RtmHolder>();
        holder->scheduler = make_scheduler("HEF");
        RtmConfig config;
        config.container_count = 12;
        config.scheduler = holder->scheduler.get();
        config.enable_prefetch = true;
        holder->rtm =
            std::make_unique<RunTimeManager>(set_, trace_->hot_spots.size(), config);
        h264::seed_default_forecasts(*set_, *holder->rtm);
        return holder;
      },
      "HEF@12+prefetch");
}

TEST_F(ReplayEquivalenceFixture, RtmOracleForecastAndPaybackDisabled) {
  expect_equivalent(
      *set_, *trace_,
      [&] {
        auto holder = std::make_unique<RtmHolder>();
        holder->scheduler = make_scheduler("ASF");
        RtmConfig config;
        config.container_count = 10;
        config.scheduler = holder->scheduler.get();
        config.forecast_mode = ForecastMode::kOracle;
        config.payback_horizon = 0;
        holder->rtm =
            std::make_unique<RunTimeManager>(set_, trace_->hot_spots.size(), config);
        h264::seed_default_forecasts(*set_, *holder->rtm);
        return holder;
      },
      "ASF@10+oracle+horizon0");
}

TEST_F(ReplayEquivalenceFixture, MolenBaseline) {
  expect_h264_baseline_equivalent(LoadPolicy::kPrefetch);
}

TEST_F(ReplayEquivalenceFixture, OneChipBaseline) {
  expect_h264_baseline_equivalent(LoadPolicy::kDemand);
}

TEST_F(ReplayEquivalenceFixture, SoftwareOnlyBaseline) {
  expect_equivalent(*set_, *trace_,
                    [&] { return std::make_unique<SoftwareOnlyBackend>(set_); },
                    "SoftwareOnly");
}

TEST_F(ReplayEquivalenceFixture, StaticAsipBaseline) {
  expect_equivalent(*set_, *trace_,
                    [&] { return std::make_unique<StaticAsipBackend>(set_); },
                    "StaticASIP");
}

// The decision cache (DESIGN §6.2) replays memoized selection+schedule
// results; its key covers everything the decision reads, so a cached run
// must be bit-exact against an uncached one — every simulated number, every
// stats bucket — while actually serving hits on a steady-state workload.
TEST_F(ReplayEquivalenceFixture, DecisionCacheIsBitExactAndEffective) {
  const auto run_with_cache = [&](bool cache_on, RunTimeManager** rtm_out,
                                  SimStats* stats) {
    static HefScheduler hef;  // stateless; shared across calls is fine
    RtmConfig config;
    config.container_count = 10;
    config.scheduler = &hef;
    config.enable_prefetch = true;  // the prefetch path shares the cache
    config.enable_decision_cache = cache_on;
    // Static seeds keep the forecast constant, so decisions repeat as soon
    // as atom residency reaches its steady state — the cache serves real
    // hits even in this short 8-frame run. (Under kMonitored the forecast
    // converges too, but only over more frames than a unit test should pay
    // for; bench/table3_scheduler_cost reports the monitored hit rate.)
    config.forecast_mode = ForecastMode::kStaticSeeds;
    auto rtm = std::make_unique<RunTimeManager>(set_, trace_->hot_spots.size(), config);
    h264::seed_default_forecasts(*set_, *rtm);
    const SimResult result = run_trace(*trace_, *rtm, stats);
    if (rtm_out) *rtm_out = rtm.release();  // caller inspects counters
    return result;
  };

  SimStats cached_stats(set_->si_count()), uncached_stats(set_->si_count());
  RunTimeManager* cached_rtm = nullptr;
  const SimResult cached = run_with_cache(true, &cached_rtm, &cached_stats);
  std::unique_ptr<RunTimeManager> cached_owner(cached_rtm);
  const SimResult uncached = run_with_cache(false, nullptr, &uncached_stats);

  EXPECT_EQ(cached.total_cycles, uncached.total_cycles);
  EXPECT_EQ(cached.si_executions, uncached.si_executions);
  EXPECT_EQ(cached.atom_loads, uncached.atom_loads);
  EXPECT_EQ(cached.hot_spot_cycles, uncached.hot_spot_cycles);
  for (SiId si = 0; si < set_->si_count(); ++si) {
    EXPECT_EQ(cached_stats.executions(si), uncached_stats.executions(si)) << "si " << si;
    const auto& ct = cached_stats.latency_timeline(si);
    const auto& ut = uncached_stats.latency_timeline(si);
    ASSERT_EQ(ct.size(), ut.size()) << "si " << si;
    for (std::size_t p = 0; p < ct.size(); ++p) {
      EXPECT_EQ(ct[p].at, ut[p].at) << "si " << si << " point " << p;
      EXPECT_EQ(ct[p].latency, ut[p].latency) << "si " << si << " point " << p;
    }
  }

  // Monitored forecasts converge after warm-up, so a multi-frame replay must
  // reach a steady state of pure cache hits — not just a token few.
  EXPECT_GT(cached_rtm->decision_cache_hits(), cached_rtm->decision_cache_misses());
  EXPECT_GT(cached_rtm->decision_cache_hits(), 0u);
}

// --- the JPEG workload: same matrix, different SI shapes -------------------

TEST_F(ReplayEquivalenceFixture, JpegRtmAllSchedulersAllBudgets) {
  for (const auto& name : scheduler_names()) {
    for (const unsigned acs : {4u, 8u, 14u}) {
      expect_equivalent(
          *jpeg_set_, *jpeg_trace_,
          [&] {
            auto holder = std::make_unique<RtmHolder>();
            holder->scheduler = make_scheduler(name);
            RtmConfig config;
            config.container_count = acs;
            config.scheduler = holder->scheduler.get();
            holder->rtm = std::make_unique<RunTimeManager>(
                jpeg_set_, jpeg_trace_->hot_spots.size(), config);
            jpeg::seed_jpeg_forecasts(*jpeg_set_, *holder->rtm);
            return holder;
          },
          "jpeg:" + name + "@" + std::to_string(acs));
    }
  }
}

TEST_F(ReplayEquivalenceFixture, JpegMolenBaseline) {
  expect_jpeg_baseline_equivalent(LoadPolicy::kPrefetch);
}

TEST_F(ReplayEquivalenceFixture, JpegOneChipBaseline) {
  expect_jpeg_baseline_equivalent(LoadPolicy::kDemand);
}

TEST_F(ReplayEquivalenceFixture, JpegSoftwareOnlyBaseline) {
  expect_equivalent(*jpeg_set_, *jpeg_trace_,
                    [&] { return std::make_unique<SoftwareOnlyBackend>(jpeg_set_); },
                    "jpeg:SoftwareOnly");
}

TEST_F(ReplayEquivalenceFixture, JpegStaticAsipBaseline) {
  expect_equivalent(*jpeg_set_, *jpeg_trace_,
                    [&] { return std::make_unique<StaticAsipBackend>(jpeg_set_); },
                    "jpeg:StaticASIP");
}

// The runs are the trace's only record of each SI stream, and they are
// maximal: nonempty, no two adjacent runs of one SI, and their counts sum to
// the instance's execution count. Maximal RLE is canonical, so two traces
// with equal runs replay equal SI streams.
TEST_F(ReplayEquivalenceFixture, TraceRunsAreMaximal) {
  for (const WorkloadTrace* trace : {trace_, jpeg_trace_}) {
    for (const HotSpotInstance& inst : trace->instances) {
      std::uint64_t executions = 0;
      for (std::size_t i = 0; i < inst.runs.size(); ++i) {
        ASSERT_GT(inst.runs[i].count, 0u);
        if (i > 0) {
          EXPECT_NE(inst.runs[i - 1].si, inst.runs[i].si);
        }
        executions += inst.runs[i].count;
      }
      EXPECT_EQ(executions, inst.execution_count());
    }
  }
}

// --- window edges: the shared window core over random run arrays ----------

/// A random trace over `si_count` SIs: one hot spot per entry of `ks` with
/// that many SIs and a per-execution overhead below `max_overhead`,
/// instances of 1..150 runs (some exactly one or two blocks long) whose
/// counts mix singletons with long runs.
WorkloadTrace random_trace(std::uint64_t seed, std::size_t si_count,
                           const std::vector<std::size_t>& ks, Cycles max_overhead = 4) {
  Xoshiro256 rng(seed);
  WorkloadTrace trace;
  for (const std::size_t k : ks) {
    std::vector<SiId> all(si_count);
    for (std::size_t si = 0; si < si_count; ++si) all[si] = static_cast<SiId>(si);
    for (std::size_t j = 0; j < k; ++j)
      std::swap(all[j], all[j + rng.bounded(si_count - j)]);
    trace.hot_spots.push_back(HotSpotInfo{"hs" + std::to_string(k),
                                          std::vector<SiId>(all.begin(), all.begin() + k),
                                          rng.bounded(max_overhead)});
  }
  const std::size_t block = RunIndex::kBlockRuns;
  const std::vector<std::size_t> lengths = {1, block - 1, block, block + 1, 2 * block};
  for (int i = 0; i < 24; ++i) {
    HotSpotInstance inst;
    inst.hot_spot = static_cast<HotSpotId>(rng.bounded(ks.size()));
    inst.entry_overhead = rng.bounded(2000);
    const std::vector<SiId>& sis = trace.hot_spots[inst.hot_spot].sis;
    const std::size_t runs =
        i < static_cast<int>(lengths.size()) ? lengths[i] : 1 + rng.bounded(150);
    std::size_t last = sis.size();
    for (std::size_t r = 0; r < runs; ++r) {
      std::size_t pick = rng.bounded(sis.size());
      if (sis.size() > 1 && pick == last) pick = (pick + 1) % sis.size();
      last = pick;
      const std::uint64_t roll = rng.bounded(10);
      const std::uint64_t count =
          roll < 4 ? 1 : roll < 8 ? 2 + rng.bounded(8) : 20 + rng.bounded(400);
      inst.append(sis[pick], count);
    }
    trace.instances.push_back(std::move(inst));
  }
  trace.index_runs();
  return trace;
}

/// The replay paths the window core must keep bit-exact.
enum class Path { kScalar, kRuns, kIndexedSpan, kUnindexedSpan };

/// Replays one instance through `path` (the body of replay_instance, spelled
/// out so the span can be handed a copy of the runs).
Cycles replay_through(const WorkloadTrace& trace, std::size_t idx, ExecutionBackend& backend,
                      Cycles now, Path path) {
  const HotSpotInstance& inst = trace.instances[idx];
  const Cycles overhead = trace.hot_spots[inst.hot_spot].per_execution_overhead;
  now += inst.entry_overhead;
  backend.on_hot_spot_entry(trace, idx, now);
  switch (path) {
    case Path::kScalar:
      for (const SiRun& run : inst.runs)
        for (std::uint32_t k = 0; k < run.count; ++k)
          now += backend.si_execution_latency(run.si, now) + overhead;
      break;
    case Path::kRuns: {
      std::vector<LatencySegment> segments;
      for (const SiRun& run : inst.runs)
        now += backend.si_execution_run_latency(run.si, run.count, now, overhead, segments) +
               run.count * overhead;
      break;
    }
    case Path::kIndexedSpan:
      now = backend.si_execution_span(inst.runs, now, overhead);
      break;
    case Path::kUnindexedSpan: {
      const std::vector<SiRun> copy = inst.runs;  // not the bound instance's array
      now = backend.si_execution_span(copy, now, overhead);
      break;
    }
  }
  backend.on_hot_spot_exit(now);
  return now;
}

/// Each instance's exit cycle, replaying the whole trace through `path`.
std::vector<Cycles> instance_exits(const WorkloadTrace& trace, ExecutionBackend& backend,
                                   Path path) {
  std::vector<Cycles> exits;
  Cycles now = 0;
  for (std::size_t idx = 0; idx < trace.instances.size(); ++idx)
    exits.push_back(now = replay_through(trace, idx, backend, now, path));
  return exits;
}

constexpr Path kAllPaths[] = {Path::kScalar, Path::kRuns, Path::kIndexedSpan,
                              Path::kUnindexedSpan};

/// A backend whose port events are a script: window w ends at ends[w], after
/// the last one no event is pending. Latencies and stamps change with the
/// window index, so an execution counted into the wrong window moves the
/// clock. With `demand`, an SI's first execution per instance (its demand
/// request, as in OneChip) lowers its latency and so must open a window.
class ScriptedBackend final : public WindowedBackend {
 public:
  ScriptedBackend(std::size_t si_count, std::size_t hot_spots, std::vector<Cycles> ends,
                  bool demand)
      : WindowedBackend(si_count, monitor_, lru_),
        monitor_(hot_spots, si_count),
        lru_(si_count, 0),
        ends_(std::move(ends)),
        demand_(demand),
        latency_(si_count, 0),
        stamp_(si_count, nullptr),
        unrequested_(si_count, 0) {
    for (std::size_t si = 0; si < si_count; ++si)
      atoms_.push_back(Molecule::unit(si_count, static_cast<AtomTypeId>(si)));
  }

  std::string_view name() const override { return "Scripted"; }
  void on_hot_spot_entry(const WorkloadTrace& trace, std::size_t instance, Cycles) override {
    const HotSpotId hs = trace.instances[instance].hot_spot;
    bind_instance(trace.instances[instance], trace.hot_spots[hs]);
    monitor_.begin_hot_spot(hs);
    if (demand_) std::fill(unrequested_.begin(), unrequested_.end(), 1);
  }
  void on_hot_spot_exit(Cycles now) override {
    monitor_.end_hot_spot();
    exits.push_back(now);
  }
  Cycles si_execution_latency(SiId si, Cycles now) override {
    advance(now, si);
    starts.push_back(now);
    monitor_.record_execution(si);
    if (stamp_[si] != nullptr) lru_[si] = now;
    return latency_[si];
  }

  std::vector<Cycles> starts;  // every scalar execution's start cycle
  std::vector<Cycles> exits;   // every instance's exit cycle
  const ExecutionMonitor& monitor() const { return monitor_; }
  const std::vector<Cycles>& lru() const { return lru_; }

 private:
  PortWindow open_window(Cycles now, SiId next) override {
    advance(now, next);
    std::optional<Cycles> end;
    if (window_ < ends_.size()) end = ends_[window_];
    return PortWindow{end, latency_.data(), stamp_.data(),
                      demand_ ? unrequested_.data() : nullptr};
  }
  void advance(Cycles now, SiId next) {
    while (window_ < ends_.size() && ends_[window_] <= now) ++window_;
    unrequested_[next] = 0;
    for (std::size_t si = 0; si < latency_.size(); ++si) {
      // Every fourth SI takes zero cycles in a window: with no overhead its
      // executions share one start cycle, which may be the window's end.
      latency_[si] = (window_ * 7 + si * 3) % 4 + (demand_ && unrequested_[si] ? 5 : 0);
      stamp_[si] = (window_ + si) % 3 != 0 ? &atoms_[si] : nullptr;
    }
  }

  ExecutionMonitor monitor_;
  std::vector<Cycles> lru_;
  std::vector<Cycles> ends_;
  bool demand_;
  std::size_t window_ = 0;
  std::vector<Cycles> latency_;
  std::vector<const Molecule*> stamp_;
  std::vector<std::uint8_t> unrequested_;
  std::vector<Molecule> atoms_;
};

/// Builds a script of window ends that land exactly on block boundaries, on
/// run boundaries, inside runs and on instance exits, each possibly one
/// cycle off. Ends are
/// added one at a time: a scalar probe replays under the ends so far (times
/// before the last end do not depend on later ones) and the next end is
/// placed on a start cycle it observed.
std::vector<Cycles> edge_script(const WorkloadTrace& trace, std::size_t si_count, bool demand,
                                std::uint64_t seed) {
  // Flat execution index of every run's first execution, and whether that
  // run opens a block.
  std::vector<std::size_t> run_first;
  std::vector<bool> block_start;
  std::vector<std::size_t> run_instance;
  std::vector<std::size_t> instance_end;  // flat index after each instance
  std::size_t flat = 0;
  for (std::size_t i = 0; i < trace.instances.size(); ++i) {
    for (std::size_t r = 0; r < trace.instances[i].runs.size(); ++r) {
      run_first.push_back(flat);
      block_start.push_back(r % RunIndex::kBlockRuns == 0);
      run_instance.push_back(i);
      flat += trace.instances[i].runs[r].count;
    }
    instance_end.push_back(flat);
  }
  Xoshiro256 rng(seed);
  std::vector<Cycles> ends;
  for (int w = 0; w < 60; ++w) {
    ScriptedBackend probe(si_count, trace.hot_spots.size(), ends, demand);
    run_trace(trace, probe, nullptr, ReplayMode::kScalar);
    const Cycles after = ends.empty() ? 0 : ends.back();
    const auto first = std::upper_bound(probe.starts.begin(), probe.starts.end(), after);
    const auto exec = static_cast<std::size_t>(first - probe.starts.begin());
    std::size_t run = static_cast<std::size_t>(
        std::upper_bound(run_first.begin(), run_first.end(), exec) - run_first.begin());
    run += 1 + rng.bounded(70);
    const std::uint64_t kind = rng.bounded(4);
    if (kind == 0)  // the next block boundary
      while (run < run_first.size() && !block_start[run]) ++run;
    if (run >= run_first.size()) break;  // the rest of the trace is one window
    std::size_t target = run_first[run];
    if (kind == 2) {  // inside the run
      const std::size_t next = run + 1 < run_first.size() ? run_first[run + 1] : flat;
      target += rng.bounded(next - target);
    }
    std::size_t exit = run_instance[run];
    if (kind == 3) {
      // Prefer an instance that ends in zero-step executions: they start on
      // its exit cycle, so an end placed there must exclude them.
      for (std::size_t i = exit; i < std::min(exit + 4, instance_end.size()); ++i)
        if (instance_end[i] > 0 && probe.starts[instance_end[i] - 1] == probe.exits[i]) {
          exit = i;
          break;
        }
    }
    const Cycles at = kind == 3 ? probe.exits[exit] : probe.starts[target];
    const Cycles end = at + rng.bounded(3) - 1;  // one cycle off either way
    if (end <= after) continue;
    ends.push_back(end);
  }
  return ends;
}

TEST(WindowEdges, ScriptedWindowsOnBlockAndRunBoundaries) {
  constexpr std::size_t kSis = 40;
  const std::vector<std::vector<std::size_t>> k_sets = {{1, 2, 3, 6}, {32, 33, 5}};
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const bool demand : {false, true}) {
      // Odd seeds drop the per-execution overhead, so zero steps occur.
      const WorkloadTrace trace = random_trace(seed, kSis, k_sets[seed % 2], seed % 2 == 0 ? 4 : 1);
      const std::vector<Cycles> ends = edge_script(trace, kSis, demand, seed * 31);
      SCOPED_TRACE("seed " + std::to_string(seed) + (demand ? " demand" : "") + ", " +
                   std::to_string(ends.size()) + " scripted windows");
      ASSERT_GT(ends.size(), 10u);
      // Exit cycles, LRU stamps and per hot spot the forecast and last
      // measured counts, as the scalar path leaves them.
      std::optional<std::vector<std::vector<std::uint64_t>>> reference;
      for (const Path path : kAllPaths) {
        ScriptedBackend backend(kSis, trace.hot_spots.size(), ends, demand);
        std::vector<std::vector<std::uint64_t>> observed = {
            instance_exits(trace, backend, path), backend.lru()};
        for (HotSpotId hs = 0; hs < trace.hot_spots.size(); ++hs) {
          observed.push_back(backend.monitor().forecast(hs));
          observed.push_back(backend.monitor().last_measured(hs));
        }
        if (!reference)
          reference = std::move(observed);
        else
          EXPECT_EQ(*reference, observed) << "path " << static_cast<int>(path);
      }
    }
  }
}

/// The real backends over random run arrays: every path bit-exact.
template <typename MakeBackend>
void expect_paths_agree(const WorkloadTrace& trace, MakeBackend&& make_backend,
                        const std::string& label) {
  SCOPED_TRACE(label);
  std::optional<std::vector<Cycles>> exits;
  std::uint64_t loads = 0;
  for (const Path path : kAllPaths) {
    auto backend = make_backend();
    const std::vector<Cycles> got = instance_exits(trace, *backend, path);
    if (!exits) {
      exits = got;
      loads = backend->completed_loads();
      continue;
    }
    EXPECT_EQ(*exits, got) << "path " << static_cast<int>(path);
    EXPECT_EQ(loads, backend->completed_loads()) << "path " << static_cast<int>(path);
  }
  EXPECT_GT(loads, 0u);  // the port was busy: windows really were bounded
}

TEST_F(ReplayEquivalenceFixture, WindowEdgesRandomRunsEveryBackend) {
  const std::size_t si_count = set_->si_count();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const WorkloadTrace trace =
        random_trace(seed, si_count, {1, 2, 3, std::min<std::size_t>(6, si_count)});
    const auto seed_all = [&](auto& backend) {
      for (HotSpotId hs = 0; hs < trace.hot_spots.size(); ++hs)
        for (const SiId si : trace.hot_spots[hs].sis) backend.seed_forecast(hs, si, 400);
    };
    for (const unsigned acs : {4u, 9u, 16u}) {
      const std::string tag = " seed " + std::to_string(seed) + " @" + std::to_string(acs);
      expect_paths_agree(
          trace,
          [&] {
            auto holder = std::make_unique<RtmHolder>();
            holder->scheduler = make_scheduler("HEF");
            RtmConfig config;
            config.container_count = acs;
            config.scheduler = holder->scheduler.get();
            holder->rtm = std::make_unique<RunTimeManager>(set_, trace.hot_spots.size(), config);
            seed_all(*holder->rtm);
            return holder;
          },
          "RTM" + tag);
      for (const LoadPolicy policy : kLoadPolicies)
        expect_paths_agree(
            trace,
            [&] {
              auto baseline = make_baseline(set_, trace.hot_spots.size(), policy, acs);
              seed_all(*baseline);
              return baseline;
            },
            baseline_name(policy) + tag);
    }
  }
}

// Two tenants contend for one reconfiguration port: a denied tenant's
// windows end at the arbiter's retry hint. Both tenants step instance by
// instance in min-clock order, each path on its own device.
TEST_F(ReplayEquivalenceFixture, WindowEdgesTwoTenantArbiterDenialHints) {
  const std::size_t si_count = set_->si_count();
  const WorkloadTrace traces[2] = {
      random_trace(11, si_count, {2, 3}),
      random_trace(12, si_count, {1, std::min<std::size_t>(6, si_count)})};
  std::optional<std::vector<Cycles>> reference;
  for (const Path path : kAllPaths) {
    SCOPED_TRACE("path " + std::to_string(static_cast<int>(path)));
    ArbiterConfig arb_config;
    arb_config.total_containers = 12;
    FabricArbiter arbiter(arb_config);
    std::unique_ptr<AtomScheduler> schedulers[2];
    std::unique_ptr<RunTimeManager> rtms[2];
    for (std::size_t t = 0; t < 2; ++t) {
      TenantConfig tenant;
      tenant.quota = 6;
      const TenantId id = arbiter.add_tenant(tenant);
      schedulers[t] = make_scheduler(t == 0 ? "HEF" : "SJF");
      RtmConfig config;
      config.scheduler = schedulers[t].get();
      config.arbiter = &arbiter;
      config.tenant = id;
      rtms[t] = std::make_unique<RunTimeManager>(set_, traces[t].hot_spots.size(), config);
      for (HotSpotId hs = 0; hs < traces[t].hot_spots.size(); ++hs)
        for (const SiId si : traces[t].hot_spots[hs].sis) rtms[t]->seed_forecast(hs, si, 400);
    }
    Cycles clocks[2] = {0, 0};
    std::size_t next[2] = {0, 0};
    std::vector<Cycles> exits;
    for (;;) {
      std::size_t pick = 2;
      for (std::size_t t = 0; t < 2; ++t)
        if (next[t] < traces[t].instances.size() && (pick == 2 || clocks[t] < clocks[pick]))
          pick = t;
      if (pick == 2) break;
      clocks[pick] = replay_through(traces[pick], next[pick]++, *rtms[pick], clocks[pick], path);
      exits.push_back(clocks[pick]);
      if (next[pick] == traces[pick].instances.size())
        arbiter.retire_tenant(static_cast<TenantId>(pick));
    }
    exits.push_back(rtms[0]->completed_loads());
    exits.push_back(rtms[1]->completed_loads());
    exits.push_back(arbiter.grants());
    exits.push_back(arbiter.port_wait_cycles());
    if (!reference) {
      reference = exits;
      EXPECT_GT(arbiter.port_wait_cycles(), 0u);  // the tenants did wait on each other
      continue;
    }
    EXPECT_EQ(*reference, exits);
  }
}

// The run index is what lets a window cross blocks in O(k): its checkpoints
// and presence masks must equal a brute-force recount over the runs.
TEST_F(ReplayEquivalenceFixture, RunIndexMatchesBruteForceRecount) {
  const auto check = [](const WorkloadTrace& trace, const std::string& label) {
    SCOPED_TRACE(label);
    constexpr std::size_t kBlock = RunIndex::kBlockRuns;
    for (const HotSpotInstance& inst : trace.instances) {
      const std::vector<SiId>& sis = trace.hot_spots[inst.hot_spot].sis;
      const RunIndex& index = inst.run_index;
      if (sis.size() > RunIndex::kMaxSlots) {
        EXPECT_EQ(index.slots, 0u);
        continue;
      }
      ASSERT_EQ(index.slots, sis.size());
      const std::size_t blocks = (inst.runs.size() + kBlock - 1) / kBlock;
      ASSERT_EQ(index.blocks(), blocks);
      ASSERT_EQ(index.prefix.size(), (blocks + 1) * sis.size());
      for (std::size_t b = 0; b <= blocks; ++b) {
        const std::size_t stop = std::min(b * kBlock, inst.runs.size());
        for (std::size_t j = 0; j < sis.size(); ++j) {
          std::uint64_t count = 0;
          for (std::size_t r = 0; r < stop; ++r)
            if (inst.runs[r].si == sis[j]) count += inst.runs[r].count;
          EXPECT_EQ(index.checkpoint(b)[j], count) << "block " << b << " slot " << j;
        }
        if (b == blocks) continue;
        std::uint32_t mask = 0;
        for (std::size_t r = b * kBlock; r < std::min((b + 1) * kBlock, inst.runs.size()); ++r)
          mask |= std::uint32_t{1}
                  << (std::find(sis.begin(), sis.end(), inst.runs[r].si) - sis.begin());
        EXPECT_EQ(index.present[b], mask) << "block " << b;
      }
    }
  };
  check(*trace_, "h264");
  check(*jpeg_trace_, "jpeg");
  check(random_trace(5, 40, {1, 2, 3, 6}), "random small k");
  check(random_trace(6, 40, {32, 33}), "random k at the mask width");
}

}  // namespace
}  // namespace rispp
