// The per-trace selection memo (select/selection_memo.h): each distinct
// selection is computed once per trace, a memoized selection is exactly
// select_molecules' result, SI sets never share entries, and the memo's
// bounds never change a result.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/metrics.h"
#include "base/parallel.h"
#include "base/prng.h"
#include "baselines/molen.h"
#include "config/h264_platform.h"
#include "config/platform_parser.h"
#include "h264/workload.h"
#include "isa/h264_si_library.h"
#include "rtm/run_time_manager.h"
#include "sched/registry.h"
#include "select/selection.h"
#include "select/selection_memo.h"
#include "sim/executor.h"

namespace rispp {
namespace {

const SpecialInstructionSet& h264_set() {
  static const SpecialInstructionSet set = h264sis::build_h264_si_set();
  return set;
}

/// An 8-frame QCIF trace, generated once.
const WorkloadTrace& qcif_trace() {
  static const WorkloadTrace trace = [] {
    h264::WorkloadConfig config;
    config.frames = 8;
    config.video.width = 176;
    config.video.height = 144;
    return h264::generate_h264_workload(h264_set(), config).trace;
  }();
  return trace;
}

enum class System { kRtm, kMolen, kOneChip };

struct Cell {
  System system;
  std::string scheduler;  // kRtm only
  unsigned acs;
};

/// The fig7/table2 grid in small: the four schedulers and both baselines at
/// several AC counts.
std::vector<Cell> grid() {
  std::vector<Cell> cells;
  for (const unsigned acs : {5u, 9u, 13u, 17u, 21u}) {
    for (const std::string& name : scheduler_names()) cells.push_back({System::kRtm, name, acs});
    cells.push_back({System::kMolen, "", acs});
    cells.push_back({System::kOneChip, "", acs});
  }
  return cells;
}

SimResult run_cell(const SpecialInstructionSet& set, const WorkloadTrace& trace,
                   const Cell& cell) {
  if (cell.system == System::kRtm) {
    const auto scheduler = make_scheduler(cell.scheduler);
    RtmConfig config;
    config.container_count = cell.acs;
    config.scheduler = scheduler.get();
    RunTimeManager rtm(&set, trace.hot_spots.size(), config);
    h264::seed_default_forecasts(set, rtm);
    return run_trace(trace, rtm);
  }
  SingleImplConfig config;
  config.container_count = cell.acs;
  SingleImplBackend backend(&set, trace.hot_spots.size(), config,
                            cell.system == System::kMolen ? LoadPolicy::kPrefetch
                                                          : LoadPolicy::kDemand);
  h264::seed_default_forecasts(set, backend);
  return run_trace(trace, backend);
}

bool same(const SimResult& a, const SimResult& b) {
  return a.total_cycles == b.total_cycles && a.si_executions == b.si_executions &&
         a.atom_loads == b.atom_loads && a.hot_spot_cycles == b.hot_spot_cycles;
}

std::vector<SiRef> reference(const SpecialInstructionSet& set, const std::vector<SiId>& sis,
                             const std::vector<std::uint64_t>& forecast, unsigned budget) {
  SelectionRequest request;
  request.set = &set;
  request.hot_spot_sis = sis;
  request.expected_executions = forecast;
  request.container_count = budget;
  return select_molecules(request);
}

TEST(SelectionMemo, ComputesEachDistinctKeyOnceAtAnyThreadCount) {
  const std::vector<Cell> cells = grid();
  MetricCounter& computed_metric = metric_counter("select.computed");
  MetricCounter& decision_misses = metric_counter("rtm.decision_cache.misses");
  std::vector<SimResult> first;
  std::uint64_t first_computed = 0;
  for (const unsigned threads : {1u, 2u, 4u}) {
    const WorkloadTrace trace = qcif_trace();  // a copy: its memo starts empty
    ThreadPool pool(threads);
    std::vector<SimResult> results(cells.size());
    const std::uint64_t metric_before = computed_metric.value();
    const std::uint64_t misses_before = decision_misses.value();
    pool.parallel_for(cells.size(),
                      [&](std::size_t i) { results[i] = run_cell(h264_set(), trace, cells[i]); });
    const SelectionMemo& memo = trace.selection_memo();
    // Under its bounds the memo computes each key once: as many computations
    // as stored entries.
    EXPECT_EQ(memo.computed(), memo.size()) << threads << " threads";
    EXPECT_EQ(computed_metric.value() - metric_before, memo.computed()) << threads << " threads";
    if (first.empty()) {
      first = results;
      first_computed = memo.computed();
      // Every RTM decision miss and every baseline hot-spot entry asks for a
      // selection: far more requests than there are keys.
      std::uint64_t requests = decision_misses.value() - misses_before;
      for (const Cell& cell : cells)
        if (cell.system != System::kRtm) requests += trace.instances.size();
      EXPECT_GT(first_computed, 0u);
      EXPECT_GT(requests, 3 * first_computed) << requests << " requests";
      continue;
    }
    EXPECT_EQ(memo.computed(), first_computed) << threads << " threads";
    for (std::size_t i = 0; i < cells.size(); ++i)
      EXPECT_TRUE(same(results[i], first[i])) << "cell " << i << ", " << threads << " threads";
  }
}

TEST(SelectionMemo, MemoizedSelectionsEqualSelectMolecules) {
  const SpecialInstructionSet& set = h264_set();
  const std::vector<SiId> hot_spots[] = {
      {set.find(h264sis::kSad).value(), set.find(h264sis::kSatd).value()},
      {set.find(h264sis::kDct).value(), set.find(h264sis::kHt4x4).value(),
       set.find(h264sis::kMc).value(), set.find(h264sis::kIpredHdc).value()},
  };
  SelectionMemo memo;
  MemoizedSelection selector(&set, fingerprint(set));
  Xoshiro256 rng(0x6d656d6f);
  std::vector<SiRef> got;
  unsigned calls = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const std::vector<SiId>& sis = hot_spots[rng.bounded(2)];
    // Few forecast levels and budgets, so keys repeat and most calls hit.
    std::vector<std::uint64_t> forecast(set.si_count(), 0);
    for (const SiId si : sis) forecast[si] = 100 * (1 + rng.bounded(2));
    const unsigned budget = static_cast<unsigned>(4 + 2 * rng.bounded(8));
    selector.select(memo, sis, forecast, budget, got);
    ++calls;
    ASSERT_EQ(got, reference(set, sis, forecast, budget)) << "trial " << trial;
  }
  EXPECT_LT(memo.computed(), calls / 2);
  EXPECT_EQ(memo.computed(), memo.size());
}

TEST(SelectionMemo, TwoSiSetsReplayingOneTraceNeverShareAnEntry) {
  // The Table 1 platform with SATD's trap made far slower: same SI ids, a
  // different fingerprint and different selections.
  const SpecialInstructionSet& set = h264_set();
  config::PlatformSpec spec = config::h264_platform_spec();
  const SiId satd = set.find(h264sis::kSatd).value();
  spec.sis[satd].trap_overhead += 40'000;
  const SpecialInstructionSet slow_satd = config::build_platform(spec);
  ASSERT_NE(fingerprint(slow_satd), fingerprint(set));

  // Both sets through one memo, one key at a time, against their own oracle.
  SelectionMemo memo;
  MemoizedSelection a(&set, fingerprint(set));
  MemoizedSelection b(&slow_satd, fingerprint(slow_satd));
  const std::vector<SiId> sis = {set.find(h264sis::kSad).value(), satd};
  bool differ = false;
  std::vector<SiRef> got_a, got_b;
  for (unsigned budget = 0; budget < 24; ++budget) {
    std::vector<std::uint64_t> forecast(set.si_count(), 0);
    forecast[sis[0]] = 80'000;
    forecast[sis[1]] = 500;
    a.select(memo, sis, forecast, budget, got_a);
    b.select(memo, sis, forecast, budget, got_b);
    EXPECT_EQ(got_a, reference(set, sis, forecast, budget)) << budget;
    EXPECT_EQ(got_b, reference(slow_satd, sis, forecast, budget)) << budget;
    differ = differ || got_a != got_b;
  }
  EXPECT_TRUE(differ) << "the two sets must select differently for this test to mean anything";
  EXPECT_EQ(memo.computed(), 48u);  // nothing of one set answered the other

  // Whole replays of one trace: each set's cells give what they give on a
  // trace of their own.
  const WorkloadTrace shared = qcif_trace();
  for (const unsigned acs : {9u, 17u}) {
    for (const Cell& cell : {Cell{System::kRtm, "HEF", acs}, Cell{System::kMolen, "", acs}}) {
      const SimResult on_shared_a = run_cell(set, shared, cell);
      const SimResult on_shared_b = run_cell(slow_satd, shared, cell);
      const WorkloadTrace own_b = qcif_trace();
      EXPECT_TRUE(same(on_shared_b, run_cell(slow_satd, own_b, cell))) << acs;
      const WorkloadTrace own_a = qcif_trace();
      EXPECT_TRUE(same(on_shared_a, run_cell(set, own_a, cell))) << acs;
    }
  }
  EXPECT_NE(shared.selection_memo().table(fingerprint(set)),
            shared.selection_memo().table(fingerprint(slow_satd)));
}

TEST(SelectionMemo, ResultsAreUnchangedPastTheBounds) {
  const SpecialInstructionSet& set = h264_set();
  const std::vector<SiId> sis = {set.find(h264sis::kSad).value(),
                                 set.find(h264sis::kSatd).value()};
  const auto forecast_of = [&](std::size_t k) {
    std::vector<std::uint64_t> forecast(set.si_count(), 0);
    forecast[sis[0]] = 1 + k;
    forecast[sis[1]] = 3 * k % 1000;
    return forecast;
  };

  // Region bound: more distinct keys than one table has room for (a record
  // of this two-SI list takes 6 words).
  SelectionMemo memo;
  MemoizedSelection selector(&set, fingerprint(set));
  const std::size_t keys = SelectionTable::kTableWords / 5;
  std::vector<SiRef> got;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t k = 0; k < keys; ++k) {
      const auto forecast = forecast_of(k);
      const unsigned budget = static_cast<unsigned>(k % 16);
      selector.select(memo, sis, forecast, budget, got);
      ASSERT_EQ(got, reference(set, sis, forecast, budget)) << "pass " << pass << ", key " << k;
    }
  }
  const std::size_t stored = memo.size();
  EXPECT_LT(stored, keys);
  EXPECT_GT(stored, keys / 2);
  // Stored keys computed once; the rest computed on both passes.
  EXPECT_EQ(memo.computed(), stored + 2 * (keys - stored));

  // Table bound: one more SI set than the memo keeps tables for. The first
  // set's table is dropped from the memo, and a selector still bound to it
  // keeps answering exactly.
  std::vector<SpecialInstructionSet> sets;
  for (std::size_t s = 0; s <= SelectionMemo::kTables; ++s) {
    config::PlatformSpec spec = config::h264_platform_spec();
    spec.sis[sis[1]].trap_overhead += 1000 * s;
    sets.push_back(config::build_platform(spec));
  }
  SelectionMemo small;
  std::vector<MemoizedSelection> selectors;
  for (const SpecialInstructionSet& s : sets) selectors.emplace_back(&s, fingerprint(s));
  for (int round = 0; round < 2; ++round) {
    for (std::size_t s = 0; s < sets.size(); ++s) {
      const auto forecast = forecast_of(7);
      selectors[s].select(small, sis, forecast, 12, got);
      ASSERT_EQ(got, reference(sets[s], sis, forecast, 12)) << "set " << s;
    }
  }
  // The memo holds the kTables most recent tables, one entry each; the
  // selector of the dropped one kept its table and answered round 2 from it.
  EXPECT_EQ(small.size(), SelectionMemo::kTables);
  EXPECT_EQ(small.computed(), SelectionMemo::kTables);

  // A dropped table nobody holds is emptied and reused for the next set: it
  // must answer for that set only, never with the entries of the last.
  SelectionMemo reused;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t s = 0; s < sets.size(); ++s) {
      MemoizedSelection selector(&sets[s], fingerprint(sets[s]));
      for (const unsigned budget : {6u, 12u}) {
        const auto forecast = forecast_of(s);
        selector.select(reused, sis, forecast, budget, got);
        ASSERT_EQ(got, reference(sets[s], sis, forecast, budget)) << "set " << s;
      }
    }
  }
  EXPECT_EQ(reused.size(), 2 * SelectionMemo::kTables);
}

TEST(SelectionMemo, TraceCopiesStartEmptyAndMovesKeepTheMemo) {
  WorkloadTrace trace = qcif_trace();
  const SelectionMemo* memo = &trace.selection_memo();
  run_cell(h264_set(), trace, Cell{System::kMolen, "", 12});
  ASSERT_GT(memo->computed(), 0u);

  const WorkloadTrace copy = trace;
  EXPECT_EQ(copy.selection_memo().computed(), 0u);
  EXPECT_NE(&copy.selection_memo(), memo);

  const WorkloadTrace moved = std::move(trace);
  EXPECT_EQ(&moved.selection_memo(), memo);
}

}  // namespace
}  // namespace rispp
