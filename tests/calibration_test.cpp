// Paper-shape calibration: asserts the qualitative results of the DATE'08
// evaluation hold in this reproduction (see DESIGN.md §4 for the bands).
//
// Uses a 16-frame CIF prefix of the 140-frame run to keep test time low; the
// bench binaries regenerate the full-length figures.
#include <gtest/gtest.h>

#include "baselines/molen.h"
#include "baselines/software_only.h"
#include "hw/bitstream.h"
#include "h264/workload.h"
#include "isa/h264_si_library.h"
#include "rtm/run_time_manager.h"
#include "sched/registry.h"
#include "sim/executor.h"

namespace rispp {
namespace {

class CalibrationFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    set_ = new SpecialInstructionSet(h264sis::build_h264_si_set());
    h264::WorkloadConfig config;
    config.frames = kFrames;
    trace_ = new WorkloadTrace(h264::generate_h264_workload(*set_, config).trace);
  }
  static void TearDownTestSuite() {
    delete trace_;
    delete set_;
  }

  static Cycles run_scheduler(const std::string& name, unsigned acs) {
    auto sched = make_scheduler(name);
    RtmConfig config;
    config.container_count = acs;
    config.scheduler = sched.get();
    RunTimeManager rtm(set_, 3, config);
    h264::seed_default_forecasts(*set_, rtm);
    return run_trace(*trace_, rtm).total_cycles;
  }

  static Cycles run_baseline(LoadPolicy policy, unsigned acs) {
    SingleImplConfig config;
    config.container_count = acs;
    SingleImplBackend baseline(set_, 3, config, policy);
    h264::seed_default_forecasts(*set_, baseline);
    return run_trace(*trace_, baseline).total_cycles;
  }

  static constexpr int kFrames = 16;
  static SpecialInstructionSet* set_;
  static WorkloadTrace* trace_;
};

SpecialInstructionSet* CalibrationFixture::set_ = nullptr;
WorkloadTrace* CalibrationFixture::trace_ = nullptr;

TEST_F(CalibrationFixture, AverageAtomReconfigurationNearPaper) {
  BitstreamModel model;
  EXPECT_NEAR(model.average_reconfig_us(set_->library()), 874.03, 30.0);
}

TEST_F(CalibrationFixture, SoftwareOnlyScalesToPaperTotal) {
  // Paper: 0 ACs => 7,403M cycles for 140 frames => ~52.9M per frame.
  SoftwareOnlyBackend sw(set_);
  const Cycles total = run_trace(*trace_, sw).total_cycles;
  const double per_frame = static_cast<double>(total) / kFrames;
  EXPECT_GT(per_frame, 40e6);
  EXPECT_LT(per_frame, 65e6);
}

TEST_F(CalibrationFixture, AcceleratedTotalInPaperBand) {
  // Paper Figure 7: HEF at 24 ACs ~200M cycles for 140 frames (~1.4M/frame).
  const Cycles total = run_scheduler("HEF", 24);
  const double per_frame = static_cast<double>(total) / kFrames;
  EXPECT_GT(per_frame, 0.7e6);
  EXPECT_LT(per_frame, 2.5e6);
}

TEST_F(CalibrationFixture, HefNeverMeaningfullySlowerThanOtherSchedulers) {
  // Paper: "it never performed slower than Molen or any of the other
  // schedulers". On this short 16-frame prefix we assert dominance on
  // average and allow bounded per-point scheduling noise (the full-length
  // bench sweep is the tighter check).
  const std::vector<unsigned> budgets{6u, 9u, 12u, 15u, 18u, 21u, 24u};
  std::vector<double> hef;
  for (unsigned acs : budgets)
    hef.push_back(static_cast<double>(run_scheduler("HEF", acs)));
  for (const std::string name : {"ASF", "FSFR", "SJF"}) {
    double hef_sum = 0.0, other_sum = 0.0;
    for (std::size_t i = 0; i < budgets.size(); ++i) {
      const double other = static_cast<double>(run_scheduler(name, budgets[i]));
      EXPECT_LE(hef[i], other * 1.08) << name << " @ " << budgets[i] << " ACs";
      hef_sum += hef[i];
      other_sum += other;
    }
    EXPECT_LE(hef_sum, other_sum) << "HEF worse than " << name << " on average";
  }
  for (std::size_t i = 0; i < budgets.size(); ++i)
    EXPECT_LE(hef[i],
              static_cast<double>(run_baseline(LoadPolicy::kPrefetch, budgets[i])) * 1.02)
        << "Molen @ " << budgets[i];
}

TEST_F(CalibrationFixture, HefVsMolenSpeedupGrowsIntoPaperBand) {
  // Paper Table 2: 1.09x at 5 ACs growing to 2.38x at 24 ACs.
  const double low =
      static_cast<double>(run_baseline(LoadPolicy::kPrefetch, 6)) / run_scheduler("HEF", 6);
  const double high =
      static_cast<double>(run_baseline(LoadPolicy::kPrefetch, 24)) / run_scheduler("HEF", 24);
  EXPECT_LT(low, 1.4);
  EXPECT_GT(high, 1.8);
  EXPECT_LT(high, 3.2);
  EXPECT_GT(high, low);
}

TEST_F(CalibrationFixture, FsfrDipsInTheMidRange) {
  // Paper Figure 7: FSFR degrades in the mid range ("especially FSFR fails
  // here, as it strictly upgrades one SI after the other").
  const Cycles fsfr = run_scheduler("FSFR", 14);
  const Cycles asf = run_scheduler("ASF", 14);
  EXPECT_GT(static_cast<double>(fsfr), static_cast<double>(asf) * 1.1);
}

TEST_F(CalibrationFixture, FsfrRecoversAtHighAcCounts) {
  // Paper: from 17 ACs on FSFR outperforms ASF. In our substrate FSFR's
  // mid-range dip is reproduced and its gap to ASF shrinks again at large
  // budgets; the full crossover only appears with the payback rule disabled
  // (see bench/ablation_payback and EXPERIMENTS.md).
  double worst_mid_gap = 0.0;
  for (unsigned acs : {12u, 14u, 16u}) {
    const double gap = static_cast<double>(run_scheduler("FSFR", acs)) /
                       static_cast<double>(run_scheduler("ASF", acs));
    worst_mid_gap = std::max(worst_mid_gap, gap);
  }
  const double high_gap = static_cast<double>(run_scheduler("FSFR", 24)) /
                          static_cast<double>(run_scheduler("ASF", 24));
  EXPECT_GT(worst_mid_gap, 1.10);     // the Figure 7 mid-range dip exists
  EXPECT_LT(high_gap, worst_mid_gap); // and closes at large budgets
}

TEST_F(CalibrationFixture, SchedulingIrrelevantAtTinyBudgets) {
  // Paper Table 2: HEF vs ASF = 1.00 at 5 ACs — with almost no hardware
  // there is nothing to order.
  const Cycles hef = run_scheduler("HEF", 5);
  const Cycles asf = run_scheduler("ASF", 5);
  EXPECT_NEAR(static_cast<double>(hef) / asf, 1.0, 0.01);
}

}  // namespace
}  // namespace rispp
