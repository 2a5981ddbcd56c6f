// End-to-end reproduction checks: on a 7-day corpus at reduced volume,
// the qualitative findings of the paper must hold. These are the
// "shape" assertions — who wins, in which direction the effects point —
// not absolute numbers (those are reported by the bench binaries).

#include <gtest/gtest.h>

#include "eval/dataset.h"
#include "eval/load_experiment.h"
#include "eval/resumable_runner.h"
#include "eval/timeout_experiment.h"
#include "stats/descriptive.h"

namespace logmine::eval {
namespace {

class PaperShapeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetConfig config;
    config.simulation.num_days = 7;
    config.simulation.scale = 0.35;
    auto built = BuildDataset(config);
    ASSERT_TRUE(built.ok()) << built.status();
    dataset_ = new Dataset(std::move(built).value());

    auto l3 = RunDaily(*dataset_, Technique(core::L3Config{}));
    ASSERT_TRUE(l3.ok());
    l3_ = new DailyRunResult(std::move(l3).value().result);

    auto l2 = RunDaily(*dataset_, Technique(core::L2Config{}));
    ASSERT_TRUE(l2.ok());
    session_stats_ = l2.value().session_stats;
    l2_ = new DailyRunResult(std::move(l2).value().result);

    core::L1Config l1_config;
    l1_config.minlogs = 15;  // volume-scaled minlogs
    l1_config.test.sample_size = 100;
    auto l1 = RunDaily(*dataset_, Technique(l1_config));
    ASSERT_TRUE(l1.ok());
    l1_ = new DailyRunResult(std::move(l1).value().result);
  }
  static void TearDownTestSuite() {
    delete dataset_;
    delete l1_;
    delete l2_;
    delete l3_;
  }

  static Dataset* dataset_;
  static DailyRunResult* l1_;
  static DailyRunResult* l2_;
  static DailyRunResult* l3_;
  static std::vector<core::SessionBuildStats> session_stats_;
};

Dataset* PaperShapeTest::dataset_ = nullptr;
DailyRunResult* PaperShapeTest::l1_ = nullptr;
DailyRunResult* PaperShapeTest::l2_ = nullptr;
DailyRunResult* PaperShapeTest::l3_ = nullptr;
std::vector<core::SessionBuildStats> PaperShapeTest::session_stats_;

double MedianTpRatio(const DailyRunResult& result) {
  return stats::Median(result.series.TpRatios());
}

TEST_F(PaperShapeTest, PrecisionOrderingL3OverL2OverL1) {
  // §6: "a performance that is proportional to the amount of semantic
  // content of log messages considered".
  const double p1 = MedianTpRatio(*l1_);
  const double p2 = MedianTpRatio(*l2_);
  const double p3 = MedianTpRatio(*l3_);
  EXPECT_GT(p3, p2);
  EXPECT_GT(p3, 0.85);           // paper: [0.93, 0.96]
  EXPECT_GT(p2, 0.5);            // paper: [0.71, 0.78]
  EXPECT_GT(p1, 0.4);            // paper: [0.63, 0.73]
  EXPECT_GT(p3, p1);
}

TEST_F(PaperShapeTest, L3RecallDominates) {
  // L3 detects most true dependencies; L1 detects few (paper: 141-152 of
  // 177 vs 30-46 of 178).
  double l3_recall = 0, l1_recall = 0, l2_recall = 0;
  for (int day = 0; day < 7; ++day) {
    l3_recall += l3_->series.days[static_cast<size_t>(day)].recall();
    l2_recall += l2_->series.days[static_cast<size_t>(day)].recall();
    l1_recall += l1_->series.days[static_cast<size_t>(day)].recall();
  }
  EXPECT_GT(l3_recall, l2_recall);
  EXPECT_GT(l2_recall, l1_recall);
}

TEST_F(PaperShapeTest, MedianTpRatioCisAtPaperLevel) {
  auto ci3 = l3_->TpRatioCi(0.98);
  ASSERT_TRUE(ci3.ok());
  EXPECT_NEAR(ci3.value().coverage, 0.984375, 1e-9);
  EXPECT_GT(ci3.value().lower, 0.8);
  auto ci2 = l2_->TpRatioCi(0.98);
  ASSERT_TRUE(ci2.ok());
  EXPECT_GT(ci2.value().lower, 0.45);
}

TEST_F(PaperShapeTest, WeekendDipInL2AndL3Detections) {
  // Days 4 and 5 (2005-12-10/11) are the weekend.
  auto weekday_mean = [](const DailyRunResult& r) {
    return (r.series.days[0].true_positives +
            r.series.days[1].true_positives +
            r.series.days[2].true_positives +
            r.series.days[3].true_positives +
            r.series.days[6].true_positives) /
           5.0;
  };
  auto weekend_mean = [](const DailyRunResult& r) {
    return (r.series.days[4].true_positives +
            r.series.days[5].true_positives) /
           2.0;
  };
  EXPECT_LT(weekend_mean(*l3_), weekday_mean(*l3_));
  EXPECT_LT(weekend_mean(*l2_), weekday_mean(*l2_));
}

TEST_F(PaperShapeTest, SessionCountsDipOnWeekend) {
  // Paper: ~4000 weekday vs ~1000 weekend sessions.
  const double weekday =
      static_cast<double>(session_stats_[0].num_sessions +
                          session_stats_[1].num_sessions) / 2.0;
  const double weekend =
      static_cast<double>(session_stats_[4].num_sessions +
                          session_stats_[5].num_sessions) / 2.0;
  EXPECT_LT(weekend, 0.6 * weekday);
}

TEST_F(PaperShapeTest, StopPatternsSuppressInvertedDependencies) {
  core::L3Config no_stop;
  no_stop.use_stop_patterns = false;
  auto without = RunDaily(*dataset_, Technique(no_stop));
  ASSERT_TRUE(without.ok());
  auto inverted_count = [&](const core::DependencyModel& model) {
    int count = 0;
    for (const core::NamePair& pair :
         model.Minus(dataset_->reference_services)) {
      auto owner = dataset_->entry_owner.find(pair.second);
      if (owner != dataset_->entry_owner.end() &&
          owner->second == pair.first) {
        ++count;
      }
    }
    return count;
  };
  const int with_patterns = inverted_count(l3_->UnionModel());
  const int without_patterns =
      inverted_count(without.value().result.UnionModel());
  // Paper: 2 with stop patterns vs 24 without.
  EXPECT_LE(with_patterns, 4);
  EXPECT_GE(without_patterns, 15);
  EXPECT_GT(without_patterns, with_patterns);
}

TEST_F(PaperShapeTest, L3UnionErrorBudgetNearPaper) {
  const core::ConfusionCounts union_counts =
      core::Evaluate(l3_->UnionModel(), dataset_->reference_services,
                     dataset_->universe_services);
  // Paper: 161 detected, 19 FP, 16 FN (of ~177). Tolerate scale effects.
  EXPECT_GT(union_counts.true_positives, 140);
  EXPECT_LT(union_counts.false_positives, 30);
  EXPECT_LT(union_counts.false_negatives, 35);
}

TEST_F(PaperShapeTest, TimeoutRaisesPrecisionLowersAbsoluteTps) {
  auto experiment = RunTimeoutExperiment(*dataset_, core::L2Config{},
                                         {300, 600, 800, 1000}, 0.98);
  ASSERT_TRUE(experiment.ok());
  for (const TimeoutRow& row : experiment.value().rows) {
    // Table 2's two one-sided conclusions.
    EXPECT_GT(row.tpr_diff_median, 0.0) << row.timeout;
    EXPECT_LT(row.tp_diff_median, 0.0) << row.timeout;
    // The Wilcoxon p for the ratio differences should reach the paper's
    // 0.0156 region when all 7 days agree in sign.
    EXPECT_LT(row.wilcoxon_p_tpr, 0.1) << row.timeout;
  }
}

TEST_F(PaperShapeTest, LoadHurtsL1MoreThanL2) {
  // Figure 9's qualitative claim at reduced scale: the hourly recall of
  // L1 declines with load while L2's does not decline (the exact CI
  // claims are checked at full volume by bench/fig9_load_influence).
  LoadExperimentConfig config;
  config.l1.minlogs = 12;
  config.l1.num_threads = 0;
  auto result = RunLoadExperiment(*dataset_, config);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().hours.size(), 168u);
  EXPECT_LT(result.value().fit_p1.slope, 0.0);
  EXPECT_LT(result.value().fit_p1.slope_ci_hi, 0.02);
  EXPECT_GT(result.value().fit_p2.slope, result.value().fit_p1.slope);
}

TEST_F(PaperShapeTest, L1ErrorRateOnUnrelatedPairsIsLow) {
  // §4.5: ~2% classification error on the 1253 unrelated pairs.
  for (const core::ConfusionCounts& day : l1_->series.days) {
    EXPECT_LT(day.false_positive_rate(), 0.05);
  }
}

}  // namespace
}  // namespace logmine::eval
