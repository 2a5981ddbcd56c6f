// Integration tests of the experiment harness on a reduced corpus:
// 2 days at 30% volume (one weekday-ish pair of days). These check the
// *machinery* (windowing, differencing, regression plumbing); the full
// paper-shape assertions live in tests/integration/paper_shape_test.cc.

#include <sstream>

#include <gtest/gtest.h>

#include "core/agrawal_miner.h"
#include "core/l2_direction.h"
#include "eval/dataset.h"
#include "eval/load_experiment.h"
#include "eval/report.h"
#include "eval/resumable_runner.h"
#include "eval/timeout_experiment.h"
#include "log/slct.h"

namespace logmine::eval {
namespace {

class ExperimentsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetConfig config;
    config.simulation.num_days = 2;
    config.simulation.scale = 0.3;
    auto built = BuildDataset(config);
    ASSERT_TRUE(built.ok()) << built.status();
    dataset_ = new Dataset(std::move(built).value());
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }
  static Dataset* dataset_;
};

Dataset* ExperimentsTest::dataset_ = nullptr;

TEST_F(ExperimentsTest, L3DailyRunnerProducesPerDayCounts) {
  auto result = RunDaily(*dataset_, Technique(core::L3Config{}));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().result.series.days.size(), 2u);
  EXPECT_EQ(result.value().result.series.day_labels[0], "2005-12-06");
  for (const core::ConfusionCounts& day : result.value().result.series.days) {
    EXPECT_GT(day.true_positives, 50);
    EXPECT_GT(day.tp_ratio(), 0.8);  // L3 is precise even at small scale
  }
  EXPECT_GE(result.value().result.UnionModel().size(),
            static_cast<size_t>(
                result.value().result.series.days[0].positives()));
}

TEST_F(ExperimentsTest, L2DailyRunnerReportsSessionStats) {
  auto result = RunDaily(*dataset_, Technique(core::L2Config{}));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().session_stats.size(), 2u);
  for (const core::SessionBuildStats& day : result.value().session_stats) {
    EXPECT_GT(day.num_sessions, 20u);
    EXPECT_GT(day.assigned_fraction, 0.02);
    EXPECT_LT(day.assigned_fraction, 0.2);
  }
}

TEST_F(ExperimentsTest, L1DailyRunnerFindsSomething) {
  core::L1Config config;
  config.minlogs = 20;  // scaled corpus
  auto result = RunDaily(*dataset_, Technique(config));
  ASSERT_TRUE(result.ok());
  for (const core::ConfusionCounts& day : result.value().result.series.days) {
    EXPECT_GT(day.true_positives, 3);
    EXPECT_GT(day.tp_ratio(), 0.45);
  }
}

TEST_F(ExperimentsTest, TpRatioCiNeedsEnoughDays) {
  auto result = RunDaily(*dataset_, Technique(core::L3Config{}));
  ASSERT_TRUE(result.ok());
  // Two days cannot support a 98% order-statistics CI.
  EXPECT_FALSE(result.value().result.TpRatioCi(0.98).ok());
  // A modest level works: [min, max] of 2 days covers 50%.
  EXPECT_TRUE(result.value().result.TpRatioCi(0.4).ok());
}

TEST_F(ExperimentsTest, TimeoutExperimentDifferencesAndSweep) {
  auto experiment = RunTimeoutExperiment(*dataset_, core::L2Config{},
                                         {300, 1000}, 0.4);
  ASSERT_TRUE(experiment.ok());
  ASSERT_EQ(experiment.value().rows.size(), 2u);
  ASSERT_EQ(experiment.value().daily.size(), 3u);  // 2 finite + infinity
  for (const TimeoutRow& row : experiment.value().rows) {
    // Timeouts must not *increase* the absolute TP count.
    EXPECT_LE(row.tp_diff_median, 0.0);
    EXPECT_GE(row.wilcoxon_p_tp, 0.0);
    EXPECT_LE(row.wilcoxon_p_tpr, 1.0);
  }

  auto sweep =
      RunTimeoutSweepOneDay(*dataset_, core::L2Config{}, 1, {100, 1000, 0});
  ASSERT_TRUE(sweep.ok());
  ASSERT_EQ(sweep.value().size(), 3u);
  // A 0.1 s timeout keeps strictly fewer positives than no timeout.
  EXPECT_LT(sweep.value()[0].positives(), sweep.value()[2].positives());
  EXPECT_FALSE(
      RunTimeoutSweepOneDay(*dataset_, core::L2Config{}, 9, {100}).ok());
}

TEST_F(ExperimentsTest, LoadExperimentProducesHourlySeries) {
  LoadExperimentConfig config;
  config.l1.minlogs = 10;
  config.min_realized = 3;
  auto result = RunLoadExperiment(*dataset_, config);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result.value().hours.size(), 24u);
  for (const HourPoint& hour : result.value().hours) {
    EXPECT_GE(hour.p1, 0.0);
    EXPECT_LE(hour.p1, 1.0);
    EXPECT_GE(hour.p2, 0.0);
    EXPECT_LE(hour.p2, 1.0);
    EXPECT_GE(hour.realized, config.min_realized);
    EXPECT_GT(hour.num_logs, 0);
  }
  EXPECT_EQ(result.value().fit_p1.n,
            static_cast<int>(result.value().hours.size()));
  EXPECT_GT(result.value().qq_correlation_p1, 0.8);
}

TEST_F(ExperimentsTest, LoadExperimentHonorsExplicitExclusions) {
  LoadExperimentConfig config;
  config.min_realized = 1;
  config.excluded_apps = {"DPIFormidoc"};
  auto result = RunLoadExperiment(*dataset_, config);
  ASSERT_TRUE(result.ok());
  // No assertion on values — just exercising the exclusion path; the
  // scenario-default path is covered above.
  EXPECT_FALSE(result.value().hours.empty());
}

TEST_F(ExperimentsTest, AgrawalBaselineFindsDependenciesOnCorpus) {
  core::AgrawalConfig config;
  config.minlogs = 10;
  core::AgrawalDelayMiner miner(config);
  auto result = miner.Mine(dataset_->store, dataset_->day_begin(0),
                           dataset_->day_end(0));
  ASSERT_TRUE(result.ok());
  const core::ConfusionCounts counts = core::Evaluate(
      result.value().Dependencies(dataset_->store),
      dataset_->reference_pairs, dataset_->universe_pairs);
  EXPECT_GT(counts.true_positives, 5);
  EXPECT_GT(counts.tp_ratio(), 0.4);
}

TEST_F(ExperimentsTest, DirectionRecoveryBeatsCoinFlipOnCorpus) {
  core::L2CooccurrenceMiner l2{core::L2Config{}};
  auto mined = l2.Mine(dataset_->store, dataset_->store.min_ts(),
                       dataset_->store.max_ts() + 1);
  ASSERT_TRUE(mined.ok());
  std::vector<std::pair<LogStore::SourceId, LogStore::SourceId>> pairs;
  for (const core::L2PairScore& score : mined.value().scored) {
    if (score.dependent) pairs.push_back({score.a, score.b});
  }
  ASSERT_GT(pairs.size(), 10u);

  std::map<core::NamePair, std::string> true_caller;
  for (const sim::InvocationEdge& edge : dataset_->scenario.topology.edges) {
    true_caller[core::MakeUnorderedPair(
        dataset_->scenario.topology.apps[static_cast<size_t>(edge.caller)]
            .name,
        dataset_->scenario.topology.apps[static_cast<size_t>(edge.callee)]
            .name)] =
        dataset_->scenario.topology.apps[static_cast<size_t>(edge.caller)]
            .name;
  }
  core::SessionBuilder builder{core::SessionBuilderConfig{}};
  const auto sessions =
      builder.Build(dataset_->store, dataset_->store.min_ts(),
                    dataset_->store.max_ts() + 1, nullptr);
  core::L2DirectionDetector detector{core::DirectionConfig{}};
  int correct = 0, wrong = 0;
  for (const core::DirectionEstimate& estimate :
       detector.Estimate(sessions, pairs)) {
    if (estimate.direction == core::CallDirection::kUndecided) continue;
    const core::NamePair pair = core::MakeUnorderedPair(
        dataset_->store.source_name(estimate.a),
        dataset_->store.source_name(estimate.b));
    auto truth = true_caller.find(pair);
    if (truth == true_caller.end()) continue;
    const std::string predicted =
        estimate.direction == core::CallDirection::kAToB
            ? std::string(dataset_->store.source_name(estimate.a))
            : std::string(dataset_->store.source_name(estimate.b));
    (predicted == truth->second ? correct : wrong) += 1;
  }
  EXPECT_GT(correct + wrong, 5);
  EXPECT_GT(correct, 2 * wrong);  // far better than a coin flip
}

TEST_F(ExperimentsTest, SlctMinesTemplatesFromTheCorpus) {
  SlctClusterer clusterer(SlctConfig{.support = 20, .max_words = 24});
  auto source = dataset_->store.FindSource("DPIPublication");
  ASSERT_TRUE(source.ok());
  const SlctResult result = clusterer.ClusterSource(
      dataset_->store, source.value(), dataset_->store.min_ts(),
      dataset_->store.max_ts() + 1);
  EXPECT_GT(result.templates.size(), 5u);
  // Templates cover the overwhelming majority of the app's messages.
  EXPECT_LT(static_cast<double>(result.outliers) /
                static_cast<double>(result.messages),
            0.2);
}

TEST_F(ExperimentsTest, ReportHelpersRender) {
  auto result = RunDaily(*dataset_, Technique(core::L3Config{}));
  ASSERT_TRUE(result.ok());
  std::ostringstream os;
  PrintDailyFigure("Figure 8 (test)", result.value().result.series, os);
  EXPECT_NE(os.str().find("Figure 8 (test)"), std::string::npos);
  EXPECT_NE(os.str().find("2005-12-06"), std::string::npos);
  EXPECT_NE(os.str().find('#'), std::string::npos);

  stats::MedianCi ci;
  ci.median = 0.7;
  ci.lower = 0.6;
  ci.upper = 0.8;
  ci.coverage = 0.984375;
  EXPECT_EQ(FormatCi(ci, 2), "0.70 [0.60, 0.80] (level 0.9844)");

  stats::LinearFit fit;
  fit.slope = -0.25;
  fit.slope_ci_lo = -0.3;
  fit.slope_ci_hi = -0.2;
  EXPECT_EQ(FormatSlopeCi(fit, 2), "-0.25 [-0.30, -0.20]");
}

}  // namespace
}  // namespace logmine::eval
