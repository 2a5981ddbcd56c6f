// Unit-level behavior of the daily runner and its checkpoint/resume
// layer on a small corpus. The exhaustive kill-point sweep lives in
// tests/integration/crash_recovery_test.cc.

#include "eval/resumable_runner.h"

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/serialization.h"
#include "eval/dataset.h"
#include "unique_temp_dir.h"

namespace logmine::eval {
namespace {

namespace fs = std::filesystem;

class ResumableRunnerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetConfig config;
    config.simulation.num_days = 2;
    config.simulation.scale = 0.1;
    auto built = BuildDataset(config);
    ASSERT_TRUE(built.ok()) << built.status();
    dataset_ = new Dataset(std::move(built).value());
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  /// L1, L2 and L3, configured for the scaled-down corpus: the
  /// per-technique tests run each of their checks over all three.
  static std::vector<Technique> AllTechniques() {
    core::L1Config l1;
    // 0.1 of production volume: proportionally lower support floor,
    // coarser slots to keep the test fast.
    l1.minlogs = 8;
    l1.slot_length = 2 * kMillisPerHour;
    return {Technique(l1), Technique(core::L2Config{}),
            Technique(core::L3Config{})};
  }

  /// Byte-level fingerprint of a run — the identity the whole layer
  /// guarantees.
  static std::string Bytes(const Technique& technique,
                           const ResumableOptions& options,
                           const ResumableDailyResult& run) {
    return CheckpointBytes(
        technique.id(),
        CheckpointStateHash(technique.fingerprint(), *dataset_,
                            options.tracker),
        dataset_->num_days(), run);
  }

  static Dataset* dataset_;
};

Dataset* ResumableRunnerTest::dataset_ = nullptr;

TEST_F(ResumableRunnerTest, NoCheckpointDirMatchesPlainDailyRunner) {
  for (const Technique& technique : AllTechniques()) {
    SCOPED_TRACE(std::string(technique.name()));
    ResumableOptions plain_options;  // checkpoint.dir empty => disabled
    auto plain = RunDaily(*dataset_, technique, plain_options);
    ASSERT_TRUE(plain.ok()) << plain.status();
    const ResumableDailyResult& run = plain.value();
    EXPECT_EQ(run.resume.days_loaded, 0);
    EXPECT_EQ(run.resume.days_mined, 2);
    EXPECT_EQ(run.resume.snapshots_written, 0);
    EXPECT_EQ(run.resume.resumed_from, "");
    EXPECT_EQ(run.tracker.num_observations(), 2);
    EXPECT_EQ(run.session_stats.size(),
              technique.id() == TechniqueId::kL2 ? 2u : 0u);

    // The plain run is the day-by-day mining, and the checkpointed run
    // produces the very same bytes.
    ASSERT_EQ(run.result.daily_models.size(), 2u);
    for (int day = 0; day < 2; ++day) {
      auto mined = technique.MineDay(*dataset_, day);
      ASSERT_TRUE(mined.ok()) << mined.status();
      EXPECT_EQ(run.result.daily_models[day].pairs(),
                mined.value().model.pairs());
      EXPECT_EQ(run.result.series.days[day].true_positives,
                mined.value().counts.true_positives);
      EXPECT_EQ(run.result.series.days[day].false_positives,
                mined.value().counts.false_positives);
    }
    const test::UniqueTempDir dir;
    ResumableOptions checkpointed_options;
    checkpointed_options.checkpoint.dir = dir.path().string();
    auto checkpointed =
        RunDaily(*dataset_, technique, checkpointed_options);
    ASSERT_TRUE(checkpointed.ok()) << checkpointed.status();
    EXPECT_EQ(checkpointed.value().resume.snapshots_written, 2);
    EXPECT_EQ(Bytes(technique, plain_options, run),
              Bytes(technique, checkpointed_options, checkpointed.value()));
  }
}

TEST_F(ResumableRunnerTest, SecondRunLoadsEverythingAndMinesNothing) {
  for (const Technique& technique : AllTechniques()) {
    SCOPED_TRACE(std::string(technique.name()));
    const test::UniqueTempDir dir;
    ResumableOptions options;
    options.checkpoint.dir = dir.path().string();

    auto first = RunDaily(*dataset_, technique, options);
    ASSERT_TRUE(first.ok()) << first.status();
    EXPECT_EQ(first.value().resume.days_mined, 2);
    EXPECT_EQ(first.value().resume.snapshots_written, 2);

    auto second = RunDaily(*dataset_, technique, options);
    ASSERT_TRUE(second.ok()) << second.status();
    EXPECT_EQ(second.value().resume.days_loaded, 2);
    EXPECT_EQ(second.value().resume.days_mined, 0);
    EXPECT_EQ(second.value().resume.snapshots_written, 0);
    EXPECT_NE(second.value().resume.resumed_from, "");

    EXPECT_EQ(Bytes(technique, options, first.value()),
              Bytes(technique, options, second.value()));
  }
}

TEST_F(ResumableRunnerTest, KeepsOnlyConfiguredGenerations) {
  const test::UniqueTempDir dir;
  ResumableOptions options;
  options.checkpoint.dir = dir.path().string();
  options.checkpoint.keep_generations = 2;

  auto run = RunDaily(*dataset_, Technique(core::L3Config{}), options);
  ASSERT_TRUE(run.ok()) << run.status();
  // 2 days => generations 1 and 2, both within the keep window.
  EXPECT_EQ(dir.FilesOtherThan().size(), 2u);
}

TEST_F(ResumableRunnerTest, ConfigChangeRefusesToResume) {
  core::L3Config config;
  const test::UniqueTempDir dir;
  ResumableOptions options;
  options.checkpoint.dir = dir.path().string();
  ASSERT_TRUE(RunDaily(*dataset_, Technique(config), options).ok());

  config.min_citations += 1;  // result-relevant change
  auto resumed = RunDaily(*dataset_, Technique(config), options);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ResumableRunnerTest, ThreadCountChangeResumesFine) {
  core::L3Config config;
  config.num_threads = 1;
  const test::UniqueTempDir dir;
  ResumableOptions options;
  options.checkpoint.dir = dir.path().string();
  auto first = RunDaily(*dataset_, Technique(config), options);
  ASSERT_TRUE(first.ok());

  config.num_threads = 0;  // excluded from the fingerprint (PR 1 contract)
  auto second = RunDaily(*dataset_, Technique(config), options);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second.value().resume.days_loaded, 2);
}

TEST_F(ResumableRunnerTest, TrackerConfigChangeRefusesToResume) {
  const Technique technique(core::L3Config{});
  const test::UniqueTempDir dir;
  ResumableOptions options;
  options.checkpoint.dir = dir.path().string();
  ASSERT_TRUE(RunDaily(*dataset_, technique, options).ok());

  options.tracker.confirm_after += 1;
  auto resumed = RunDaily(*dataset_, technique, options);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ResumableRunnerTest, TruncatedNewestGenerationFallsBack) {
  const Technique technique(core::L3Config{});
  const test::UniqueTempDir dir;
  ResumableOptions options;
  options.checkpoint.dir = dir.path().string();

  auto reference = RunDaily(*dataset_, technique, options);
  ASSERT_TRUE(reference.ok());

  // Truncate the newest generation in place (simulated torn write that
  // somehow reached the final path).
  const fs::path newest = dir.File("ckpt-000002.snap");
  ASSERT_TRUE(fs::exists(newest));
  const auto full_size = fs::file_size(newest);
  fs::resize_file(newest, full_size / 2);

  auto recovered = RunDaily(*dataset_, technique, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_GE(recovered.value().resume.generations_discarded, 1);
  EXPECT_EQ(recovered.value().resume.days_loaded, 1);  // fell back to gen 1
  EXPECT_EQ(recovered.value().resume.days_mined, 1);   // re-mined day 2
  EXPECT_EQ(Bytes(technique, options, reference.value()),
            Bytes(technique, options, recovered.value()));
}

TEST_F(ResumableRunnerTest, GarbageNewestGenerationFallsBack) {
  const Technique technique(core::L3Config{});
  const test::UniqueTempDir dir;
  ResumableOptions options;
  options.checkpoint.dir = dir.path().string();
  auto reference = RunDaily(*dataset_, technique, options);
  ASSERT_TRUE(reference.ok());

  {
    std::ofstream out(dir.File("ckpt-000099.snap"), std::ios::binary);
    out << "this is not a snapshot";
  }
  auto recovered = RunDaily(*dataset_, technique, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_GE(recovered.value().resume.generations_discarded, 1);
  EXPECT_EQ(recovered.value().resume.days_loaded, 2);
  EXPECT_EQ(Bytes(technique, options, reference.value()),
            Bytes(technique, options, recovered.value()));
}

TEST_F(ResumableRunnerTest, PreCancelledTokenReturnsCancelled) {
  CancelToken cancel;
  cancel.Cancel();
  for (const Technique& technique : AllTechniques()) {
    SCOPED_TRACE(std::string(technique.name()));
    const test::UniqueTempDir dir;
    for (const std::string& checkpoint_dir : {std::string(), dir.File("c")}) {
      ResumableOptions options;
      options.cancel = &cancel;
      options.checkpoint.dir = checkpoint_dir;
      auto run = RunDaily(*dataset_, technique, options);
      ASSERT_FALSE(run.ok());
      EXPECT_EQ(run.status().code(), StatusCode::kCancelled);
    }
  }
}

TEST_F(ResumableRunnerTest, ExpiredDeadlineReturnsDeadlineExceeded) {
  for (const Technique& technique : AllTechniques()) {
    SCOPED_TRACE(std::string(technique.name()));
    const test::UniqueTempDir dir;
    for (const std::string& checkpoint_dir : {std::string(), dir.File("c")}) {
      ResumableOptions options;
      options.deadline_ms = -1;
      options.checkpoint.dir = checkpoint_dir;
      auto run = RunDaily(*dataset_, technique, options);
      ASSERT_FALSE(run.ok());
      EXPECT_EQ(run.status().code(), StatusCode::kDeadlineExceeded);
    }
  }
}

TEST_F(ResumableRunnerTest, CancelledProgressIsCheckpointedAndResumable) {
  // Kill after day 1's checkpoint via the injector, then finish without
  // it: the second run loads day 1 and mines only day 2.
  for (const Technique& technique : AllTechniques()) {
    SCOPED_TRACE(std::string(technique.name()));
    const test::UniqueTempDir dir;
    ResumableOptions options;
    options.checkpoint.dir = dir.path().string();
    sim::CrashInjector injector(
        sim::CrashPlan{sim::KillPoint::kAfterCheckpoint, 0});
    options.crash = &injector;

    auto killed = RunDaily(*dataset_, technique, options);
    ASSERT_FALSE(killed.ok());
    EXPECT_TRUE(injector.fired());
    EXPECT_EQ(killed.status().code(), StatusCode::kInternal);

    options.crash = nullptr;
    auto finished = RunDaily(*dataset_, technique, options);
    ASSERT_TRUE(finished.ok()) << finished.status();
    EXPECT_EQ(finished.value().resume.days_loaded, 1);
    EXPECT_EQ(finished.value().resume.days_mined, 1);

    auto uninterrupted = RunDaily(*dataset_, technique);
    ASSERT_TRUE(uninterrupted.ok());
    EXPECT_EQ(Bytes(technique, options, uninterrupted.value()),
              Bytes(technique, options, finished.value()));
  }
}

TEST_F(ResumableRunnerTest, ObsContextReceivesCheckpointMetricsAndSnapshot) {
  const Technique technique(core::L3Config{});
  const test::UniqueTempDir dir;
  ResumableOptions options;
  options.checkpoint.dir = dir.path().string();
  obs::ObsContext context;
  // The snapshot writer and the day runners report through the global
  // context; install it the way the demo and bench binaries do.
  obs::ScopedGlobalObs scoped(&context);
  options.obs = &context;

  auto first = RunDaily(*dataset_, technique, options);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(first.value().metrics.has_value());
  const obs::MetricsSnapshot& cold = *first.value().metrics;
  EXPECT_EQ(cold.Value("checkpoint.snapshots_written"), 2);
  EXPECT_GT(cold.Value("checkpoint.bytes_written"), 0);
  EXPECT_EQ(cold.Value("checkpoint.snapshots_read"), 0);
  EXPECT_EQ(cold.Value("eval.days_mined"), 2);

  auto second = RunDaily(*dataset_, technique, options);
  ASSERT_TRUE(second.ok()) << second.status();
  ASSERT_TRUE(second.value().metrics.has_value());
  const obs::MetricsSnapshot& warm = *second.value().metrics;
  // The context accumulates across runs; the resume shows up as a read.
  EXPECT_EQ(warm.Value("checkpoint.snapshots_read"), 1);
  EXPECT_GT(warm.Value("checkpoint.bytes_read"), 0);
  EXPECT_EQ(warm.Value("eval.days_mined"), 2);  // nothing re-mined
  EXPECT_EQ(second.value().resume.days_loaded, 2);

  // Observability never leaks into the checkpoint identity.
  EXPECT_EQ(Bytes(technique, options, first.value()),
            Bytes(technique, options, second.value()));
}

TEST_F(ResumableRunnerTest, NoObsContextMeansNoSnapshotAttached) {
  ResumableOptions options;  // obs left null
  auto run = RunDaily(*dataset_, Technique(core::L3Config{}), options);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_FALSE(run.value().metrics.has_value());
}

TEST_F(ResumableRunnerTest, SweepRunsSelectedTechniques) {
  // L1 is the slow one; unit-level skips it.
  const std::vector<Technique> techniques = {Technique(core::L2Config{}),
                                             Technique(core::L3Config{})};
  const test::UniqueTempDir dir;
  ResumableOptions options;
  options.checkpoint.dir = dir.path().string();

  auto sweep = RunSweepResumable(*dataset_, techniques, options);
  ASSERT_TRUE(sweep.ok()) << sweep.status();
  ASSERT_EQ(sweep.value().size(), 2u);
  EXPECT_EQ(sweep.value()[0].resume.days_mined, 2);
  EXPECT_EQ(sweep.value()[0].session_stats.size(), 2u);  // the L2 run
  EXPECT_TRUE(fs::exists(dir.path() / "l2" / "ckpt-000002.snap"));
  EXPECT_TRUE(fs::exists(dir.path() / "l3" / "ckpt-000002.snap"));

  // A re-run loads both techniques wholesale.
  auto again = RunSweepResumable(*dataset_, techniques, options);
  ASSERT_TRUE(again.ok()) << again.status();
  for (const ResumableDailyResult& run : again.value()) {
    EXPECT_EQ(run.resume.days_loaded, 2);
    EXPECT_EQ(run.resume.days_mined, 0);
  }

  // Two runs of one technique would share its checkpoint stream.
  auto twice = RunSweepResumable(
      *dataset_, {Technique(core::L3Config{}), Technique(core::L3Config{})},
      options);
  ASSERT_FALSE(twice.ok());
  EXPECT_EQ(twice.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ResumableRunnerTest, TechniqueIdsNamesAndSlicingAreStable) {
  // The ids are stored in every checkpoint and the names are checkpoint
  // subdirectories: both are on-disk formats.
  const std::vector<Technique> techniques = AllTechniques();
  EXPECT_EQ(static_cast<uint32_t>(techniques[0].id()), 1u);
  EXPECT_EQ(static_cast<uint32_t>(techniques[1].id()), 2u);
  EXPECT_EQ(static_cast<uint32_t>(techniques[2].id()), 3u);
  EXPECT_EQ(techniques[0].name(), "l1");
  EXPECT_EQ(techniques[1].name(), "l2");
  EXPECT_EQ(techniques[2].name(), "l3");
  EXPECT_EQ(Technique(core::L2Config{}).fingerprint(),
            core::ConfigFingerprint(core::L2Config{}));

  // Only L1 slices the pair universe; a day outside the dataset is
  // OutOfRange for every technique.
  for (const Technique& technique : techniques) {
    SCOPED_TRACE(std::string(technique.name()));
    EXPECT_EQ(technique.slices_pairs(), technique.id() == TechniqueId::kL1);
    if (!technique.slices_pairs()) {
      EXPECT_EQ(technique.MineDay(*dataset_, 0, core::PairRange{0, 2})
                    .status()
                    .code(),
                StatusCode::kInvalidArgument);
    }
    EXPECT_EQ(technique.MineDay(*dataset_, 2).status().code(),
              StatusCode::kOutOfRange);
  }
}

}  // namespace
}  // namespace logmine::eval
