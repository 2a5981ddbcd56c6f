// The tentpole acceptance property of the checkpoint/recovery layer: a
// multi-technique sweep killed at *every* named kill point — after a day
// is mined, mid-snapshot-write (torn file on disk), after a durable
// checkpoint, and between miners — and then restarted, converges to a
// final result byte-identical to an uninterrupted run. Identity is
// asserted on CheckpointBytes, the exact serialized form the runner
// itself persists, so any drift in models, series rows, session stats
// or tracker state anywhere in the stack fails the test.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/serialization.h"
#include "eval/dataset.h"
#include "eval/resumable_runner.h"
#include "simulation/crash_injector.h"
#include "unique_temp_dir.h"

namespace logmine::eval {
namespace {

class CrashRecoveryTest : public ::testing::Test {
 public:
  static void SetUpTestSuite() {
    DatasetConfig config;
    config.simulation.num_days = 2;
    config.simulation.scale = 0.1;
    auto built = BuildDataset(config);
    ASSERT_TRUE(built.ok()) << built.status();
    dataset_ = new Dataset(std::move(built).value());

    ResumableOptions options;
    const test::UniqueTempDir dir;
    options.checkpoint.dir = dir.path().string();
    auto reference = RunSweepResumable(*dataset_, Techniques(), options);
    ASSERT_TRUE(reference.ok()) << reference.status();
    reference_ =
        new std::vector<ResumableDailyResult>(std::move(reference).value());
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
    delete reference_;
    reference_ = nullptr;
  }

  /// L1, L2 and L3, in TechniqueId order.
  static std::vector<Technique> Techniques() {
    core::L1Config l1;
    // Scaled-down corpus (0.1 of production volume): proportionally
    // lower L1 support floor, coarser slots to keep the test fast.
    l1.minlogs = 8;
    l1.slot_length = 2 * kMillisPerHour;
    return {Technique(l1), Technique(core::L2Config{}),
            Technique(core::L3Config{})};
  }

  /// The serialized form of one technique's run — the byte string whose
  /// equality the recovery contract promises.
  static std::string Bytes(const Technique& technique,
                           const ResumableOptions& options,
                           const ResumableDailyResult& run) {
    return CheckpointBytes(
        technique.id(),
        CheckpointStateHash(technique.fingerprint(), *dataset_,
                            options.tracker),
        dataset_->num_days(), run);
  }

  /// Asserts `sweep` (one run per entry of `techniques`) is
  /// byte-identical to the uninterrupted reference, technique by
  /// technique.
  static void ExpectIdenticalToReference(
      const std::vector<ResumableDailyResult>& sweep,
      const std::vector<Technique>& techniques,
      const ResumableOptions& options, const std::string& context) {
    ASSERT_EQ(sweep.size(), techniques.size()) << context;
    for (size_t i = 0; i < techniques.size(); ++i) {
      const size_t ref = static_cast<size_t>(techniques[i].id()) - 1;
      EXPECT_EQ(Bytes(techniques[i], options, sweep[i]),
                Bytes(techniques[i], options, (*reference_)[ref]))
          << context << ": " << techniques[i].name() << " diverged";
    }
  }

  static Dataset* dataset_;
  static std::vector<ResumableDailyResult>* reference_;
};

Dataset* CrashRecoveryTest::dataset_ = nullptr;
std::vector<ResumableDailyResult>* CrashRecoveryTest::reference_ = nullptr;

/// Kills one sweep at `plan`, asserts the death was the simulated one,
/// reruns without the injector and checks byte-identity.
void KillAndRecover(const Dataset& dataset,
                    const std::vector<Technique>& techniques,
                    sim::CrashPlan plan, ResumableOptions options,
                    const std::string& context,
                    std::vector<ResumableDailyResult>* recovered_out =
                        nullptr) {
  sim::CrashInjector injector(plan);
  options.crash = &injector;
  auto killed = RunSweepResumable(dataset, techniques, options);
  ASSERT_FALSE(killed.ok()) << context << ": injector never reached";
  ASSERT_TRUE(injector.fired()) << context;
  EXPECT_EQ(killed.status().code(), StatusCode::kInternal) << context;
  EXPECT_NE(killed.status().message().find("simulated crash"),
            std::string::npos)
      << context << ": " << killed.status();

  options.crash = nullptr;
  auto recovered = RunSweepResumable(dataset, techniques, options);
  ASSERT_TRUE(recovered.ok()) << context << ": " << recovered.status();
  if (recovered_out != nullptr) *recovered_out = recovered.value();
  CrashRecoveryTest::ExpectIdenticalToReference(recovered.value(), techniques,
                                                options, context);
}

TEST_F(CrashRecoveryTest, EveryKillPointRecoversToIdenticalBytes) {
  // Day-granular kill points fire in the first technique of a sweep, so
  // each technique is swept on its own to be killed at every point.
  for (const Technique& technique : Techniques()) {
    for (const sim::KillPoint point :
         {sim::KillPoint::kAfterDayMined, sim::KillPoint::kMidSnapshotWrite,
          sim::KillPoint::kAfterCheckpoint}) {
      for (int day = 0; day < dataset_->num_days(); ++day) {
        const std::string context = std::string(technique.name()) + " " +
                                    std::string(sim::KillPointName(point)) +
                                    " #" + std::to_string(day);
        ResumableOptions options;
        const test::UniqueTempDir dir;
        options.checkpoint.dir = dir.path().string();
        std::vector<ResumableDailyResult> recovered;
        KillAndRecover(*dataset_, {technique}, sim::CrashPlan{point, day},
                       options, context, &recovered);
        if (HasFatalFailure()) return;
        if (point == sim::KillPoint::kMidSnapshotWrite) {
          // The torn file reached the final checkpoint path; recovery
          // must have discarded it and fallen back (or restarted fresh).
          EXPECT_GE(recovered[0].resume.generations_discarded, 1) << context;
          EXPECT_EQ(recovered[0].resume.days_loaded, day) << context;
        }
      }
    }
  }
}

TEST_F(CrashRecoveryTest, TechniqueBoundaryKillsRecoverToIdenticalBytes) {
  // index = completed techniques - 1: 0 kills after L1, 1 after L2.
  for (int boundary = 0; boundary < 2; ++boundary) {
    const std::string context =
        "between-miners #" + std::to_string(boundary);
    ResumableOptions options;
    const test::UniqueTempDir dir;
    options.checkpoint.dir = dir.path().string();
    std::vector<ResumableDailyResult> recovered;
    KillAndRecover(*dataset_, Techniques(),
                   sim::CrashPlan{sim::KillPoint::kBetweenMiners, boundary},
                   options, context, &recovered);
    if (HasFatalFailure()) return;
    // Techniques finished before the boundary are loaded wholesale.
    for (int i = 0; i <= boundary; ++i) {
      EXPECT_EQ(recovered[i].resume.days_loaded, dataset_->num_days())
          << context;
      EXPECT_EQ(recovered[i].resume.days_mined, 0) << context;
    }
  }
}

TEST_F(CrashRecoveryTest, RandomSeededPlansAllRecover) {
  // The fuzzing entry point of the harness: a handful of seeded random
  // plans, each exactly reproducible from its seed.
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    const sim::CrashPlan plan =
        sim::RandomCrashPlan(&rng, dataset_->num_days(), /*num_techniques=*/3);
    const std::string context = "seed " + std::to_string(seed) + ": " +
                                std::string(sim::KillPointName(plan.point)) +
                                " #" + std::to_string(plan.index);
    ResumableOptions options;
    const test::UniqueTempDir dir;
    options.checkpoint.dir = dir.path().string();
    KillAndRecover(*dataset_, Techniques(), plan, options, context);
    if (HasFatalFailure()) return;
  }
}

TEST_F(CrashRecoveryTest, DoubleCrashStillConverges) {
  // Two successive deaths — one torn write, then a clean kill later —
  // followed by a final recovery.
  ResumableOptions options;
  const test::UniqueTempDir dir;
  options.checkpoint.dir = dir.path().string();
  const std::vector<Technique> techniques = Techniques();

  sim::CrashInjector first(
      sim::CrashPlan{sim::KillPoint::kMidSnapshotWrite, 0});
  options.crash = &first;
  ASSERT_FALSE(RunSweepResumable(*dataset_, techniques, options).ok());
  ASSERT_TRUE(first.fired());

  sim::CrashInjector second(
      sim::CrashPlan{sim::KillPoint::kBetweenMiners, 1});
  options.crash = &second;
  ASSERT_FALSE(RunSweepResumable(*dataset_, techniques, options).ok());
  ASSERT_TRUE(second.fired());

  options.crash = nullptr;
  auto recovered = RunSweepResumable(*dataset_, techniques, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  ExpectIdenticalToReference(recovered.value(), techniques, options,
                             "double crash");
}

}  // namespace
}  // namespace logmine::eval
