#ifndef LOGMINE_EVAL_RESUMABLE_RUNNER_H_
#define LOGMINE_EVAL_RESUMABLE_RUNNER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/model_tracker.h"
#include "eval/technique.h"
#include "obs/obs.h"
#include "simulation/crash_injector.h"
#include "util/retry.h"

namespace logmine::eval {

/// Where and how a resumable sweep persists its progress.
struct CheckpointConfig {
  /// Checkpoint directory; empty disables checkpointing entirely (the
  /// run is then the plain daily run: nothing is read or written).
  std::string dir;
  /// Completed generations kept on disk. Must be >= 2 so that a corrupt
  /// newest generation always has a valid predecessor to fall back to.
  int keep_generations = 2;
  /// Retry policy applied to every checkpoint read/write, so transient
  /// filesystem failures do not abort a multi-day sweep.
  RetryPolicy retry;
};

/// Controls of one daily run. Cancel and deadline checks run at day
/// granularity (the cooperative unit of the sweep): once `cancel` fires
/// or the wall-clock budget is spent, no further day starts and the run
/// returns Cancelled / DeadlineExceeded naming how far it got. A day
/// already mining finishes — no state is ever torn mid-day.
struct ResumableOptions {
  CheckpointConfig checkpoint;
  /// Hysteresis parameters of the ModelTracker fed one observation per
  /// completed day (the paper's moving-landscape device, maintained
  /// incrementally across process restarts).
  core::ModelTrackerConfig tracker;
  const CancelToken* cancel = nullptr;
  /// Wall-clock budget in milliseconds, measured from the call; 0 =
  /// none, and a negative budget has already expired when the run
  /// starts (matching PipelineConfig::deadline_ms). Progress made
  /// before expiry is checkpointed, so a deadline is a pause, not a
  /// loss.
  int64_t deadline_ms = 0;
  /// Test-only kill-point harness; null in production.
  sim::CrashInjector* crash = nullptr;
  /// Observability context, optional. When non-null the run's checkpoint
  /// reads and per-day mining record into it (in addition to any global
  /// context the low layers consult) and the final
  /// `ResumableDailyResult::metrics` carries its merged snapshot.
  obs::ObsContext* obs = nullptr;
};

/// How a resumable run got to its result.
struct ResumeInfo {
  int days_loaded = 0;   ///< days recovered from a checkpoint
  int days_mined = 0;    ///< days mined by this process
  int generations_discarded = 0;  ///< corrupt/truncated/stale snapshots
  int snapshots_written = 0;
  std::string resumed_from;  ///< path of the generation loaded; "" = fresh
};

/// A daily sweep result plus the incremental state that rides along.
struct ResumableDailyResult {
  DailyRunResult result;
  /// One entry per day (L2 sweeps only; empty otherwise).
  std::vector<core::SessionBuildStats> session_stats;
  /// Fed one Observe(model) per completed day, surviving restarts.
  core::ModelTracker tracker{core::ModelTrackerConfig{}};
  ResumeInfo resume;
  /// Merged metrics of `ResumableOptions::obs`, taken after the sweep
  /// finished; absent when no context was provided. Never serialized
  /// into checkpoints (snapshot byte-identity is observability-blind).
  std::optional<obs::MetricsSnapshot> metrics;
};

/// The one sequential daily runner: mines every day of `dataset` with
/// `technique`, in order, feeding the tracker one model per day. With a
/// checkpoint dir the run writes one snapshot generation after every
/// completed day, and on startup scans the dir, discards truncated /
/// corrupt / stale-version generations (falling back to the newest valid
/// one) and resumes from there. A run killed at any instant and
/// restarted produces a final result byte-identical to an uninterrupted
/// run — the property tests/integration/crash_recovery_test.cc asserts
/// for every kill point. A valid checkpoint whose config fingerprint
/// does not match `technique` fails the run with FailedPrecondition:
/// state mined under different parameters is never silently mixed.
Result<ResumableDailyResult> RunDaily(const Dataset& dataset,
                                      const Technique& technique,
                                      const ResumableOptions& options = {});

/// The canonical serialized form of a (possibly partial) sweep — the
/// exact bytes written as a checkpoint generation, and the fingerprint
/// the crash-recovery tests compare for byte-identity. `state_hash`
/// must combine the config and dataset fingerprints (RunDaily uses
/// CheckpointStateHash).
std::string CheckpointBytes(TechniqueId technique, uint64_t state_hash,
                            int num_days, const ResumableDailyResult& run);

/// Combined fingerprint of (miner config, dataset identity, tracker
/// config): a resume refuses checkpoints mined from a different corpus
/// or under different hysteresis thresholds just as it refuses a
/// different miner config.
uint64_t CheckpointStateHash(uint64_t config_fingerprint,
                             const Dataset& dataset,
                             const core::ModelTrackerConfig& tracker);

/// Runs `techniques` in order (the per-day machinery behind figures 5,
/// 6 and 8, run as one restartable unit), each with its own checkpoint
/// stream under `<checkpoint.dir>/<technique name>`, and returns one
/// result per technique in the same order. A re-run after a crash skips
/// completed techniques entirely (their final generation holds every
/// day) and resumes the interrupted one. The kBetweenMiners kill point
/// fires between consecutive techniques (index = number of completed
/// techniques - 1). Two techniques with the same id would share a
/// checkpoint stream and are InvalidArgument.
Result<std::vector<ResumableDailyResult>> RunSweepResumable(
    const Dataset& dataset, const std::vector<Technique>& techniques,
    const ResumableOptions& options);

}  // namespace logmine::eval

#endif  // LOGMINE_EVAL_RESUMABLE_RUNNER_H_
