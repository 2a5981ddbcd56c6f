#ifndef LOGMINE_EVAL_TECHNIQUE_H_
#define LOGMINE_EVAL_TECHNIQUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/evaluation.h"
#include "core/l1_activity_miner.h"
#include "core/l2_cooccurrence_miner.h"
#include "core/l3_text_miner.h"
#include "eval/dataset.h"
#include "stats/order_stats_ci.h"
#include "util/result.h"

namespace logmine::eval {

/// Which technique a checkpoint stream belongs to; stored in every
/// snapshot so a file can never be resumed by the wrong sweep.
enum class TechniqueId : uint32_t { kL1 = 1, kL2 = 2, kL3 = 3 };

/// Per-day evaluation of one technique over the whole test period — the
/// machinery behind figures 5, 6 and 8: apply the technique to each day
/// independently, compare to the reference model, and quantify accuracy
/// with the 0.984-level order-statistics CI for the median TP ratio.
struct DailyRunResult {
  core::DailySeries series;
  std::vector<core::DependencyModel> daily_models;

  /// Median CI of the per-day TP ratios at `level` (paper: 0.98 requested,
  /// 0.984 achieved with 7 days).
  Result<stats::MedianCi> TpRatioCi(double level) const;

  /// Union of the daily models (the basis of §4.8's error taxonomy).
  core::DependencyModel UnionModel() const;
};

/// One day's worth of a technique sweep — the checkpointable unit the
/// daily runner (eval/resumable_runner.h) persists.
struct DayOutcome {
  std::string label;
  core::ConfusionCounts counts;
  core::DependencyModel model;
  core::SessionBuildStats session_stats;  ///< L2 only; default elsewhere
};

/// One mining technique of the evaluation as a value: its checkpoint
/// id, its name, the fingerprint of its result-relevant parameters, and
/// how it mines one day. Every runner — the daily runner, the
/// multi-technique sweep and the shard supervisor — goes through this,
/// so a new miner plugs in here once.
class Technique {
 public:
  explicit Technique(core::L1Config config) : config_(config) {}
  explicit Technique(core::L2Config config) : config_(config) {}
  explicit Technique(core::L3Config config) : config_(config) {}

  TechniqueId id() const {
    return static_cast<TechniqueId>(config_.index() + 1);
  }
  /// "l1", "l2" or "l3": the checkpoint subdirectory and journal label.
  std::string_view name() const;
  /// core::ConfigFingerprint of the config (thread counts excluded).
  uint64_t fingerprint() const;
  /// Whether MineDay takes pair ranges of more than one slice (L1 only).
  bool slices_pairs() const { return id() == TechniqueId::kL1; }

  /// Mines day `day` of `dataset` — restricted to `range`'s slice of
  /// the pair universe — and scores the model against the technique's
  /// reference set (application pairs for L1/L2, application→service
  /// for L3). InvalidArgument for a multi-slice range on a technique
  /// that does not slice pairs, OutOfRange for a day outside the
  /// dataset.
  Result<DayOutcome> MineDay(const Dataset& dataset, int day,
                             core::PairRange range = {}) const;

 private:
  std::variant<core::L1Config, core::L2Config, core::L3Config> config_;
};

}  // namespace logmine::eval

#endif  // LOGMINE_EVAL_TECHNIQUE_H_
