#include "eval/technique.h"

#include "core/serialization.h"
#include "util/time_util.h"

namespace logmine::eval {

Result<stats::MedianCi> DailyRunResult::TpRatioCi(double level) const {
  return stats::MedianConfidenceInterval(series.TpRatios(), level);
}

core::DependencyModel DailyRunResult::UnionModel() const {
  core::DependencyModel out;
  for (const core::DependencyModel& model : daily_models) {
    out = out.Union(model);
  }
  return out;
}

std::string_view Technique::name() const {
  switch (id()) {
    case TechniqueId::kL1:
      return "l1";
    case TechniqueId::kL2:
      return "l2";
    case TechniqueId::kL3:
      return "l3";
  }
  return "unknown";
}

uint64_t Technique::fingerprint() const {
  return std::visit(
      [](const auto& config) { return core::ConfigFingerprint(config); },
      config_);
}

Result<DayOutcome> Technique::MineDay(const Dataset& dataset, int day,
                                      core::PairRange range) const {
  if (day < 0 || day >= dataset.num_days()) {
    return Status::OutOfRange("day " + std::to_string(day) + " outside [0, " +
                              std::to_string(dataset.num_days()) + ")");
  }
  if (range.count > 1 && !slices_pairs()) {
    return Status::InvalidArgument(std::string(name()) +
                                   " does not slice the pair universe");
  }
  const TimeMs begin = dataset.day_begin(day);
  const TimeMs end = dataset.day_end(day);
  DayOutcome out;
  out.label = FormatDate(begin);
  if (const auto* l1 = std::get_if<core::L1Config>(&config_)) {
    LOGMINE_ASSIGN_OR_RETURN(
        const core::L1Result mined,
        core::L1ActivityMiner(*l1).Mine(dataset.store, begin, end, range));
    out.model = mined.Dependencies(dataset.store);
  } else if (const auto* l2 = std::get_if<core::L2Config>(&config_)) {
    LOGMINE_ASSIGN_OR_RETURN(
        const core::L2Result mined,
        core::L2CooccurrenceMiner(*l2).Mine(dataset.store, begin, end));
    out.session_stats = mined.session_stats;
    out.model = mined.Dependencies(dataset.store);
  } else {
    LOGMINE_ASSIGN_OR_RETURN(
        const core::L3Result mined,
        core::L3TextMiner(dataset.vocabulary, std::get<core::L3Config>(config_))
            .Mine(dataset.store, begin, end));
    out.model = mined.Dependencies(dataset.store, dataset.vocabulary);
  }
  out.counts = id() == TechniqueId::kL3
                   ? core::Evaluate(out.model, dataset.reference_services,
                                    dataset.universe_services)
                   : core::Evaluate(out.model, dataset.reference_pairs,
                                    dataset.universe_pairs);
  return out;
}

}  // namespace logmine::eval
