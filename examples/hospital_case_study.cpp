// Full hospital case study: reproduces the paper's §4 evaluation flow in
// one run — generate a week of logs, run each technique per day, print
// the daily figures and the 0.984-level median confidence intervals.
//
//   ./hospital_case_study [--scale=0.5] [--seed=...]

#include <iostream>

#include "eval/dataset.h"
#include "eval/report.h"
#include "eval/resumable_runner.h"
#include "util/cli.h"
#include "util/string_util.h"

int main(int argc, char** argv) {
  using namespace logmine;

  CliFlags flags;
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  eval::DatasetConfig config;
  config.scenario.seed = static_cast<uint64_t>(flags.GetInt("seed", 20051206));
  config.simulation.seed = config.scenario.seed + 1;
  config.simulation.scale = flags.GetDouble("scale", 0.5);
  config.simulation.num_days = 7;

  std::cout << "== Geneva University Hospitals case study (synthetic) ==\n";
  auto dataset_or = eval::BuildDataset(config);
  if (!dataset_or.ok()) {
    std::cerr << dataset_or.status() << "\n";
    return 1;
  }
  const eval::Dataset dataset = std::move(dataset_or).value();
  std::cout << dataset.store.size() << " logs over 7 days; reference: "
            << dataset.reference_pairs.size() << " app pairs of "
            << dataset.universe_pairs << ", "
            << dataset.reference_services.size()
            << " app-service dependencies\n\n";

  // L1: logs as an activity measure.
  core::L1Config l1_config;
  l1_config.minlogs = static_cast<int64_t>(
      std::max(10.0, 30 * config.simulation.scale));
  auto l1 = eval::RunDaily(dataset, eval::Technique(l1_config));
  if (!l1.ok()) {
    std::cerr << l1.status() << "\n";
    return 1;
  }
  eval::PrintDailyFigure("L1 — activity correlation",
                         l1.value().result.series, std::cout);
  if (auto ci = l1.value().result.TpRatioCi(0.98); ci.ok()) {
    std::cout << "median TP ratio " << eval::FormatCi(ci.value(), 2)
              << "\n\n";
  }

  // L2: co-occurrence statistics over user sessions.
  auto l2 = eval::RunDaily(dataset, eval::Technique(core::L2Config{}));
  if (!l2.ok()) {
    std::cerr << l2.status() << "\n";
    return 1;
  }
  eval::PrintDailyFigure("L2 — session co-occurrence (timeout 1s)",
                         l2.value().result.series, std::cout);
  if (auto ci = l2.value().result.TpRatioCi(0.98); ci.ok()) {
    std::cout << "median TP ratio " << eval::FormatCi(ci.value(), 2)
              << "\n\n";
  }

  // L3: free-text citations of the service directory.
  auto l3 = eval::RunDaily(dataset, eval::Technique(core::L3Config{}));
  if (!l3.ok()) {
    std::cerr << l3.status() << "\n";
    return 1;
  }
  eval::PrintDailyFigure("L3 — service-directory citations",
                         l3.value().result.series, std::cout);
  if (auto ci = l3.value().result.TpRatioCi(0.98); ci.ok()) {
    std::cout << "median TP ratio " << eval::FormatCi(ci.value(), 2) << "\n";
  }

  // The paper's §4.10 conclusion.
  std::cout << "\nAs at HUG: L3 is the production-grade solution; L1/L2 "
               "remain useful where no directory exists.\n";
  return 0;
}
