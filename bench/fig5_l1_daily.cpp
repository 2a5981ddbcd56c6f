// Reproduces Figure 5: positive decisions of method L1 per day, split
// into true and false positives, with th_pr = 0.6 and th_s = 0.3
// (minlogs = 100, 24 one-hour slots). The paper finds 30-46 TP and 11-22
// FP per day, a 0.984-level median-TP-ratio CI of [0.63, 0.73], and notes
// L1 detects *more* on the weekend (low load helps it).

#include <iostream>

#include "bench/bench_common.h"
#include "eval/report.h"
#include "eval/resumable_runner.h"
#include "util/string_util.h"

int main(int argc, char** argv) {
  using namespace logmine;
  eval::Dataset dataset = bench::BuildDatasetOrDie(argc, argv);

  core::L1Config config;  // paper defaults: 1h slots, 0.6/0.3
  config.num_threads = 0;  // parallel slots; results are thread-count invariant
  auto run = eval::RunDaily(dataset, eval::Technique(config));
  if (!run.ok()) {
    std::cerr << run.status() << "\n";
    return 1;
  }
  const eval::DailyRunResult& result = run.value().result;
  eval::PrintDailyFigure(
      "Figure 5: positive decisions for L1 (th_pr=0.6, th_s=0.3)",
      result.series, std::cout);

  auto ci = result.TpRatioCi(0.98);
  if (ci.ok()) {
    std::cout << "\nmedian TP ratio: " << eval::FormatCi(ci.value(), 2)
              << "   (paper: [0.63, 0.73] at level 0.984)\n";
  }

  // §4.5 also reports the classification error over *unrelated* pairs
  // (25 FP over 1253 unrelated pairs would be ~2%).
  double worst_fpr = 0;
  for (const core::ConfusionCounts& day : result.series.days) {
    worst_fpr = std::max(worst_fpr, day.false_positive_rate());
  }
  std::cout << "worst per-day error rate on unrelated pairs: "
            << FormatDouble(worst_fpr * 100, 2) << "% (paper: ~2%)\n";
  return 0;
}
