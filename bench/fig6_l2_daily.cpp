// Reproduces Figure 6: positive decisions of method L2 per day with a
// 1-second timeout. The paper reports ~4000 sessions per weekday (~1000
// on the weekend), 7.5-11% of logs assigned to a session, 62-74 correct
// dependencies on weekdays (51/52 on the weekend), 19-25 false positives,
// and a 0.984-level median-TP-ratio CI of [0.71, 0.78].

#include <iostream>

#include "bench/bench_common.h"
#include "eval/report.h"
#include "eval/resumable_runner.h"
#include "util/string_util.h"
#include "util/table_printer.h"

int main(int argc, char** argv) {
  using namespace logmine;
  eval::Dataset dataset = bench::BuildDatasetOrDie(argc, argv);

  core::L2Config config;  // timeout = 1 s
  auto run = eval::RunDaily(dataset, eval::Technique(config));
  if (!run.ok()) {
    std::cerr << run.status() << "\n";
    return 1;
  }
  const eval::DailyRunResult& result = run.value().result;
  const std::vector<core::SessionBuildStats>& session_stats =
      run.value().session_stats;
  eval::PrintDailyFigure("Figure 6: positive decisions for L2 (timeout=1s)",
                         result.series, std::cout);

  std::cout << "\nsession creation (paper: ~4000 weekday / ~1000 weekend "
               "sessions, 7.5-11% of logs assigned):\n";
  TablePrinter table({"day", "#sessions", "%assigned"});
  for (size_t day = 0; day < session_stats.size(); ++day) {
    table.AddRow({result.series.day_labels[day],
                  std::to_string(session_stats[day].num_sessions),
                  FormatDouble(session_stats[day].assigned_fraction * 100.0,
                               1)});
  }
  table.Print(std::cout);

  auto ci = result.TpRatioCi(0.98);
  if (ci.ok()) {
    std::cout << "\nmedian TP ratio: " << eval::FormatCi(ci.value(), 2)
              << "   (paper: [0.71, 0.78] at level 0.984)\n";
  }
  return 0;
}
