// Resumable evaluation: run the multi-day L1/L2/L3 sweep with
// checkpointing, optionally dying at a named kill point, and resume.
// Run it twice with the same --ckpt dir to watch recovery happen:
//
//   ./resumable_eval --ckpt=/tmp/ckpt --kill=after-checkpoint --at=0
//   ./resumable_eval --ckpt=/tmp/ckpt
//
// The second invocation loads the surviving generations, re-mines only
// what is missing, and finishes with the exact result an uninterrupted
// run would have produced (the crash_recovery integration test asserts
// byte-identity). Other flags: --days=2 --scale=0.1 --seed=7
// --no-l1 (skip the slowest technique).

#include <iostream>

#include "eval/dataset.h"
#include "eval/resumable_runner.h"
#include "simulation/crash_injector.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace logmine;

  CliFlags flags;
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }

  eval::DatasetConfig dataset_config;
  dataset_config.scenario.seed =
      static_cast<uint64_t>(flags.GetInt("seed", 7));
  dataset_config.simulation.seed = dataset_config.scenario.seed + 1;
  dataset_config.simulation.num_days =
      static_cast<int>(flags.GetInt("days", 2));
  dataset_config.simulation.scale = flags.GetDouble("scale", 0.1);
  auto dataset_or = eval::BuildDataset(dataset_config);
  if (!dataset_or.ok()) {
    std::cerr << dataset_or.status() << "\n";
    return 1;
  }
  const eval::Dataset dataset = std::move(dataset_or).value();
  std::cout << "Corpus: " << dataset.store.size() << " logs over "
            << dataset.num_days() << " days\n";

  std::vector<eval::Technique> sweep;
  if (!flags.GetBool("no-l1", false)) {
    core::L1Config l1;
    l1.minlogs = 8;  // support floor scaled to the reduced volume
    sweep.emplace_back(l1);
  }
  sweep.emplace_back(core::L2Config{});
  sweep.emplace_back(core::L3Config{});
  eval::ResumableOptions options;
  options.checkpoint.dir = flags.GetString("ckpt", "");
  if (options.checkpoint.dir.empty()) {
    std::cout << "No --ckpt directory: checkpointing disabled\n";
  }

  // An armed kill point simulates the crash the recovery layer exists
  // for; the process really exits non-zero, like a kill -9 would.
  sim::CrashInjector injector{sim::CrashPlan{}};
  const std::string kill = flags.GetString("kill", "");
  if (!kill.empty()) {
    auto point = sim::KillPointFromName(kill);
    if (!point.ok()) {
      std::cerr << point.status() << "\n";
      return 1;
    }
    injector = sim::CrashInjector(sim::CrashPlan{
        point.value(), static_cast<int>(flags.GetInt("at", 0))});
    options.crash = &injector;
  }

  auto sweep_or = eval::RunSweepResumable(dataset, sweep, options);
  if (!sweep_or.ok()) {
    std::cerr << "sweep died: " << sweep_or.status() << "\n"
              << "rerun with the same --ckpt (and no --kill) to resume\n";
    return 2;
  }
  for (size_t i = 0; i < sweep.size(); ++i) {
    const eval::ResumableDailyResult& run = sweep_or.value()[i];
    const eval::ResumeInfo& resume = run.resume;
    std::cout << sweep[i].name() << ": " << resume.days_loaded
              << " days loaded from checkpoint, " << resume.days_mined
              << " mined now, " << resume.snapshots_written
              << " snapshots written";
    if (resume.generations_discarded > 0) {
      std::cout << ", " << resume.generations_discarded
                << " corrupt generations discarded";
    }
    if (!resume.resumed_from.empty()) {
      std::cout << "\n    resumed from " << resume.resumed_from;
    }
    std::cout << "\n    model: " << run.tracker.ActiveModel().size()
              << " tracked dependencies after "
              << run.tracker.num_observations() << " daily observations\n";
  }
  return 0;
}
