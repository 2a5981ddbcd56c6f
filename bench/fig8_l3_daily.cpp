// Reproduces Figure 8 and the §4.8 error analysis: positive decisions of
// method L3 per day with stop patterns, plus the union-over-days false
// negative / false positive taxonomy and the no-stop-pattern ablation.
// Paper: 141-152 TP weekdays (116/117 weekend), 7-11 FP weekdays (5
// weekend), median-TP-ratio CI [0.93, 0.96]; union: 16 FN (6 never
// realized, 7 unlogged, 3 wrong name) and 19 FP (2 inverted, 5
// transitive, 7 coincidence, 5 erroneous id); without stop patterns the
// inverted dependencies rise to ~24.

#include <iostream>

#include "bench/bench_common.h"
#include "eval/report.h"
#include "eval/resumable_runner.h"
#include "util/string_util.h"

int main(int argc, char** argv) {
  using namespace logmine;
  eval::Dataset dataset = bench::BuildDatasetOrDie(argc, argv);

  core::L3Config config;
  auto run = eval::RunDaily(dataset, eval::Technique(config));
  if (!run.ok()) {
    std::cerr << run.status() << "\n";
    return 1;
  }
  const eval::DailyRunResult& result = run.value().result;
  eval::PrintDailyFigure("Figure 8: positive decisions for L3 (stop patterns on)",
                         result.series, std::cout);
  auto ci = result.TpRatioCi(0.98);
  if (ci.ok()) {
    std::cout << "\nmedian TP ratio: " << eval::FormatCi(ci.value(), 2)
              << "   (paper: [0.93, 0.96] at level 0.984)\n";
  }

  // ---- union-over-days error taxonomy (§4.8) -----------------------------
  const core::DependencyModel union_model = result.UnionModel();
  const core::ConfusionCounts union_counts = core::Evaluate(
      union_model, dataset.reference_services, dataset.universe_services);
  std::cout << "\nunion over all days: TP=" << union_counts.true_positives
            << " FP=" << union_counts.false_positives
            << " FN=" << union_counts.false_negatives
            << "  (paper: 161 detected, 19 FP, 16 FN)\n";

  // Attribute the false negatives/positives to the injected defects.
  const auto& topo = dataset.scenario.topology;
  const auto& dir = dataset.scenario.directory;
  auto edge_dep = [&](int e) {
    const auto& edge = topo.edges[static_cast<size_t>(e)];
    return core::NamePair{topo.apps[static_cast<size_t>(edge.caller)].name,
                          dir.entry(static_cast<size_t>(edge.true_entry)).id};
  };
  int fn_unlogged = 0, fn_wrong_name = 0, fn_erroneous = 0, fn_rare = 0,
      fn_other = 0;
  for (const core::NamePair& missing :
       dataset.reference_services.Minus(union_model)) {
    bool attributed = false;
    for (int e : dataset.scenario.defects.unlogged_edges) {
      if (edge_dep(e) == missing) {
        ++fn_unlogged;
        attributed = true;
      }
    }
    for (int e : dataset.scenario.defects.wrong_name_edges) {
      if (edge_dep(e) == missing) {
        ++fn_wrong_name;
        attributed = true;
      }
    }
    for (int e : dataset.scenario.defects.erroneous_id_edges) {
      if (edge_dep(e) == missing) {
        ++fn_erroneous;
        attributed = true;
      }
    }
    for (int e : dataset.scenario.defects.rare_edges) {
      if (edge_dep(e) == missing) {
        ++fn_rare;
        attributed = true;
      }
    }
    if (!attributed) ++fn_other;
  }
  std::cout << "FN taxonomy: never-realized(rare)=" << fn_rare
            << " not-logged=" << fn_unlogged
            << " wrong-name=" << fn_wrong_name
            << " erroneous-id=" << fn_erroneous << " other=" << fn_other
            << "\n   (paper: 6 seldom-used, 7 not logged, 3 wrong name)\n";

  int fp_inverted = 0, fp_coincidence = 0, fp_transitive = 0,
      fp_erroneous = 0, fp_other = 0;
  for (const core::NamePair& extra :
       union_model.Minus(dataset.reference_services)) {
    bool attributed = false;
    // Inverted: the source is the provider of the cited entry.
    auto owner = dataset.entry_owner.find(extra.second);
    if (owner != dataset.entry_owner.end() && owner->second == extra.first) {
      ++fp_inverted;
      attributed = true;
    }
    for (const auto& [app, entry] : dataset.scenario.defects.coincidences) {
      if (topo.apps[static_cast<size_t>(app)].name == extra.first &&
          dir.entry(static_cast<size_t>(entry)).id == extra.second) {
        ++fp_coincidence;
        attributed = true;
      }
    }
    for (int e : dataset.scenario.defects.exception_edges) {
      const auto& edge = topo.edges[static_cast<size_t>(e)];
      if (topo.apps[static_cast<size_t>(edge.caller)].name == extra.first &&
          dir.entry(static_cast<size_t>(edge.exception_deep_entry)).id ==
              extra.second) {
        ++fp_transitive;
        attributed = true;
      }
    }
    for (int e : dataset.scenario.defects.erroneous_id_edges) {
      const auto& edge = topo.edges[static_cast<size_t>(e)];
      if (topo.apps[static_cast<size_t>(edge.caller)].name == extra.first &&
          dir.entry(static_cast<size_t>(edge.cited_entry)).id ==
              extra.second) {
        ++fp_erroneous;
        attributed = true;
      }
    }
    if (!attributed) ++fp_other;
  }
  std::cout << "FP taxonomy: inverted=" << fp_inverted
            << " transitive(exception)=" << fp_transitive
            << " coincidence=" << fp_coincidence
            << " erroneous-id=" << fp_erroneous << " other=" << fp_other
            << "\n   (paper: 2 inverted, 5 transitive, 7 coincidence, 5 "
               "erroneous id)\n";

  // ---- ablation: stop patterns off ---------------------------------------
  core::L3Config no_stop = config;
  no_stop.use_stop_patterns = false;
  auto without = eval::RunDaily(dataset, eval::Technique(no_stop));
  if (without.ok()) {
    const core::DependencyModel union_without =
        without.value().result.UnionModel();
    int inverted_without = 0;
    for (const core::NamePair& extra :
         union_without.Minus(dataset.reference_services)) {
      auto owner = dataset.entry_owner.find(extra.second);
      if (owner != dataset.entry_owner.end() &&
          owner->second == extra.first) {
        ++inverted_without;
      }
    }
    std::cout << "\nwithout stop patterns: inverted dependencies rise from "
              << fp_inverted << " to " << inverted_without
              << "  (paper: 2 -> 24)\n";
  }
  return 0;
}
