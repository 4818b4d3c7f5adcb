//===-- Layers.h - per-layer split of one cold verdict ---------*- C++ -*-===//
///
/// \file
/// The traced run's layer probe. It times each layer from outside the
/// program, through that layer's public entry point only: compileSource,
/// verifyProgram, the CallGraph / Pag / AndersenPta / EscapeAnalysis
/// constructors, LeakChecker::fromProgram and run, renderLeakReport. It
/// then reads the counters the program already returns (the result's
/// Statistics, substrateStats()) by name. Nothing here names CflPta,
/// Summaries or RefinedCallGraph, so those can go without touching the
/// benchmark; their cost lands in `core.substrate_rest_ms`.
///
//===----------------------------------------------------------------------===//

#ifndef LCBENCH_LAYERS_H
#define LCBENCH_LAYERS_H

#include "Util.h"

#include "service/Request.h"

#include <map>
#include <string>
#include <vector>

namespace lcbench {

/// One decomposed cold verdict.
struct LayerSample {
  /// Traced verdict wall: compile + verify + fromProgram + run, with the
  /// standalone layer probes and the render probe excluded.
  double WallMs = 0;
  /// Per-layer metric values (ms, allocation counts, work counters),
  /// keyed by the metric names of BENCHMARK.json.
  std::map<std::string, double> V;
  /// Exact counters for the determinism check (allocation counts, CFL
  /// states, flows-in facts, the report digest).
  std::map<std::string, uint64_t> Exact;
  lc::AnalysisOutcome Outcome;
  /// Reachable statements of the program (the growth ladders' x axis).
  double Stmts = 0;
};

/// Per-loop layer metrics of \p O from the program's own per-result
/// statistics, summed over its loops: the `leak.*` timers and counters, the
/// CFL cache-hit and refuted ratios, and `escape.captured_sites`.
std::map<std::string, double> leakLayer(const lc::AnalysisOutcome &O,
                                        StatReader &Reader);

/// Decomposes one cold verdict of \p Req (source, loops, options).
/// Returns false with \p Why on a compile or verify failure.
bool decompose(const lc::AnalysisRequest &Req, StatReader &Reader,
               LayerSample &Out, std::string &Why);

/// Medians over \p Samples of every metric, plus the median traced wall
/// and the median unattributed time (wall minus the layer sum).
std::map<std::string, double> medianLayers(
    const std::vector<LayerSample> &Samples);

/// The size ledger: fits `frontend.growth_exp` and `callgraph.growth_exp`
/// over the dead-weight ladder (256/512/1024 subsystems) and
/// `leak.match_growth_exp` over the heavy ladder (48/96/192 clusters),
/// each point the median of \p Reps decomposed verdicts.
std::map<std::string, double> growthLedger(unsigned Reps, StatReader &Reader,
                                           RunResult &Result);

} // namespace lcbench

#endif // LCBENCH_LAYERS_H
