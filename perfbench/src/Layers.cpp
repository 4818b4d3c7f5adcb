//===-- Layers.cpp --------------------------------------------------------===//

#include "Layers.h"

#include "Generators.h"

#include "callgraph/CallGraph.h"
#include "core/LeakChecker.h"
#include "escape/EscapeAnalysis.h"
#include "frontend/Lower.h"
#include "ir/Verifier.h"
#include "pta/Andersen.h"
#include "pta/Pag.h"
#include "support/MemStats.h"

#include <memory>
#include <tuple>

using namespace lc;

namespace lcbench {

namespace {

/// The `andersen-*` counters substrateStats() carries, as `pta.andersen.*`.
const char *const AndersenCounters[] = {
    "andersen-sccs-collapsed", "andersen-scc-nodes-merged",
    "andersen-online-collapse-passes", "andersen-delta-pushes",
    "andersen-solve-iterations"};

std::string andersenMetric(const std::string &Counter) {
  std::string Name = "pta.andersen." + Counter.substr(9);
  for (char &C : Name)
    if (C == '-')
      C = '_';
  return Name;
}

/// Times one call, reporting its wall milliseconds and allocation delta.
template <typename Fn> double timed(Fn &&F, double &Allocs) {
  uint64_t A0 = mem::heapAllocs();
  Clock::time_point T0 = Clock::now();
  F();
  double Ms = msSince(T0);
  Allocs = double(mem::heapAllocs() - A0);
  return Ms;
}

} // namespace

std::map<std::string, double> leakLayer(const AnalysisOutcome &O,
                                        StatReader &Reader) {
  // (metric, program stat, stat is a timer)
  static const std::tuple<const char *, const char *, bool> Summed[] = {
      {"leak.ms", "leak-analysis", true},
      {"leak.flows_out_ms", "leak-flows-out", true},
      {"leak.flows_in_ms", "leak-flows-in", true},
      {"leak.match_ms", "leak-match", true},
      {"leak.corroboration_ms", "cfl-corroboration", true},
      {"leak.flows_in_facts", "flows-in-facts", false},
      {"leak.inside_stores", "inside-stores", false},
      {"leak.inside_loads", "inside-loads", false},
      {"leak.cfl_states_visited", "cfl-states-visited", false},
      {"escape.captured_sites", "escape-captured-sites", false},
      {"hits", "cfl-cache-hits", false},
      {"misses", "cfl-cache-misses", false},
      {"refuted", "cfl-refuted-value-sites", false},
      {"queries", "cfl-queries", false}};
  std::map<std::string, double> V;
  for (const LeakAnalysisResult &R : O.Results) {
    const Stats &S = R.Statistics;
    for (const auto &[Metric, Stat, IsTimer] : Summed)
      V[Metric] += IsTimer ? Reader.ms(S, Stat) : double(Reader.count(S, Stat));
    // Recorded only when the escape pre-filter actually skipped a query.
    if (S.lookup("cfl-queries-skipped"))
      V["leak.cfl_queries_skipped"] += double(S.get("cfl-queries-skipped"));
  }
  double Hits = V["hits"], Misses = V["misses"], Queries = V["queries"];
  V["leak.cfl_cache_hit_ratio"] =
      Hits + Misses > 0 ? Hits / (Hits + Misses) : 0;
  V["leak.cfl_refuted_ratio"] = Queries > 0 ? V["refuted"] / Queries : 0;
  for (const char *Part : {"hits", "misses", "refuted", "queries"})
    V.erase(Part);
  return V;
}

bool decompose(const AnalysisRequest &Req, StatReader &Reader,
               LayerSample &Out, std::string &Why) {
  std::map<std::string, double> &V = Out.V;
  double Allocs = 0;

  // --- the verdict path, segment by segment --------------------------------
  auto P = std::make_unique<Program>();
  DiagnosticEngine Diags;
  bool Compiled = false;
  V["frontend.ms"] =
      timed([&] { Compiled = compileSource(Req.Source, *P, Diags); }, Allocs);
  V["frontend.allocs"] = Allocs;
  if (!Compiled) {
    Why = "compile error: " + Diags.str();
    return false;
  }
  std::vector<std::string> Problems;
  V["ir.verify_ms"] = timed([&] { Problems = verifyProgram(*P); }, Allocs);
  if (!Problems.empty()) {
    Why = "malformed IR: " + Problems.front();
    return false;
  }

  // --- standalone layer probes (not part of the traced wall) --------------
  {
    std::unique_ptr<CallGraph> CG;
    std::unique_ptr<Pag> G;
    std::unique_ptr<AndersenPta> A;
    std::unique_ptr<EscapeAnalysis> E;
    V["callgraph.ms"] = timed(
        [&] { CG = std::make_unique<CallGraph>(*P, CallGraphKind::Rta); },
        Allocs);
    V["callgraph.allocs"] = Allocs;
    V["callgraph.reachable_methods"] = double(CG->numReachable());
    V["pta.pag_ms"] =
        timed([&] { G = std::make_unique<Pag>(*P, *CG); }, Allocs);
    V["pta.andersen_ms"] =
        timed([&] { A = std::make_unique<AndersenPta>(*G); }, Allocs);
    V["pta.andersen_allocs"] = Allocs;
    V["escape.ms"] =
        timed([&] { E = std::make_unique<EscapeAnalysis>(*P, *CG); }, Allocs);
  }

  std::unique_ptr<LeakChecker> Checker;
  double FromMs = timed(
      [&] {
        Checker =
            LeakChecker::fromProgram(std::move(P), Req.Options.leakOptions());
      },
      Allocs);
  double RunAllocs = 0;
  double RunMs = timed([&] { Out.Outcome = Checker->run(Req); }, RunAllocs);
  Out.WallMs = V["frontend.ms"] + V["ir.verify_ms"] + FromMs + RunMs;
  V["core.substrate_rest_ms"] = FromMs - V["callgraph.ms"] - V["pta.pag_ms"] -
                                V["pta.andersen_ms"] - V["escape.ms"];
  V["core.threads"] = double(processThreads());
  Out.Stmts = double(Checker->reachableStmts());
  for (const char *C : AndersenCounters)
    V[andersenMetric(C)] = double(Reader.count(Checker->substrateStats(), C));

  // --- per-loop layer: the program's own counters and phase timers --------
  for (const auto &[Name, Value] : leakLayer(Out.Outcome, Reader))
    V[Name] = Value;
  V["leak.allocs"] = RunAllocs;
  double Render = 0;
  for (const LeakAnalysisResult &R : Out.Outcome.Results) {
    std::string Text;
    double Unused = 0;
    Render += timed(
        [&] { Text = renderLeakReport(Checker->program(), R); }, Unused);
  }
  V["leak.render_ms"] = Render;

  Out.Exact = {{"report-digest", digestOf(Out.Outcome)},
               {"frontend.allocs", uint64_t(V["frontend.allocs"])},
               {"callgraph.allocs", uint64_t(V["callgraph.allocs"])},
               {"pta.andersen_allocs", uint64_t(V["pta.andersen_allocs"])},
               {"leak.allocs", uint64_t(RunAllocs)},
               {"cfl-states-visited", uint64_t(V["leak.cfl_states_visited"])},
               {"flows-in-facts", uint64_t(V["leak.flows_in_facts"])}};
  return true;
}

std::map<std::string, double>
medianLayers(const std::vector<LayerSample> &Samples) {
  std::map<std::string, std::vector<double>> Cols;
  std::vector<double> Wall, Gap;
  for (const LayerSample &S : Samples) {
    for (const auto &[Name, Value] : S.V)
      Cols[Name].push_back(Value);
    const std::map<std::string, double> &V = S.V;
    // Layer sum: every segment of the verdict path, with fromProgram split
    // into its probed layers plus core.substrate_rest_ms and run() into the
    // per-loop timer plus rendering.
    double Sum = V.at("frontend.ms") + V.at("ir.verify_ms") +
                 V.at("callgraph.ms") + V.at("pta.pag_ms") +
                 V.at("pta.andersen_ms") + V.at("escape.ms") +
                 V.at("core.substrate_rest_ms") + V.at("leak.ms") +
                 V.at("leak.render_ms");
    Wall.push_back(S.WallMs);
    Gap.push_back(S.WallMs - Sum);
  }
  std::map<std::string, double> M;
  for (auto &[Name, Col] : Cols)
    M[Name] = median(Col);
  M["traced_wall_ms"] = median(Wall);
  M["core.unattributed_ms"] = median(Gap);
  return M;
}

std::map<std::string, double> growthLedger(unsigned Reps, StatReader &Reader,
                                           RunResult &Result) {
  // Each ladder: its sources, and the (layer metric, exponent) pairs fitted.
  using Fits = std::vector<std::pair<const char *, const char *>>;
  const std::pair<std::vector<std::string>, Fits> Ladders[] = {
      {{wideSource(256), wideSource(512), wideSource(1024)},
       {{"frontend.ms", "frontend.growth_exp"},
        {"callgraph.ms", "callgraph.growth_exp"}}},
      {{heavySource(48), heavySource(96), heavySource(192)},
       {{"leak.match_ms", "leak.match_growth_exp"}}}};
  std::map<std::string, double> Out;
  for (const auto &[Sources, Fit] : Ladders) {
    std::vector<double> Stmts;
    std::map<std::string, std::vector<double>> Cost; // one median per size
    for (const std::string &Src : Sources) {
      AnalysisRequest Req;
      Req.Source = Src;
      Req.Loops = LoopSet::of({"hot"});
      std::map<std::string, std::vector<double>> Samples;
      for (unsigned I = 0; I < Reps; ++I) {
        LayerSample S;
        std::string Why;
        if (!decompose(Req, Reader, S, Why)) {
          Result.wrong("growth ladder: " + Why);
          return Out;
        }
        if (I == 0)
          Stmts.push_back(S.Stmts);
        for (const auto &[Layer, Exponent] : Fit)
          Samples[Layer].push_back(S.V[Layer]);
      }
      for (const auto &[Layer, Exponent] : Fit)
        Cost[Layer].push_back(median(Samples[Layer]));
    }
    for (const auto &[Layer, Exponent] : Fit)
      Out[Exponent] = growthExponent(Stmts, Cost[Layer]);
  }
  return Out;
}

} // namespace lcbench
