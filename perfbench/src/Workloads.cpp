//===-- Workloads.cpp -----------------------------------------------------===//

#include "Workloads.h"

#include "Generators.h"
#include "Layers.h"
#include "Oracle.h"

#include "core/LeakChecker.h"
#include "leak/LeakAnalysis.h"
#include "service/AnalysisService.h"
#include "support/MemStats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <random>
#include <unistd.h>

using namespace lc;

namespace lcbench {

namespace {

/// Set-up is repeated and its median reported, so one slow repetition
/// does not move `setup_s`.
constexpr unsigned kSetupReps = 5;
/// Samples a run takes even when a verdict outlasts the measured seconds.
constexpr size_t kMinSamples = 5;

/// Edit subject shape: bench/edit_storm.cpp's quick storm scaled to 48
/// clusters, four of them stepped in the checked loop.
constexpr unsigned kEditClusters = 48;
constexpr unsigned kEditHot = 4;
/// edit-serve reads its peak RSS once this many requests are served (or at
/// the end of a shorter run): the patch path's footprint grows with every
/// edit it serves, and a fixed request count keeps a faster service from
/// reading as a memory regression.
constexpr size_t kRssAtRequest = 12000;

/// Every per-layer metric, in BENCHMARK.json order, with its unit. A
/// layer a workload does not exercise reports 0.
const std::pair<const char *, const char *> PerLayer[] = {
    {"frontend.ms", "ms"},
    {"frontend.allocs", "count"},
    {"frontend.growth_exp", "exponent"},
    {"ir.verify_ms", "ms"},
    {"callgraph.ms", "ms"},
    {"callgraph.allocs", "count"},
    {"callgraph.reachable_methods", "count"},
    {"callgraph.growth_exp", "exponent"},
    {"pta.pag_ms", "ms"},
    {"pta.andersen_ms", "ms"},
    {"pta.andersen_allocs", "count"},
    {"pta.andersen.sccs_collapsed", "count"},
    {"pta.andersen.scc_nodes_merged", "count"},
    {"pta.andersen.online_collapse_passes", "count"},
    {"pta.andersen.delta_pushes", "count"},
    {"pta.andersen.solve_iterations", "count"},
    {"escape.ms", "ms"},
    {"escape.captured_sites", "count"},
    {"leak.cfl_queries_skipped", "count"},
    {"core.substrate_rest_ms", "ms"},
    {"core.threads", "count"},
    {"core.unattributed_ms", "ms"},
    {"leak.ms", "ms"},
    {"leak.flows_out_ms", "ms"},
    {"leak.flows_in_ms", "ms"},
    {"leak.match_ms", "ms"},
    {"leak.corroboration_ms", "ms"},
    {"leak.flows_in_facts", "count"},
    {"leak.inside_stores", "count"},
    {"leak.inside_loads", "count"},
    {"leak.cfl_states_visited", "count"},
    {"leak.cfl_cache_hit_ratio", "ratio"},
    {"leak.cfl_refuted_ratio", "ratio"},
    {"leak.allocs", "count"},
    {"leak.match_growth_exp", "exponent"},
    {"leak.render_ms", "ms"},
    {"service.hit_ratio", "ratio"},
    {"service.patch_ratio", "ratio"},
    {"service.evictions", "count"},
    {"service.warm_ms", "ms"},
    {"service.patch_ms", "ms"},
    {"service.cold_ms", "ms"},
    {"bench.trace_overhead", "ratio"},
    {"bench.nonclaimable", "count"},
    {"bench.absent_stats", "count"},
};

double sum(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return S;
}

/// Adds the end-to-end metrics of a closed-loop run.
void addEndToEnd(RunResult &Out, double SetupS, const std::vector<double> &Lat,
                 double TailP, double PeakRssMb) {
  double Tail = quantile(Lat, TailP);
  size_t AtOrBelow = size_t(std::ceil(TailP * double(Lat.size())));
  std::printf("verdicts %zu, tail = p%g (%zu samples beyond it)\n", Lat.size(),
              TailP * 100, Lat.size() - std::min(AtOrBelow, Lat.size()));
  Out.add("setup_s", SetupS, "s");
  Out.add("verdict_p50_ms", median(Lat), "ms");
  Out.add("verdict_tail_ms", Tail, "ms");
  Out.add("verdicts_per_s", double(Lat.size()) / (sum(Lat) / 1e3), "1/s");
  Out.add("peak_rss_mb", PeakRssMb, "MiB");
}

/// Adds every per-layer metric from \p V (absent names read as 0), after
/// the determinism verdict: a counter is claimable only when the second
/// traced pass repeats the first one exactly, request by request.
void addPerLayer(RunResult &Out, std::map<std::string, double> V,
                 const std::vector<std::map<std::string, uint64_t>> &PassA,
                 const std::vector<std::map<std::string, uint64_t>> &PassB,
                 const StatReader &Reader) {
  std::map<std::string, bool> Repeats;
  for (size_t I = 0; I < PassA.size(); ++I)
    for (const auto &[Name, Value] : PassA[I]) {
      bool Same = false;
      if (I < PassB.size()) {
        auto It = PassB[I].find(Name);
        Same = It != PassB[I].end() && It->second == Value;
      }
      Repeats.try_emplace(Name, true).first->second &= Same;
    }
  std::string Exact, Not;
  size_t NonClaimable = 0;
  for (const auto &[Name, Same] : Repeats) {
    (Same ? Exact : Not) += " " + Name;
    NonClaimable += !Same;
  }
  if (PassA.size() != PassB.size())
    Not += " (the passes served different request counts)";
  std::string Absent;
  for (const std::string &Name : Reader.absent())
    Absent += " " + Name;
  for (auto [Label, List] : {std::pair{"determinism: repeat exactly", &Exact},
                             {"determinism: non-claimable", &Not},
                             {"program stats absent", &Absent}})
    std::printf("%s:%s\n", Label, List->empty() ? " none" : List->c_str());
  V["bench.nonclaimable"] = double(NonClaimable);
  V["bench.absent_stats"] = double(Reader.absent().size());
  for (const auto &[Name, Unit] : PerLayer)
    Out.add(Name, V.count(Name) ? V[Name] : 0.0, Unit);
}

// --- heavy-loop / wide-program: repeated cold checks ----------------------

struct ColdSpec {
  /// Generates the program; set-up time includes it.
  std::function<std::string()> Make;
  std::set<std::string> Planted;
  double TailP = 0.5;
};

/// One cold check: source to rendered report. The session is handed back
/// through \p Keep so its teardown stays outside the caller's timing.
AnalysisOutcome coldVerdict(const AnalysisRequest &R,
                            std::unique_ptr<LeakChecker> &Keep) {
  DiagnosticEngine Diags;
  Keep = LeakChecker::fromSource(R.Source, Diags, R.Options.leakOptions());
  if (!Keep) {
    AnalysisOutcome O;
    O.Status = OutcomeStatus::CompileError;
    O.Diagnostics = Diags.str();
    return O;
  }
  return Keep->run(R);
}

/// Times cold verdicts of \p Req until \p Ms elapse; every verdict must
/// name the planted leaks and repeat \p Digest byte for byte.
std::vector<double> coldLoop(const AnalysisRequest &Req, const ColdSpec &Spec,
                             uint64_t Digest, double Ms, RunResult &Out) {
  std::vector<double> Lat;
  Clock::time_point Start = Clock::now();
  for (size_t Tries = 0; msSince(Start) < Ms || Tries < kMinSamples; ++Tries) {
    ++Out.Attempted;
    std::unique_ptr<LeakChecker> Session;
    Clock::time_point T0 = Clock::now();
    AnalysisOutcome O = coldVerdict(Req, Session);
    double L = msSince(T0);
    if (!O.ok()) {
      Out.failed(outcomeStatusName(O.Status));
      continue;
    }
    Lat.push_back(L);
    if (std::string Why = checkPlanted(O, Spec.Planted); !Why.empty())
      Out.wrong(Why);
    else if (digestOf(O) != Digest)
      Out.wrong("report differs from the first verdict of the same source");
  }
  return Lat;
}

void runCold(const Args &A, const ColdSpec &Spec, RunResult &Out) {
  AnalysisRequest Req;
  Req.Loops = LoopSet::of({"hot"});
  uint64_t Digest = 0;
  std::vector<double> Setup;
  for (unsigned I = 0; I < (A.Trace ? 1 : kSetupReps); ++I) {
    Clock::time_point T0 = Clock::now();
    Req.Source = Spec.Make();
    std::unique_ptr<LeakChecker> Session;
    AnalysisOutcome O = coldVerdict(Req, Session); // primes allocator, caches
    if (std::string Why = checkPlanted(O, Spec.Planted); !Why.empty())
      Out.wrong("set-up verdict: " + Why);
    Digest = digestOf(O);
    Setup.push_back(msSince(T0) / 1e3);
  }
  double Ms = A.Seconds * 1e3;
  if (!A.Trace) {
    std::vector<double> Lat = coldLoop(Req, Spec, Digest, Ms, Out);
    addEndToEnd(Out, median(Setup), Lat, Spec.TailP, peakRssMb(getpid()));
    return;
  }

  // Traced run: an untraced stretch for the overhead base, then two
  // traced passes of equal length for the determinism check.
  std::vector<double> Untraced = coldLoop(Req, Spec, Digest, Ms / 4, Out);
  StatReader Reader;
  std::vector<LayerSample> Samples;
  std::vector<std::map<std::string, uint64_t>> Pass[2];
  auto TracedVerdict = [&](int P) {
    LayerSample S;
    std::string Why;
    ++Out.Attempted;
    if (!decompose(Req, Reader, S, Why)) {
      Out.failed("traced: " + Why);
      return;
    }
    if (std::string W = checkPlanted(S.Outcome, Spec.Planted); !W.empty())
      Out.wrong("traced: " + W);
    else if (digestOf(S.Outcome) != Digest)
      Out.wrong("traced verdict differs from the untraced one");
    Pass[P].push_back(S.Exact);
    Samples.push_back(std::move(S));
  };
  Clock::time_point Start = Clock::now();
  size_t PerPass = 0;
  for (; msSince(Start) < Ms / 4 || PerPass < kMinSamples; ++PerPass)
    TracedVerdict(0);
  for (size_t I = 0; I < PerPass; ++I)
    TracedVerdict(1);
  std::map<std::string, double> V = medianLayers(Samples);
  for (const auto &[Name, Value] : growthLedger(3, Reader, Out))
    V[Name] = Value;
  V["bench.trace_overhead"] = V["traced_wall_ms"] / median(Untraced);
  addPerLayer(Out, V, Pass[0], Pass[1], Reader);
}

// --- edit-serve: one service, one waiting client --------------------------

struct StreamItem {
  enum Kind { Read, Write, Novel } K = Read;
  AnalysisRequest Req;
  size_t Subject = 0;
};

/// The seeded request mix: 70% warm subject reads, 26% single-method body
/// edits of the edit subject, 4% novel dead-weight programs.
class EditStream {
public:
  EditStream(uint64_t Seed, const std::vector<SubjectRef> &Refs)
      : Rng(Seed), Seed(Seed), Variant(kEditClusters, 0) {
    for (const SubjectRef &R : Refs)
      Reads.push_back(subjectRequest(*R.S));
  }

  static AnalysisRequest hotRequest(std::string Source) {
    AnalysisRequest R;
    R.Source = std::move(Source);
    R.Loops = LoopSet::of({"hot"});
    return R;
  }
  /// The edit subject at its current revision.
  AnalysisRequest editBase() const {
    return hotRequest(editSource(kEditClusters, kEditHot, Variant));
  }
  const std::vector<AnalysisRequest> &reads() const { return Reads; }

  StreamItem next() {
    StreamItem It;
    unsigned Roll = unsigned(Rng() % 100);
    if (Roll < 70) {
      It.Subject = size_t(Rng() % Reads.size());
      It.Req = Reads[It.Subject];
    } else if (Roll < 96) {
      It.K = StreamItem::Write;
      unsigned C = unsigned(Rng() % kEditClusters);
      Variant[C] = (Variant[C] + 1 + unsigned(Rng() % 2)) % 3;
      It.Req = editBase();
    } else {
      It.K = StreamItem::Novel;
      unsigned N = 8 + unsigned(Rng() % 57);
      It.Req = hotRequest(wideSource(N) + "// novel program " +
                          std::to_string(Seed) + "-" +
                          std::to_string(++NovelCount) + "\n");
    }
    return It;
  }

private:
  std::mt19937_64 Rng;
  uint64_t Seed;
  std::vector<AnalysisRequest> Reads;
  std::vector<unsigned> Variant;
  uint64_t NovelCount = 0;
};

/// Empty when \p O is the right verdict for \p It.
std::string checkItem(const StreamItem &It, const AnalysisOutcome &O,
                      const std::vector<SubjectRef> &Refs) {
  switch (It.K) {
  case StreamItem::Read:
    return checkSubject(Refs[It.Subject], O);
  case StreamItem::Write:
    return checkPlanted(O, plantedRecSites(kEditHot));
  case StreamItem::Novel:
    return checkPlanted(O, plantedWideSites());
  }
  return {};
}

/// Builds a service and primes it with every subject and the edit base.
/// The cache holds the workload's working set (8 subjects + the edit
/// session) with room to spare; the default 8 sessions would thrash on
/// the reads alone, and eviction is meant to come from novel programs.
std::unique_ptr<AnalysisService>
primedService(const std::vector<SubjectRef> &Refs, RunResult &Out) {
  ServiceOptions SO;
  SO.MaxSessions = 16;
  auto Svc = std::make_unique<AnalysisService>(SO);
  EditStream Names(0, Refs);
  for (size_t I = 0; I < Refs.size(); ++I)
    if (std::string Why = checkSubject(Refs[I], Svc->run(Names.reads()[I]));
        !Why.empty())
      Out.wrong("priming: " + Why);
  if (std::string Why = checkPlanted(Svc->run(Names.editBase()),
                                     plantedRecSites(kEditHot));
      !Why.empty())
    Out.wrong("priming edit base: " + Why);
  return Svc;
}

/// One served request; the per-layer fields are filled on traced passes.
struct Served {
  StreamItem::Kind K = StreamItem::Read;
  double Ms = 0;
  SubstrateOrigin Origin = SubstrateOrigin::Built;
  std::map<std::string, double> Leak;
  std::map<std::string, uint64_t> Exact;
  double UnattributedMs = 0;
  double RenderMs = -1;
  uint64_t Digest = 0; ///< of the rendered reports, traced or not
};

/// Serves \p Count requests of the seed's stream (or, with Count 0, for
/// \p Ms milliseconds). Traced passes also record the per-request split.
/// \p PeakRssMb is read after kRssAtRequest requests, or at the end.
std::vector<Served> serveStream(AnalysisService &Svc, uint64_t Seed,
                                const std::vector<SubjectRef> &Refs,
                                size_t Count, double Ms, bool Traced,
                                StatReader &Reader, RunResult &Out,
                                double &PeakRssMb) {
  EditStream Stream(Seed, Refs);
  std::vector<Served> Log;
  // A bounded sample of patched edits (every 32nd, at most 16) is
  // re-checked against cold builds after timing.
  std::vector<std::pair<AnalysisRequest, uint64_t>> PatchedSample;
  size_t Patched = 0;
  Clock::time_point Start = Clock::now();
  size_t Tries = 0;
  for (; Count ? Tries < Count : (msSince(Start) < Ms || Tries < kMinSamples);
       ++Tries) {
    if (Tries == kRssAtRequest)
      PeakRssMb = peakRssMb(getpid());
    StreamItem It = Stream.next();
    ++Out.Attempted;
    uint64_t A0 = mem::heapAllocs();
    Clock::time_point T0 = Clock::now();
    AnalysisOutcome O = Svc.run(It.Req);
    Served S;
    S.Ms = msSince(T0);
    uint64_t Allocs = mem::heapAllocs() - A0;
    if (!O.ok()) {
      Out.failed(outcomeStatusName(O.Status));
      continue;
    }
    S.K = It.K;
    S.Origin = O.Origin;
    S.Digest = digestOf(O);
    if (std::string Why = checkItem(It, O, Refs); !Why.empty())
      Out.wrong(Why);
    if (O.Origin == SubstrateOrigin::ReusedIncremental &&
        Patched++ % 32 == 0 && PatchedSample.size() < 16)
      PatchedSample.push_back({It.Req, S.Digest});
    if (Traced) {
      S.Leak = leakLayer(O, Reader);
      S.Leak["leak.allocs"] = double(Allocs);
      const RequestObservability &Ob = O.Observability;
      S.UnattributedMs =
          S.Ms -
          double(Ob.AndersenUs + Ob.SummarizeUs + Ob.LeakAnalysisUs) / 1e3;
      S.Exact = {{"report-digest", S.Digest},
                 {"request-allocs", Allocs},
                 {"cfl-states-visited",
                  uint64_t(S.Leak["leak.cfl_states_visited"])},
                 {"flows-in-facts", uint64_t(S.Leak["leak.flows_in_facts"])},
                 {"origin", uint64_t(O.Origin)}};
      if (It.K == StreamItem::Read) {
        const SubjectRef &Ref = Refs[It.Subject];
        Clock::time_point R0 = Clock::now();
        std::vector<std::string> Again;
        for (const LeakAnalysisResult &R : O.Results)
          Again.push_back(renderLeakReport(*Ref.P, R));
        S.RenderMs = msSince(R0);
        if (Again != O.RenderedReports)
          Out.wrong(Ref.S->Name + ": re-rendered report differs");
      }
    }
    Log.push_back(std::move(S));
  }
  if (Tries <= kRssAtRequest)
    PeakRssMb = peakRssMb(getpid());
  for (const auto &[Req, Digest] : PatchedSample) {
    std::unique_ptr<LeakChecker> Session;
    if (digestOf(coldVerdict(Req, Session)) != Digest)
      Out.wrong("patched edit's report differs from a cold build");
  }
  std::printf("edit-serve: %zu requests, %zu patched edits re-checked cold\n",
              Log.size(), PatchedSample.size());
  return Log;
}

/// Prints, per request kind, its share of the stream, its median and its
/// share of the client's waiting time: which kind each end-to-end metric
/// rests on at this mix.
void printKinds(const std::vector<Served> &Log) {
  std::vector<double> Ms[3];
  double Total = 0;
  for (const Served &S : Log) {
    Ms[S.K].push_back(S.Ms);
    Total += S.Ms;
  }
  const char *Names[3] = {"warm reads", "edits", "novel programs"};
  for (int K = 0; K < 3; ++K)
    std::printf("edit-serve %-14s %5.1f%% of requests, p50 %.3f ms, "
                "%5.1f%% of waiting time\n",
                Names[K], 100.0 * double(Ms[K].size()) / double(Log.size()),
                median(Ms[K]), Total > 0 ? 100.0 * sum(Ms[K]) / Total : 0.0);
}

void runEditServe(const Args &A, RunResult &Out) {
  std::vector<SubjectRef> Refs;
  std::unique_ptr<AnalysisService> Svc;
  std::vector<double> Setup;
  for (unsigned I = 0; I < (A.Trace ? 1 : kSetupReps); ++I) {
    Clock::time_point T0 = Clock::now();
    std::string Why;
    Refs = scoredSubjects(Why);
    if (Refs.empty()) {
      Out.wrong(Why);
      return;
    }
    Svc = primedService(Refs, Out);
    Setup.push_back(msSince(T0) / 1e3);
  }
  const double TailP = 0.99;
  double Ms = A.Seconds * 1e3;
  StatReader Reader;
  double PeakRssMb = 0;
  if (!A.Trace) {
    std::vector<Served> Log =
        serveStream(*Svc, A.Seed, Refs, 0, Ms, false, Reader, Out, PeakRssMb);
    std::vector<double> Lat;
    for (const Served &S : Log)
      Lat.push_back(S.Ms);
    printKinds(Log);
    addEndToEnd(Out, median(Setup), Lat, TailP, PeakRssMb);
    return;
  }

  // An untraced stretch on the set-up service, then two traced passes on
  // fresh primed services over the same requests: every traced verdict
  // must repeat the untraced one.
  std::vector<Served> Base =
      serveStream(*Svc, A.Seed, Refs, 0, Ms / 4, false, Reader, Out,
                  PeakRssMb);
  std::vector<double> Untraced;
  for (const Served &S : Base)
    Untraced.push_back(S.Ms);
  std::vector<Served> Passes[2];
  std::vector<std::map<std::string, uint64_t>> Exact[2];
  uint64_t Evictions = 0;
  for (int P = 0; P < 2; ++P) {
    auto Fresh = primedService(Refs, Out);
    Passes[P] = serveStream(*Fresh, A.Seed, Refs, Base.size(), 0, true,
                            Reader, Out, PeakRssMb);
    for (size_t I = 0; I < Passes[P].size(); ++I) {
      Exact[P].push_back(Passes[P][I].Exact);
      if (I < Base.size() && Passes[P][I].Digest != Base[I].Digest)
        Out.wrong("traced verdict differs from the untraced one");
    }
    if (P == 0)
      Evictions = Reader.count(Fresh->stats(), "service-session-evictions");
  }
  std::map<std::string, std::vector<double>> Cols;
  std::vector<double> ByOrigin[3], Traced, Gap, Render;
  for (const Served &S : Passes[0]) {
    for (const auto &[Name, Value] : S.Leak)
      Cols[Name].push_back(Value);
    ByOrigin[size_t(S.Origin)].push_back(S.Ms);
    Traced.push_back(S.Ms);
    Gap.push_back(S.UnattributedMs);
    if (S.RenderMs >= 0)
      Render.push_back(S.RenderMs);
  }
  // The substrate layers only run when a request builds: split the edit
  // subject's cold build, the build every evicted edit session repeats.
  std::vector<LayerSample> Builds;
  EditStream Stream(A.Seed, Refs);
  for (int I = 0; I < 3; ++I) {
    LayerSample S;
    std::string Why;
    if (decompose(Stream.editBase(), Reader, S, Why))
      Builds.push_back(std::move(S));
    else
      Out.wrong("edit base: " + Why);
  }
  std::map<std::string, double> V = medianLayers(Builds);
  for (auto &[Name, Col] : Cols)
    V[Name] = median(Col);
  for (const auto &[Name, Value] : growthLedger(3, Reader, Out))
    V[Name] = Value;
  double N = double(Passes[0].size());
  double Built = double(ByOrigin[size_t(SubstrateOrigin::Built)].size());
  double Patched =
      double(ByOrigin[size_t(SubstrateOrigin::ReusedIncremental)].size());
  V["service.hit_ratio"] =
      double(ByOrigin[size_t(SubstrateOrigin::ReusedWarm)].size()) / N;
  V["service.patch_ratio"] =
      Patched + Built > 0 ? Patched / (Patched + Built) : 0;
  V["service.evictions"] = double(Evictions);
  V["service.cold_ms"] = median(ByOrigin[size_t(SubstrateOrigin::Built)]);
  V["service.warm_ms"] = median(ByOrigin[size_t(SubstrateOrigin::ReusedWarm)]);
  V["service.patch_ms"] =
      median(ByOrigin[size_t(SubstrateOrigin::ReusedIncremental)]);
  V["leak.render_ms"] = median(Render);
  V["core.unattributed_ms"] = median(Gap);
  V["core.threads"] = double(processThreads());
  V["bench.trace_overhead"] = median(Traced) / median(Untraced);
  addPerLayer(Out, V, Exact[0], Exact[1], Reader);
}

} // namespace

const char *workloadNames() {
  return "heavy-loop wide-program edit-serve";
}

bool runWorkload(const Args &A, RunResult &Out) {
  // The heavy and dead-weight shapes are fixed; the seed only tags the
  // text, so each run still analyzes freshly generated source.
  std::string Tag = "// seed " + std::to_string(A.Seed) + "\n";
  if (A.Workload == "heavy-loop") {
    runCold(A, {[&] { return heavySource(192) + Tag; }, plantedRecSites(192),
                0.80},
            Out);
  } else if (A.Workload == "wide-program") {
    runCold(A, {[&] { return wideSource(1024) + Tag; }, plantedWideSites(),
                0.90},
            Out);
  } else if (A.Workload == "edit-serve") {
    runEditServe(A, Out);
  } else {
    return false;
  }
  return true;
}

} // namespace lcbench
