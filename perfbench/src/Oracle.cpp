//===-- Oracle.cpp --------------------------------------------------------===//

#include "Oracle.h"

#include "Generators.h"

#include "core/LeakChecker.h"
#include "interp/Interp.h"
#include "subjects/Scoring.h"

#include <cstdio>
#include <sstream>

using namespace lc;

namespace lcbench {

std::set<std::string> reportedSites(const std::vector<std::string> &Rendered) {
  static const std::string Marker = "* LEAK: new ";
  std::set<std::string> Sites;
  for (const std::string &Text : Rendered) {
    std::istringstream In(Text);
    std::string Line;
    while (std::getline(In, Line)) {
      if (Line.compare(0, Marker.size(), Marker) != 0)
        continue;
      std::string Site = Line.substr(Marker.size());
      size_t Colon = Site.rfind(':');
      Sites.insert(Colon == std::string::npos ? Site : Site.substr(0, Colon));
    }
  }
  return Sites;
}

std::set<std::string> plantedRecSites(unsigned Clusters) {
  std::set<std::string> Sites;
  for (unsigned C = 0; C < Clusters; ++C)
    Sites.insert("Rec" + std::to_string(C) + " @ Svc" + std::to_string(C) +
                 ".make");
  return Sites;
}

std::set<std::string> plantedWideSites() { return {"Record0 @ Main.main"}; }

static std::string describe(const std::set<std::string> &Got,
                            const std::set<std::string> &Want) {
  size_t Missed = 0, Extra = 0;
  std::string First;
  for (const std::string &S : Want)
    if (!Got.count(S) && ++Missed == 1)
      First = "missed " + S;
  for (const std::string &S : Got)
    if (!Want.count(S) && ++Extra == 1 && First.empty())
      First = "unexpected " + S;
  return std::to_string(Missed) + " planted leak(s) missed, " +
         std::to_string(Extra) + " unexpected (" + First + ")";
}

std::string checkPlanted(const AnalysisOutcome &Outcome,
                         const std::set<std::string> &Planted) {
  if (!Outcome.ok())
    return std::string("status ") + outcomeStatusName(Outcome.Status);
  std::set<std::string> Got = reportedSites(Outcome.RenderedReports);
  return Got == Planted ? std::string() : describe(Got, Planted);
}

AnalysisRequest subjectRequest(const subjects::Subject &S) {
  AnalysisRequest R;
  R.ProgramName = S.Name;
  R.Source = S.Source;
  R.Loops = LoopSet::allLabeled();
  R.Options = SessionOptionsBuilder().fromLegacy(S.Options).build().value();
  return R;
}

static std::string scoreAgainstPaper(const SubjectRef &Ref,
                                     const AnalysisOutcome &O) {
  if (!O.ok())
    return std::string("status ") + outcomeStatusName(O.Status);
  if (Ref.LoopIndex >= O.Results.size())
    return "checked loop missing from the outcome";
  subjects::Score Sc = subjects::score(*Ref.P, O.Results[Ref.LoopIndex]);
  const subjects::Subject &S = *Ref.S;
  if (!Sc.Missed.empty() || Sc.UnexpectedFp != 0 ||
      Sc.Reported != S.PaperLeakSites || Sc.falsePositives() != S.PaperFalsePos)
    return subjects::renderScore(Sc) + ", paper LS=" +
           std::to_string(S.PaperLeakSites) +
           " FP=" + std::to_string(S.PaperFalsePos);
  return {};
}

std::vector<SubjectRef> scoredSubjects(std::string &Why) {
  std::vector<SubjectRef> Refs;
  for (const subjects::Subject &S : subjects::all()) {
    SubjectRef Ref;
    Ref.S = &S;
    DiagnosticEngine Diags;
    auto Checker = LeakChecker::fromSource(S.Source, Diags, S.Options);
    if (!Checker) {
      Why = S.Name + ": does not compile: " + Diags.str();
      return {};
    }
    Ref.P = std::make_unique<Program>(Checker->program());
    AnalysisOutcome O = Checker->run(subjectRequest(S));
    for (size_t I = 0; I < O.LoopLabels.size(); ++I)
      if (O.LoopLabels[I] == S.LoopLabel)
        Ref.LoopIndex = I;
    if (std::string E = scoreAgainstPaper(Ref, O); !E.empty()) {
      Why = S.Name + ": reference verdict: " + E;
      return {};
    }
    Ref.Rendered = O.RenderedReports;
    Refs.push_back(std::move(Ref));
  }
  return Refs;
}

std::string checkSubject(const SubjectRef &Ref, const AnalysisOutcome &O) {
  if (std::string E = scoreAgainstPaper(Ref, O); !E.empty())
    return Ref.S->Name + ": " + E;
  if (O.RenderedReports != Ref.Rendered)
    return Ref.S->Name + ": report differs from the scored reference";
  return {};
}

/// Static verdict, planted set and Definition-1 leaks of one small program.
static bool crossCheck(const std::string &Name, const std::string &Src,
                       const std::set<std::string> &Planted) {
  DiagnosticEngine Diags;
  auto Checker = LeakChecker::fromSource(Src, Diags);
  if (!Checker) {
    std::printf("selftest %-10s does not compile\n", Name.c_str());
    return false;
  }
  AnalysisRequest R;
  R.Loops = LoopSet::of({"hot"});
  AnalysisOutcome O = Checker->run(R);
  std::string Static = checkPlanted(O, Planted);

  const Program &P = Checker->program();
  InterpOptions IO;
  IO.TrackedLoop = P.findLoop("hot");
  InterpResult Run = interpret(P, IO);
  std::set<std::string> Dynamic;
  for (AllocSiteId Site : detectDynamicLeaks(Run).Sites) {
    std::string S = P.allocSiteName(Site).substr(4); // drop "new "
    Dynamic.insert(S.substr(0, S.rfind(':')));
  }
  // Definition 1 is the ground truth a planted site must satisfy. The
  // dynamic set may be larger: objects the static matcher sees flow back
  // (ERA Future) can still be dead at the end of a short concrete run.
  std::string Missing;
  for (const std::string &S : Planted)
    if (!Dynamic.count(S))
      Missing = S;
  size_t Extra = Dynamic.size();
  for (const std::string &S : Planted)
    Extra -= Dynamic.count(S);
  bool Ok = Run.ok() && Static.empty() && Missing.empty();
  std::printf("selftest %-10s planted %2zu  static %s  interp %s, %zu more "
              "dynamic-only\n",
              Name.c_str(), Planted.size(),
              Static.empty() ? "= planted" : Static.c_str(),
              !Run.ok() ? "did not finish"
              : Missing.empty() ? "confirms every planted site"
                                : ("misses " + Missing).c_str(),
              Extra);
  return Ok;
}

bool selfTest() {
  bool Ok = true;
  for (unsigned C : {1u, 3u, 6u})
    Ok &= crossCheck("heavy" + std::to_string(C), heavySource(C),
                     plantedRecSites(C));
  for (unsigned N : {1u, 4u, 9u})
    Ok &= crossCheck("wide" + std::to_string(N), wideSource(N),
                     plantedWideSites());
  const unsigned Clusters = 6, Hot = 4;
  for (unsigned V = 0; V < 3; ++V) {
    std::vector<unsigned> Variant(Clusters, V);
    Variant[Clusters - 1] = (V + 1) % 3;
    Ok &= crossCheck("edit-v" + std::to_string(V),
                     editSource(Clusters, Hot, Variant), plantedRecSites(Hot));
  }
  std::string Why;
  std::vector<SubjectRef> Refs = scoredSubjects(Why);
  std::printf("selftest subjects  %s\n",
              Refs.empty() ? Why.c_str()
                           : "all 8 match their annotations and the paper");
  return Ok && !Refs.empty();
}

} // namespace lcbench
