//===-- Oracle.h - independent answers for every verdict -------*- C++ -*-===//
///
/// \file
/// Every verdict the benchmark times is checked against an answer that
/// does not come from the run being timed:
///
///  - the paper subjects are scored against their `@leak` / `@falsepos`
///    annotations (no missed leak, no unexpected false positive, LS and FP
///    equal to the paper's figures), and every later answer must repeat
///    the scored one byte for byte;
///  - generated programs are compared with the leak set their generator
///    planted (one `Rec<C>` site per stepped cluster, the `Record0` site
///    of the dead-weight loop). `--selftest` cross-checks those planted
///    sets against the concrete interpreter (Definition 1) at small sizes.
///
//===----------------------------------------------------------------------===//

#ifndef LCBENCH_ORACLE_H
#define LCBENCH_ORACLE_H

#include "ir/Program.h"
#include "service/Request.h"
#include "subjects/Subjects.h"

#include <memory>
#include <set>
#include <string>
#include <vector>

namespace lcbench {

/// Leak sites named by rendered reports, as "Type @ Class.method" (line
/// numbers dropped: they shift with edits, the planted identity does not).
std::set<std::string> reportedSites(const std::vector<std::string> &Rendered);

/// The leak set the heavy generator plants: `Rec<C> @ Svc<C>.make` for the
/// first \p Clusters clusters (the heavy subject steps every cluster; the
/// edit subject steps its hot ones).
std::set<std::string> plantedRecSites(unsigned Clusters);

/// The leak set the dead-weight generator plants: the loop's own Record0.
std::set<std::string> plantedWideSites();

/// Empty when \p Outcome is an ok verdict whose reports name exactly
/// \p Planted; otherwise why not.
std::string checkPlanted(const lc::AnalysisOutcome &Outcome,
                         const std::set<std::string> &Planted);

/// One paper subject with its scored reference answer.
struct SubjectRef {
  const lc::subjects::Subject *S = nullptr;
  /// The program compiled once at set-up: allocation-site ids are a pure
  /// function of the source, so outcomes from any session score against it.
  std::unique_ptr<lc::Program> P;
  /// Rendered reports of the scored reference (every labeled loop).
  std::vector<std::string> Rendered;
  /// Index of the subject's checked loop in the outcome's results.
  size_t LoopIndex = 0;
};

/// The request the benchmark sends for subject \p S: every labeled loop,
/// under the subject's own options.
lc::AnalysisRequest subjectRequest(const lc::subjects::Subject &S);

/// Builds and scores the reference for every paper subject with a cold
/// single-shot session. Fills \p Why (and returns an empty vector) when a
/// reference itself misses a leak or disagrees with the paper.
std::vector<SubjectRef> scoredSubjects(std::string &Why);

/// Empty when \p Outcome scores exactly like \p Ref and repeats its
/// rendered reports byte for byte; otherwise why not.
std::string checkSubject(const SubjectRef &Ref,
                         const lc::AnalysisOutcome &Outcome);

/// Cross-checks the planted sets against the interpreter oracle and the
/// static verdict at small sizes. Prints one line per program; returns
/// false on any disagreement.
bool selfTest();

} // namespace lcbench

#endif // LCBENCH_ORACLE_H
