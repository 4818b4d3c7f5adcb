//===-- Main.cpp - lcbench: the repository benchmark driver ---------------===//
//
// Usage:
//   lcbench --workload NAME --seed N --seconds S --trace 0|1
//   lcbench --selftest
//
// Prints readable lines, then one JSON line with `correct`, `attempted`,
// `failed` and `metrics` (end-to-end metrics untraced, per-layer metrics
// traced). Exits non-zero on a wrong verdict or bad arguments.
//
//===----------------------------------------------------------------------===//

#include "Oracle.h"
#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace lcbench;

int main(int argc, char **argv) {
  Args A;
  bool SelfTest = false;
  for (int I = 1; I < argc; ++I) {
    bool HasValue = I + 1 < argc;
    if (!std::strcmp(argv[I], "--selftest"))
      SelfTest = true;
    else if (!std::strcmp(argv[I], "--workload") && HasValue)
      A.Workload = argv[++I];
    else if (!std::strcmp(argv[I], "--seed") && HasValue)
      A.Seed = std::strtoull(argv[++I], nullptr, 10);
    else if (!std::strcmp(argv[I], "--seconds") && HasValue)
      A.Seconds = std::atof(argv[++I]);
    else if (!std::strcmp(argv[I], "--trace") && HasValue)
      A.Trace = std::atoi(argv[++I]) != 0;
    else {
      std::fprintf(stderr,
                   "usage: %s --workload NAME --seed N --seconds S "
                   "--trace 0|1\n       %s --selftest\n",
                   argv[0], argv[0]);
      return 2;
    }
  }
  if (SelfTest)
    return selfTest() ? 0 : 1;
  RunResult R;
  if (!runWorkload(A, R)) {
    std::fprintf(stderr, "unknown workload '%s' (known: %s)\n",
                 A.Workload.c_str(), workloadNames());
    return 2;
  }
  printResult(R);
  return R.Correct ? 0 : 1;
}
