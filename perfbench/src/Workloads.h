//===-- Workloads.h - the benchmark's workloads ----------------*- C++ -*-===//
///
/// \file
/// Each workload turns one seed into inputs, sets up (timed as
/// `setup_s`), then measures for the requested seconds. An untraced run
/// reports the end-to-end metrics; a traced run reports the per-layer
/// split (README.md lists both, with the layer-to-metric predictions).
///
//===----------------------------------------------------------------------===//

#ifndef LCBENCH_WORKLOADS_H
#define LCBENCH_WORKLOADS_H

#include "Util.h"

#include <cstdint>
#include <string>

namespace lcbench {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
};

/// Names the workloads runWorkload() accepts, space separated.
const char *workloadNames();

/// Runs one workload. Returns false when \p A names no workload.
bool runWorkload(const Args &A, RunResult &Out);

} // namespace lcbench

#endif // LCBENCH_WORKLOADS_H
