//===-- Generators.cpp - the bench program generators, reused -------------===//
//
// The heavy subject and the dead-weight program come from
// bench/scalability.cpp, the editable subject from bench/edit_storm.cpp.
// Rather than keep a third copy of those shapes, this file compiles the
// two bench sources themselves (their mains renamed out of the way) and
// re-exports their generators, so a change to either bench's program
// shape shows up here too.
//
//===----------------------------------------------------------------------===//

#include "Generators.h"

// Every header the two bench sources pull in, included first so their
// include guards keep the `main` rename below away from library code.
#include "bench/RunLoop.h"
#include "core/LeakChecker.h"
#include "frontend/Lower.h"
#include "support/MemStats.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#define main lcbench_unused_scalability_main
#include "bench/scalability.cpp"
#undef main
#define main lcbench_unused_edit_storm_main
#include "bench/edit_storm.cpp"
#undef main

namespace lcbench {

std::string heavySource(unsigned Clusters) {
  return makeHeavySubject(Clusters);
}

std::string wideSource(unsigned Subsystems) { return makeProgram(Subsystems); }

std::string editSource(unsigned Clusters, unsigned Hot,
                       const std::vector<unsigned> &Variant) {
  return makeSubject(Clusters, Hot, Variant);
}

} // namespace lcbench
