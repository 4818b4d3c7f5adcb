//===-- Util.h - timing, order statistics, metric output -------*- C++ -*-===//

#ifndef LCBENCH_UTIL_H
#define LCBENCH_UTIL_H

#include "service/Request.h"
#include "support/Stats.h"

#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace lcbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// Median (mean of the middle pair for even counts); 0 when empty.
double median(std::vector<double> V);

/// Nearest-rank \p P-quantile (0 < P <= 1); 0 when empty.
double quantile(std::vector<double> V, double P);

/// Least-squares slope of log(Y) against log(X): the growth exponent of a
/// cost Y over a size ladder X.
double growthExponent(const std::vector<double> &X,
                      const std::vector<double> &Y);

/// FNV-1a over \p Text, chained from \p H (report digests).
uint64_t fnv1a(const std::string &Text, uint64_t H = 1469598103934665603ull);

/// Digest of \p O's rendered reports, in order.
uint64_t digestOf(const lc::AnalysisOutcome &O);

/// Threads of this process (from /proc/self/status), 0 if unreadable.
uint64_t processThreads();

/// Peak RSS of process \p Pid in MiB (VmHWM), 0 if unreadable.
double peakRssMb(int Pid);

/// Reads program-emitted stats by name. A name the program no longer
/// emits reads as 0 and is remembered as absent, so the benchmark keeps
/// running after a later change deletes the layer that recorded it.
class StatReader {
public:
  uint64_t count(const lc::Stats &S, const std::string &Name);
  double ms(const lc::Stats &S, const std::string &Name);
  const std::set<std::string> &absent() const { return Absent; }

private:
  std::set<std::string> Absent;
};

/// One named metric with its unit, in emission order.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// What one benchmark invocation prints as its last line.
struct RunResult {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  /// Why the run is not correct (printed before the result line).
  std::vector<std::string> Wrong;

  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  void wrong(const std::string &Why) {
    Correct = false;
    if (Wrong.size() < 20)
      Wrong.push_back(Why);
  }
  /// A typed degradation on valid input. Every workload's input is valid,
  /// so one fails the run like a wrong verdict does.
  void failed(const std::string &Why) {
    ++Failed;
    wrong("degraded: " + Why);
  }
};

/// Prints every metric as a readable line, then the one-line JSON result.
void printResult(const RunResult &R);

} // namespace lcbench

#endif // LCBENCH_UTIL_H
