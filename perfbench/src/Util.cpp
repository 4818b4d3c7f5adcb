//===-- Util.cpp ----------------------------------------------------------===//

#include "Util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

namespace lcbench {

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Mid = V.size() / 2;
  return V.size() % 2 ? V[Mid] : (V[Mid - 1] + V[Mid]) / 2;
}

double quantile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P * double(V.size())));
  return V[std::min(V.size(), std::max<size_t>(Rank, 1)) - 1];
}

double growthExponent(const std::vector<double> &X,
                      const std::vector<double> &Y) {
  double N = 0, Sx = 0, Sy = 0, Sxx = 0, Sxy = 0;
  for (size_t I = 0; I < X.size() && I < Y.size(); ++I) {
    if (X[I] <= 0 || Y[I] <= 0)
      continue;
    double Lx = std::log(X[I]), Ly = std::log(Y[I]);
    N += 1;
    Sx += Lx;
    Sy += Ly;
    Sxx += Lx * Lx;
    Sxy += Lx * Ly;
  }
  double Den = N * Sxx - Sx * Sx;
  return N < 2 || Den == 0 ? 0 : (N * Sxy - Sx * Sy) / Den;
}

uint64_t fnv1a(const std::string &Text, uint64_t H) {
  for (unsigned char C : Text) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

uint64_t digestOf(const lc::AnalysisOutcome &O) {
  uint64_t H = fnv1a("");
  for (const std::string &Text : O.RenderedReports)
    H = fnv1a(Text, H);
  return H;
}

static uint64_t statusField(const std::string &Path, const char *Key) {
  std::ifstream In(Path);
  std::string Line;
  size_t KeyLen = std::char_traits<char>::length(Key);
  while (std::getline(In, Line))
    if (Line.compare(0, KeyLen, Key) == 0)
      return std::strtoull(Line.c_str() + KeyLen, nullptr, 10);
  return 0;
}

uint64_t processThreads() {
  return statusField("/proc/self/status", "Threads:");
}

double peakRssMb(int Pid) {
  std::string Path = "/proc/" + std::to_string(Pid) + "/status";
  return double(statusField(Path, "VmHWM:")) / 1024.0;
}

uint64_t StatReader::count(const lc::Stats &S, const std::string &Name) {
  if (const lc::Stats::Metric *M = S.lookup(Name))
    return M->Value;
  Absent.insert(Name);
  return 0;
}

double StatReader::ms(const lc::Stats &S, const std::string &Name) {
  if (const lc::Stats::Metric *M = S.lookup(Name))
    return M->Seconds * 1e3;
  Absent.insert(Name);
  return 0;
}

void printResult(const RunResult &R) {
  for (const std::string &W : R.Wrong)
    std::printf("WRONG VERDICT: %s\n", W.c_str());
  for (const Metric &M : R.Metrics)
    std::printf("  %-36s %14.6g %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  std::printf("  %-36s %14.6g ratio (%llu of %llu attempted)\n", "failed_frac",
              R.Attempted ? double(R.Failed) / double(R.Attempted) : 0.0,
              static_cast<unsigned long long>(R.Failed),
              static_cast<unsigned long long>(R.Attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              R.Correct ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
  for (size_t I = 0; I < R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    double V = std::isfinite(M.Value) ? M.Value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", M.Name.c_str(), V, M.Unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

} // namespace lcbench
