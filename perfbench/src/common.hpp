// Shared plumbing of the end-to-end benchmark: command-line arguments,
// the result report (end-to-end metrics, per-layer metrics, reference
// figures, attempted/failed operation counts, failed output checks), the
// host fingerprint, and small statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "perf/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the run record and, in traced runs, the chrome trace.
  std::string out_dir = ".";
};

/// Parses `--workload W --seed N --seconds S --trace 0|1 [--out DIR]`.
/// Throws std::runtime_error on anything else.
Args parse_args(int argc, char** argv);

/// Everything one run measured. End-to-end metrics are printed by untraced
/// runs, per-layer metrics by traced runs; reference figures are printed
/// in the run record only (they are too noisy to gate on, see README).
class Report {
 public:
  void e2e(const std::string& name, double value, const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);
  void reference(const std::string& name, double value,
                 const std::string& unit);

  /// Records the outcome of one output check; an empty message is a pass.
  void check(const std::string& what, const std::string& failure);
  bool correct() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

  void count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  /// Prints the run record (host, every metric, checks) as one JSON line,
  /// writes it to `<out_dir>/<workload>-seed<N>-trace<T>.json`, and
  /// prints the result object as the last line of standard output.
  void emit(const Args& args) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> e2e_, layer_, reference_;
  std::vector<std::string> checks_passed_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// CPU model, logical cores, detected and active SIMD level, compiler and
/// build type.
pf15::perf::Json host_fingerprint();

/// Host CPU time stolen by the hypervisor, as a share of all CPU time
/// since the previous call (the first call measures from boot). A noisy
/// neighbour shows here before it shows as a slow run.
double steal_pct_since_last_call();

/// Peak resident set size of this process, in MB (10^6 bytes).
double peak_rss_mb();

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);

/// Derives an independent 64-bit stream seed from the run seed and a
/// purpose tag (splitmix64), so each input stream of a workload changes
/// with --seed without correlating with the others.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

}  // namespace perfbench
