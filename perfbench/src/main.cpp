// pf15 end-to-end benchmark: entry point.
//
//   pf15_perfbench --workload climate|hep_hybrid|hep_serve --seed N
//                  --seconds S --trace 0|1 [--out DIR]
//
// Prints a run record line, then the result object as the last line of
// standard output. Exits non-zero on bad arguments or any error.
#include <cstdio>
#include <cstdlib>
#include <exception>

#include "common.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  const perfbench::Clock::time_point start = perfbench::Clock::now();
  // Every run starts from an empty conv plan cache, so set-up always
  // includes first-sight tuning and no run inherits another's plans.
  // Tracing is switched on by traced runs themselves, never by the
  // environment.
  setenv("PF15_CONV_PLAN_CACHE", "off", 1);
  unsetenv("PF15_TRACE");
  perfbench::steal_pct_since_last_call();
  try {
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    perfbench::Report report;
    if (args.workload == "climate") {
      perfbench::run_climate(args, report, start);
    } else if (args.workload == "hep_hybrid") {
      perfbench::run_hep_hybrid(args, report, start);
    } else if (args.workload == "hep_serve") {
      perfbench::run_hep_serve(args, report, start);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
    report.reference("host.steal_pct", perfbench::steal_pct_since_last_call(),
                     "%");
    report.emit(args);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pf15_perfbench: %s\n", e.what());
    return 1;
  }
}
