// The three workloads and the helpers they share. Each workload runs in
// one process, times its set-up from process start, measures for
// --seconds, checks its outputs, and fills a Report. Traced runs (--trace
// 1) repeat the measured phase with obs tracing and layer profiling on
// and report per-layer metrics; untraced runs report end-to-end metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "data/loader.hpp"
#include "nn/hep_model.hpp"
#include "nn/network.hpp"
#include "solver/solver.hpp"

namespace perfbench {

void run_climate(const Args& args, Report& report, Clock::time_point start);
void run_hep_hybrid(const Args& args, Report& report,
                    Clock::time_point start);
void run_hep_serve(const Args& args, Report& report, Clock::time_point start);

/// The paper-width HEP net (5 conv units of 128 filters, 2.3 MiB of
/// parameters) on 64x64 events, initialised from `seed`.
pf15::nn::HepConfig paper_hep_config(std::uint64_t seed);

/// `count` generated HEP events of alternating class, as batch-ready
/// samples (stream derived from `seed`).
std::vector<pf15::data::Sample> make_hep_events(std::uint64_t seed,
                                                std::size_t count);

/// Batch of `batch` samples starting at `first` (wrapping) of `pool`.
pf15::data::Batch pool_batch(const std::vector<pf15::data::Sample>& pool,
                             std::size_t first, std::size_t batch);

/// gemm.* per-layer metrics from the global conv plan cache: misses,
/// tuned plans and winner counts per backend.
void report_plan_cache(Report& report);

/// nn.<layer>.fwd_ms / bwd_ms / gflops for every conv and deconv profile,
/// averaged over `steps`; returns the per-step sum over all layers (every
/// kind) in seconds.
double report_layer_profiles(Report& report,
                             const std::vector<pf15::nn::LayerProfile>& ps,
                             std::size_t steps);

/// Phase times of profiled training steps (seconds, one entry per step),
/// the per-step sum of the layer profiles, and executed GEMM work.
struct StepLedger {
  std::vector<double> forward, loss, backward, solver, total;
  double layers_s = 0.0;
  double gflop_per_step = 0.0;
};

/// Reports nn.forward_ms, nn.loss_ms, nn.backward_ms, solver.step_ms,
/// nn.profile_residual_pct (step minus layers minus solver),
/// gemm.tune_s (first step minus the median warm step),
/// gemm.executed_gflop_per_step, gemm.peak_gflops and
/// nn.train_roofline_pct (step GFLOP/s over peak x scheduler workers).
void report_step_ledger(Report& report, const StepLedger& ledger,
                        double first_step_s, double warm_step_s);

/// `steps` profiled SGD steps of a HEP net (softmax cross-entropy) on
/// batches of `batch` from `pool`; profiles are reset first, so tuning
/// never shows as layer time. Reports the layer profiles and returns the
/// ledger.
StepLedger profile_hep_steps(Report& report, pf15::nn::Sequential& net,
                             pf15::solver::Solver& solver,
                             const std::vector<pf15::data::Sample>& pool,
                             std::size_t batch, std::size_t steps);

/// Starts the chrome trace of a traced run at
/// `<out_dir>/trace-<workload>-seed<N>.json`.
void start_trace(const Args& args);
/// Stops recording and writes the trace file.
void finish_trace();

}  // namespace perfbench
