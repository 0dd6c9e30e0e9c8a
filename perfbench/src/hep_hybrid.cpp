// hep_hybrid: HybridTrainer on the paper-width HEP net with 64x64
// generated events — 4 workers in 2 synchronous groups of 2, 1 parameter
// server rank, fp16 codec, Adam. Each round is one training job of a
// fixed number of iterations from the same initial model, and whole
// rounds fill the training share of --seconds (one round in a 15 s run).
// Eager batch-8 inference on held-out events is timed in two slices, one
// before training and one after it on the last round's trained model, so
// the inference figures sample the host at both ends of the run.
#include <algorithm>
#include <memory>

#include "checks.hpp"
#include "gemm/gemm.hpp"
#include "hybrid/hybrid_trainer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "solver/solver.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace pf15;

constexpr int kWorkers = 4;
constexpr int kGroups = 2;
constexpr int kGroupSize = kWorkers / kGroups;
constexpr std::size_t kMicroBatch = 4;
constexpr std::size_t kIterations = 56;  // per group, per round
constexpr std::size_t kTrainEvents = 512;
constexpr std::size_t kEvalEvents = 64;
constexpr std::size_t kEvalBatch = 8;
constexpr double kLearningRate = 2e-4;
/// Share of --seconds spent in training rounds; the rest is split evenly
/// between the two inference slices.
constexpr double kTrainShare = 0.5;
/// Running-mean window over group iterations (both groups, wall order).
constexpr std::size_t kLossWindow = 8;
/// Time-to-target threshold on the running-mean loss (ln 2 = 0.693 is
/// chance for two balanced classes).
constexpr double kTargetLoss = 0.65;

struct Round {
  hybrid::TrainResult result;
  double wall_s = 0.0;
  std::vector<double> running;  // running-mean loss per record
  double time_to_target_s = -1.0;
};

Round train_round(const nn::HepConfig& cfg,
                  const std::vector<data::Sample>& pool) {
  hybrid::HybridConfig hc;
  hc.num_workers = kWorkers;
  hc.num_groups = kGroups;
  hc.num_ps = 1;
  hc.iterations = kIterations;
  hc.solver = hybrid::SolverKind::kAdam;
  hc.learning_rate = kLearningRate;
  hc.ps_codec = ps::Codec::kFp16;
  hybrid::HybridTrainer trainer(
      hc,
      [&cfg] { return std::make_unique<hybrid::HepTrainable>(cfg); },
      [&pool](int rank, std::size_t iteration) {
        const std::size_t first =
            (iteration * kWorkers + static_cast<std::size_t>(rank)) *
            kMicroBatch;
        return pool_batch(pool, first, kMicroBatch);
      });
  Round round;
  const Clock::time_point t0 = Clock::now();
  {
    obs::TraceSpan span("hybrid_run", "perfbench");
    round.result = trainer.run();
  }
  round.wall_s = seconds_since(t0);
  // Records arrive sorted by wall time; the running mean spans both groups.
  const auto& recs = round.result.records;
  double sum = 0.0;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    sum += recs[i].loss;
    if (i >= kLossWindow) sum -= recs[i - kLossWindow].loss;
    const double n = static_cast<double>(std::min(i + 1, kLossWindow));
    round.running.push_back(sum / n);
    if (round.time_to_target_s < 0 && i + 1 >= kLossWindow &&
        round.running.back() < kTargetLoss) {
      round.time_to_target_s = recs[i].wall_time;
    }
  }
  return round;
}

/// Whole rounds within `budget` seconds: at least one, and another only
/// while it would end less than half a round past the budget.
std::vector<Round> train_rounds(const nn::HepConfig& cfg,
                                const std::vector<data::Sample>& pool,
                                double budget) {
  std::vector<Round> rounds;
  const Clock::time_point t0 = Clock::now();
  do {
    rounds.push_back(train_round(cfg, pool));
  } while (seconds_since(t0) + 0.5 * rounds.back().wall_s < budget);
  return rounds;
}

/// Median group step over `rounds`, in seconds. The groups step
/// concurrently, so the job trains kWorkers * kMicroBatch samples per
/// median step.
double median_step(const std::vector<const Round*>& rounds) {
  std::vector<double> v;
  for (const Round* r : rounds) {
    for (const auto& rec : r->result.records) v.push_back(rec.step_seconds);
  }
  return median(v);
}

/// Per-layer metrics of one traced round.
void report_round(Report& report, const Round& round) {
  const auto& flight = round.result.flight;
  std::vector<double> step, compute, allreduce, broadcast, exchange;
  for (const auto& r : round.result.records) step.push_back(r.step_seconds);
  double bytes = 0;
  for (const auto& f : flight) {
    compute.push_back(f.compute_us / 1e3);
    allreduce.push_back(f.allreduce_us / 1e3);
    broadcast.push_back(f.broadcast_us / 1e3);
    if (f.rank % kGroupSize == 0) exchange.push_back(f.ps_exchange_us / 1e3);
    bytes += static_cast<double>(f.wire_bytes);
  }
  const double step_ms = median(step) * 1e3;
  report.layer("hybrid.step_ms", step_ms, "ms");
  report.layer("hybrid.compute_ms", median(compute), "ms");
  report.layer("comm.allreduce_ms", median(allreduce), "ms");
  report.layer("comm.broadcast_ms", median(broadcast), "ms");
  report.layer("ps.exchange_ms", median(exchange), "ms");
  report.layer("hybrid.comm_exposed_pct",
               100.0 * (median(allreduce) + median(broadcast) +
                        median(exchange)) /
                   step_ms,
               "%");
  const perf::Json& straggler = round.result.straggler;
  report.layer("hybrid.straggler_lag_ratio",
               straggler.is_object()
                   ? straggler.get("max_lag_ratio").as_number()
                   : 0.0,
               "ratio");
  const double group_iters = static_cast<double>(kIterations * kGroups);
  report.layer("comm.bytes_per_iter", bytes / group_iters, "B");
  report.layer("ps.staleness_mean", round.result.staleness.mean(), "count");
  report.layer("ps.staleness_max",
               static_cast<double>(round.result.staleness.max_staleness),
               "count");
}

}  // namespace

void run_hep_hybrid(const Args& args, Report& report,
                    Clock::time_point start) {
  // ---------------- set-up (timed from process start) ----------------
  const nn::HepConfig cfg = paper_hep_config(args.seed);
  const Clock::time_point gen0 = Clock::now();
  const std::vector<data::Sample> pool =
      make_hep_events(derive_seed(args.seed, 4), kTrainEvents);
  const double gen_ms_per_batch =
      seconds_since(gen0) * 1e3 /
      (static_cast<double>(kTrainEvents) / kMicroBatch);
  const std::vector<data::Sample> held_out =
      make_hep_events(derive_seed(args.seed, 5), kEvalEvents);

  // One train_step on the calling thread tunes every conv plan the
  // workers will use, so tuning never lands inside a hybrid iteration.
  hybrid::HepTrainable warm(cfg);
  const data::Batch warm_batch = pool_batch(pool, 0, kMicroBatch);
  const Clock::time_point warm0 = Clock::now();
  warm.train_step(warm_batch);
  const double first_step_s = seconds_since(warm0);
  // Likewise the batch-8 forward plans of the held-out evaluation.
  nn::Sequential eval = nn::build_hep_network(cfg);
  eval.set_training(false);
  eval.forward(pool_batch(held_out, 0, kEvalBatch).images);
  const double setup = seconds_since(start);

  // Whole sweeps of the held-out events through the eager batch-8
  // forward for `budget` seconds; `score` counts predictions (only the
  // trained model's are meaningful). Inference cost does not depend on
  // the weight values, so both slices time the same work.
  const double eval_budget = 0.5 * (1.0 - kTrainShare) * args.seconds;
  std::vector<double> eval_runs;
  std::size_t correct = 0, seen = 0;
  auto eval_slice = [&](double budget, bool score) {
    const Clock::time_point t0 = Clock::now();
    do {
      for (std::size_t first = 0; first < held_out.size();
           first += kEvalBatch) {
        const data::Batch b = pool_batch(held_out, first, kEvalBatch);
        const Clock::time_point r0 = Clock::now();
        const Tensor& logits = eval.forward(b.images);
        eval_runs.push_back(seconds_since(r0));
        if (!score) continue;
        for (std::size_t i = 0; i < kEvalBatch; ++i) {
          const int pred = logits.data()[i * 2 + 1] > logits.data()[i * 2];
          correct += pred == b.labels[i];
          ++seen;
        }
      }
    } while (seconds_since(t0) < budget);
  };

  // ---------------- inference slice on the initial model ----------------
  eval_slice(eval_budget, false);

  // ---------------- training rounds ----------------
  const double train_budget = kTrainShare * args.seconds;
  const std::vector<Round> rounds = train_rounds(cfg, pool, train_budget);
  std::vector<const Round*> all;
  for (const Round& r : rounds) all.push_back(&r);
  const double step_s = median_step(all);
  std::size_t attempted = rounds.size() * kIterations * kGroups;

  if (args.trace) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    obs::Counter& raw = reg.counter("pf15_ps_encode_raw_bytes_total");
    obs::Counter& wire = reg.counter("pf15_ps_encode_wire_bytes_total");
    const double raw0 = raw.value(), wire0 = wire.value();
    start_trace(args);
    const Round traced = train_round(cfg, pool);
    obs::trace_disable();
    attempted += kIterations * kGroups;
    report_round(report, traced);
    const double group_iters = static_cast<double>(kIterations * kGroups);
    const double raw_b = raw.value() - raw0, wire_b = wire.value() - wire0;
    report.layer("ps.payload_bytes_per_iter", raw_b / group_iters, "B");
    report.layer("ps.wire_bytes_per_iter", wire_b / group_iters, "B");
    report.layer("ps.compression_ratio", raw_b > 0 ? wire_b / raw_b : 0.0,
                 "ratio");
    report.layer("trace.overhead_pct",
                 100.0 * (median_step({&traced}) / step_s - 1.0), "%");

    // Layer profile of the same net on the calling thread, tuning done.
    solver::AdamSolver adam(warm.params(), kLearningRate);
    const StepLedger ledger = profile_hep_steps(report, warm.net(), adam,
                                                pool, kMicroBatch, 8);
    report_step_ledger(report, ledger, first_step_s, median(ledger.total));
    report.layer("data.gen_ms_per_batch", gen_ms_per_batch, "ms");
    report_plan_cache(report);
    finish_trace();
  }

  // ---------------- inference slice on the trained model ----------------
  const Round& last = rounds.back();
  {
    std::vector<nn::Param> params = eval.params();
    for (std::size_t i = 0; i < params.size(); ++i) {
      params[i].value->copy_from(last.result.final_params[i]);
    }
  }
  eval_slice(eval_budget, true);
  attempted += eval_runs.size();
  const double eval_s = median(eval_runs);

  // ---------------- output checks ----------------
  std::size_t tensors = 0;
  std::uint64_t params = 0;
  for (const Tensor& t : last.result.final_params) {
    ++tensors;
    params += t.numel();
  }
  const std::uint64_t analytic = analytic_group_bytes(params, kGroupSize);
  const std::uint64_t allowance = header_allowance(tensors, kGroupSize);
  std::string bytes_err;
  for (const Round& r : rounds) {
    if (bytes_err.empty()) {
      bytes_err = check_group_bytes(r.result.flight, kGroupSize, analytic,
                                    allowance);
    }
  }
  report.check("hep_hybrid.bytes_per_iteration", bytes_err);
  report.check("hep_hybrid.running_loss",
               check_running_loss(last.running[kLossWindow - 1],
                                  last.running.back()));
  report.check("hep_hybrid.final_params_finite",
               check_finite(last.result.final_params));

  std::vector<double> ttt;
  for (const Round& r : rounds) {
    if (r.time_to_target_s > 0) ttt.push_back(r.time_to_target_s);
  }
  report.reference("time_to_target_s", ttt.empty() ? -1.0 : median(ttt), "s");
  report.reference("hep_hybrid.rounds_reaching_target",
                   static_cast<double>(ttt.size()), "count");
  report.reference("hep_hybrid.rounds", static_cast<double>(rounds.size()),
                   "count");
  report.reference("hep_hybrid.final_running_loss", last.running.back(), "");
  report.reference("hep_hybrid.eval_accuracy",
                   static_cast<double>(correct) / static_cast<double>(seen),
                   "");
  report.reference("hep_hybrid.analytic_group_bytes",
                   static_cast<double>(analytic), "B");
  report.reference("hep_hybrid.first_step_s", first_step_s, "s");
  report.reference("hep_hybrid.round_s", rounds.front().wall_s, "s");

  report.e2e("setup_s", setup, "s");
  report.e2e("train_samples_per_s",
             static_cast<double>(kWorkers * kMicroBatch) / step_s,
             "samples/s");
  report.e2e("infer_samples_per_s", static_cast<double>(kEvalBatch) / eval_s,
             "samples/s");
  report.e2e("infer_latency_p50_ms", eval_s * 1e3, "ms");
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  report.count(attempted, 0);
}

}  // namespace perfbench
