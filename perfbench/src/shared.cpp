// Helpers shared by the workloads: HEP model and event pool, plan-cache
// and layer-profile reporting, the training-step ledger with its sgemm
// roofline probe, trace files.
#include <algorithm>
#include <map>

#include "common/task_scheduler.hpp"
#include "data/hep_generator.hpp"
#include "gemm/conv_backend.hpp"
#include "gemm/gemm.hpp"
#include "nn/losses.hpp"
#include "obs/trace.hpp"
#include "perf/json.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace pf15;

nn::HepConfig paper_hep_config(std::uint64_t seed) {
  nn::HepConfig cfg;  // 5 conv units x 128 filters, 2 classes
  cfg.image = 64;
  cfg.seed = derive_seed(seed, 3);
  return cfg;
}

std::vector<data::Sample> make_hep_events(std::uint64_t seed,
                                          std::size_t count) {
  data::HepGeneratorConfig gen_cfg;
  gen_cfg.image = 64;
  gen_cfg.seed = seed;
  data::HepGenerator gen(gen_cfg);
  std::vector<data::Sample> events;
  events.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    data::HepEvent ev = gen.generate(i % 2 == 0);
    events.push_back({std::move(ev.image), ev.label, true, {}});
  }
  return events;
}

data::Batch pool_batch(const std::vector<data::Sample>& pool,
                       std::size_t first, std::size_t batch) {
  std::vector<const data::Sample*> ptrs;
  for (std::size_t i = 0; i < batch; ++i) {
    ptrs.push_back(&pool[(first + i) % pool.size()]);
  }
  return data::make_batch(ptrs);
}

void report_plan_cache(Report& report) {
  const gemm::ConvPlanCache& cache = gemm::ConvPlanCache::global();
  report.layer("gemm.plan_misses", static_cast<double>(cache.misses()),
               "count");
  report.layer("gemm.tuned_plans", static_cast<double>(cache.tuned_size()),
               "count");
  std::map<std::string, double> winners = {
      {"im2col", 0}, {"winograd", 0}, {"fft", 0}, {"direct", 0}};
  const perf::Json doc = perf::Json::parse(cache.dump());
  const perf::Json& plans = doc.get("plans");
  for (std::size_t i = 0; i < plans.size(); ++i) {
    winners[plans.at(i).get("backend").as_string()] += 1;
  }
  for (const auto& [name, count] : winners) {
    report.layer("gemm.winners." + name, count, "count");
  }
}

double report_layer_profiles(Report& report,
                             const std::vector<nn::LayerProfile>& ps,
                             std::size_t steps) {
  const double n = static_cast<double>(std::max<std::size_t>(1, steps));
  double sum = 0.0;
  for (const nn::LayerProfile& p : ps) {
    sum += (p.forward_seconds + p.backward_seconds) / n;
    if (p.kind != "conv" && p.kind != "deconv") continue;
    const double secs = p.forward_seconds + p.backward_seconds;
    const double flops =
        static_cast<double>(p.forward_flops + p.backward_flops);
    report.layer("nn." + p.name + ".fwd_ms", p.forward_seconds / n * 1e3,
                 "ms");
    report.layer("nn." + p.name + ".bwd_ms", p.backward_seconds / n * 1e3,
                 "ms");
    report.layer("nn." + p.name + ".gflops",
                 secs > 0 ? flops / secs / 1e9 : 0.0, "GFLOP/s");
  }
  return sum;
}

namespace {

/// Best-of-3 single-thread sgemm rate at 1024^3, in GFLOP/s.
double sgemm_peak_gflops() {
  constexpr std::size_t n = 1024;
  std::vector<float> a(n * n, 0.5f), b(n * n, 0.25f), c(n * n, 0.0f);
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point t0 = Clock::now();
    gemm::sgemm(false, false, n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f,
                c.data(), n);
    const double secs = seconds_since(t0);
    best = std::max(best, static_cast<double>(gemm::flops(n, n, n)) / secs /
                              1e9);
  }
  return best;
}

}  // namespace

void report_step_ledger(Report& report, const StepLedger& ledger,
                        double first_step_s, double warm_step_s) {
  const double mean_step = mean(ledger.total);
  report.layer("nn.forward_ms", median(ledger.forward) * 1e3, "ms");
  report.layer("nn.loss_ms", median(ledger.loss) * 1e3, "ms");
  report.layer("nn.backward_ms", median(ledger.backward) * 1e3, "ms");
  report.layer("solver.step_ms", median(ledger.solver) * 1e3, "ms");
  report.layer("nn.profile_residual_pct",
               100.0 * (mean_step - ledger.layers_s - mean(ledger.solver)) /
                   mean_step,
               "%");
  report.layer("gemm.tune_s", first_step_s - warm_step_s, "s");
  report.layer("gemm.executed_gflop_per_step", ledger.gflop_per_step,
               "GFLOP");
  const double peak = sgemm_peak_gflops();
  report.layer("gemm.peak_gflops", peak, "GFLOP/s");
  const double workers = static_cast<double>(TaskScheduler::global().size());
  report.layer("nn.train_roofline_pct",
               100.0 * ledger.gflop_per_step / median(ledger.total) /
                   (peak * workers),
               "%");
}

StepLedger profile_hep_steps(Report& report, nn::Sequential& net,
                             solver::Solver& solver,
                             const std::vector<data::Sample>& pool,
                             std::size_t batch, std::size_t steps) {
  nn::SoftmaxCrossEntropy loss;
  Tensor probs, dlogits;
  StepLedger ledger;
  net.reset_profiles();
  const std::uint64_t flops0 = gemm::executed_flops();
  for (std::size_t i = 0; i < steps; ++i) {
    const data::Batch b = pool_batch(pool, i * batch, batch);
    const Clock::time_point t0 = Clock::now();
    const Tensor& logits = net.forward(b.images, /*profile=*/true);
    const Clock::time_point t1 = Clock::now();
    loss.forward_backward(logits, b.labels, probs, dlogits);
    const Clock::time_point t2 = Clock::now();
    net.backward(b.images, dlogits, /*profile=*/true);
    const Clock::time_point t3 = Clock::now();
    solver.step();
    const Clock::time_point t4 = Clock::now();
    auto secs = [](Clock::time_point a, Clock::time_point z) {
      return std::chrono::duration<double>(z - a).count();
    };
    ledger.forward.push_back(secs(t0, t1));
    ledger.loss.push_back(secs(t1, t2));
    ledger.backward.push_back(secs(t2, t3));
    ledger.solver.push_back(secs(t3, t4));
    ledger.total.push_back(secs(t0, t4));
  }
  ledger.gflop_per_step =
      static_cast<double>(gemm::executed_flops() - flops0) / 1e9 /
      static_cast<double>(steps);
  ledger.layers_s = report_layer_profiles(report, net.profiles(), steps);
  return ledger;
}

void start_trace(const Args& args) {
  obs::trace_enable(args.out_dir + "/trace-" + args.workload + "-seed" +
                    std::to_string(args.seed) + ".json");
}

void finish_trace() {
  obs::trace_disable();
  obs::trace_flush();
}

}  // namespace perfbench
