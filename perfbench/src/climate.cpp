// climate: semi-supervised climate net at half scale (96x96, 16 channels,
// widths 32..160, batch 8), trained with SGD+momentum on a fixed pool of
// generated labelled and unlabelled batches and run through a
// graph::CompiledPlan at batch 8.
//
// The measured phase is whole cycles of one training pass over the pool
// followed by three compiled-inference sweeps of it, so both metrics
// sample the whole run window. The timed plan is compiled at set-up from
// the initial weights (inference cost does not depend on weight values);
// the trained net is compiled again afterwards for the output checks.
#include <algorithm>
#include <string>

#include "checks.hpp"
#include "common/task_scheduler.hpp"
#include "data/climate_generator.hpp"
#include "gemm/gemm.hpp"
#include "graph/compiled_plan.hpp"
#include "nn/boxes.hpp"
#include "nn/climate_net.hpp"
#include "obs/trace.hpp"
#include "solver/solver.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace pf15;

constexpr std::size_t kBatch = 8;
constexpr std::size_t kPoolBatches = 4;
constexpr double kLearningRate = 5e-3;
constexpr double kMomentum = 0.9;
/// Compiled-inference sweeps over the pool per training pass.
constexpr std::size_t kInferSweeps = 3;
constexpr double kCompiledRtol = 1e-3;
constexpr double kConvRtol = 1e-4;
/// Decoded-box confidence threshold (the paper keeps > 0.8; a briefly
/// trained net is less sure of itself).
constexpr float kBoxThreshold = 0.5f;

nn::ClimateConfig half_scale_config(std::uint64_t seed) {
  nn::ClimateConfig cfg;
  cfg.image = 96;
  cfg.channels = 16;
  cfg.classes = 4;
  cfg.widths = {32, 64, 96, 128, 160};
  cfg.seed = derive_seed(seed, 2);
  return cfg;
}

struct StepTimes {
  double forward = 0, loss = 0, backward = 0, solver = 0, total = 0;
  double loss_value = 0;
};

/// One SGD step, phase by phase, each phase wrapped in a trace span.
StepTimes train_step(nn::ClimateNet& net, const nn::ClimateLoss& loss,
                     nn::ClimateNet::OutputGrads& grads,
                     solver::Solver& sgd, const data::Batch& batch,
                     bool profile) {
  std::vector<nn::ClimateTarget> targets(batch.labels.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    targets[i].boxes = batch.boxes[i];
    targets[i].labeled = batch.labeled[i];
  }
  StepTimes t;
  const Clock::time_point t0 = Clock::now();
  const nn::ClimateNet::Outputs* out = nullptr;
  {
    obs::TraceSpan span("nn_forward", "perfbench");
    out = &net.forward(batch.images, profile);
  }
  const Clock::time_point t1 = Clock::now();
  {
    obs::TraceSpan span("nn_loss", "perfbench");
    t.loss_value = loss.compute(*out, batch.images, targets, grads).total();
  }
  const Clock::time_point t2 = Clock::now();
  {
    obs::TraceSpan span("nn_backward", "perfbench");
    net.backward(batch.images, grads, profile);
  }
  const Clock::time_point t3 = Clock::now();
  {
    obs::TraceSpan span("solver_step", "perfbench");
    sgd.step();
  }
  const Clock::time_point t4 = Clock::now();
  auto secs = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  t.forward = secs(t0, t1);
  t.loss = secs(t1, t2);
  t.backward = secs(t2, t3);
  t.solver = secs(t3, t4);
  t.total = secs(t0, t4);
  return t;
}

struct Cycles {
  std::vector<StepTimes> steps;
  std::vector<double> pass_loss;  // mean loss of each training pass
  std::vector<double> runs;       // compiled batch-8 run seconds
  TaskScheduler::Stats sched;     // scheduler work during the runs
};

/// Whole cycles (a training pass, then kInferSweeps compiled sweeps of the
/// pool) until `seconds` have elapsed.
Cycles run_cycles(nn::ClimateNet& net, const nn::ClimateLoss& loss,
                  nn::ClimateNet::OutputGrads& grads, solver::Solver& sgd,
                  graph::CompiledPlan& plan,
                  const std::vector<data::Batch>& pool, double seconds,
                  bool profile) {
  Cycles c;
  TaskScheduler& sched = TaskScheduler::global();
  const Clock::time_point t0 = Clock::now();
  do {
    double sum = 0.0;
    for (const data::Batch& b : pool) {
      c.steps.push_back(train_step(net, loss, grads, sgd, b, profile));
      sum += c.steps.back().loss_value;
    }
    c.pass_loss.push_back(sum / static_cast<double>(pool.size()));
    const TaskScheduler::Stats s0 = sched.stats();
    for (std::size_t sweep = 0; sweep < kInferSweeps; ++sweep) {
      for (const data::Batch& b : pool) {
        obs::TraceSpan span("graph_run", "perfbench");
        const Clock::time_point r0 = Clock::now();
        plan.run_all(b.images);
        c.runs.push_back(seconds_since(r0));
      }
    }
    const TaskScheduler::Stats s1 = sched.stats();
    c.sched.executed += s1.executed - s0.executed;
    c.sched.stolen += s1.stolen - s0.stolen;
  } while (seconds_since(t0) < seconds);
  return c;
}

graph::CompiledPlan compile_for_batch(nn::ClimateNet& net) {
  net.set_training(false);
  graph::CompileOptions copt;
  copt.max_batch = kBatch;
  graph::CompiledPlan plan = graph::compile(net, copt);
  net.set_training(true);
  return plan;
}

}  // namespace

void run_climate(const Args& args, Report& report, Clock::time_point start) {
  // ---------------- set-up (timed from process start) ----------------
  const nn::ClimateConfig cfg = half_scale_config(args.seed);
  data::ClimateGeneratorConfig gen_cfg;
  gen_cfg.image = cfg.image;
  gen_cfg.channels = cfg.channels;
  gen_cfg.classes = cfg.classes;
  gen_cfg.seed = derive_seed(args.seed, 1);
  data::ClimateGenerator gen(gen_cfg);
  const Clock::time_point gen0 = Clock::now();
  std::vector<data::Batch> pool;
  for (std::size_t b = 0; b < kPoolBatches; ++b) {
    std::vector<data::Sample> samples;
    for (std::size_t i = 0; i < kBatch; ++i) {
      data::ClimateSample s = gen.generate();
      samples.push_back({std::move(s.image), 0, s.labeled, s.boxes});
    }
    std::vector<const data::Sample*> ptrs;
    for (const auto& s : samples) ptrs.push_back(&s);
    pool.push_back(data::make_batch(ptrs));
  }
  const double gen_ms_per_batch =
      seconds_since(gen0) * 1e3 / static_cast<double>(kPoolBatches);

  nn::ClimateNet net(cfg);
  nn::ClimateLoss loss;
  nn::ClimateNet::OutputGrads grads;
  solver::SgdSolver sgd(net.params(), kLearningRate, kMomentum);

  // The first step tunes every conv geometry in all three phases; the
  // compile pre-tunes every batch bucket up to 8 for inference.
  const StepTimes first =
      train_step(net, loss, grads, sgd, pool[0], /*profile=*/false);
  graph::CompiledPlan plan = compile_for_batch(net);
  plan.run_all(pool[0].images);  // resolves the frozen dispatch
  const double setup = seconds_since(start);

  // ---------------- measured cycles ----------------
  const Cycles cycles = run_cycles(net, loss, grads, sgd, plan, pool,
                                   args.seconds, /*profile=*/false);
  std::vector<double> totals;
  for (const StepTimes& s : cycles.steps) totals.push_back(s.total);
  const double step_s = median(totals);
  const double run_s = median(cycles.runs);
  std::size_t attempted = 1 + cycles.steps.size() + cycles.runs.size();

  if (args.trace) {
    start_trace(args);
    for (auto* part : {&net.encoder(), &net.decoder(), &net.conf_head(),
                       &net.cls_head(), &net.xy_head(), &net.wh_head()}) {
      part->reset_profiles();
    }
    const std::uint64_t flops0 = gemm::executed_flops();
    const Cycles traced = run_cycles(net, loss, grads, sgd, plan, pool,
                                     args.seconds, /*profile=*/true);
    obs::trace_disable();
    attempted += traced.steps.size() + traced.runs.size();
    // executed_flops() counts the compiled runs too; take their share
    // out at the plan's own per-run count, measured separately below.
    const std::uint64_t cycle_flops = gemm::executed_flops() - flops0;
    const std::uint64_t run0 = gemm::executed_flops();
    plan.run_all(pool[0].images);
    const std::uint64_t run_flops = gemm::executed_flops() - run0;

    const std::size_t n = traced.steps.size();
    StepLedger ledger;
    for (const StepTimes& s : traced.steps) {
      ledger.forward.push_back(s.forward);
      ledger.loss.push_back(s.loss);
      ledger.backward.push_back(s.backward);
      ledger.solver.push_back(s.solver);
      ledger.total.push_back(s.total);
    }
    ledger.gflop_per_step =
        static_cast<double>(cycle_flops - run_flops * traced.runs.size()) /
        1e9 / static_cast<double>(n);
    ledger.layers_s = report_layer_profiles(report, net.profiles(), n);
    report_step_ledger(report, ledger, first.total, step_s);
    report.layer("trace.overhead_pct",
                 100.0 * (median(ledger.total) / step_s - 1.0), "%");
    report.layer("data.gen_ms_per_batch", gen_ms_per_batch, "ms");

    const graph::CompileReport& cr = plan.report();
    const double nruns = static_cast<double>(traced.runs.size());
    report.layer("graph.compile_s", cr.compile_seconds, "s");
    report.layer("graph.pretune_s", cr.pretune_seconds, "s");
    report.layer("graph.pretune_misses",
                 static_cast<double>(cr.pretune_misses), "count");
    report.layer("graph.run_ms", median(traced.runs) * 1e3, "ms");
    report.layer("graph.max_level_width",
                 static_cast<double>(cr.max_level_width), "count");
    report.layer("graph.wide_level_nodes",
                 static_cast<double>(cr.wide_level_nodes), "count");
    report.layer("graph.arena_mb",
                 static_cast<double>(plan.arena_bytes(kBatch)) / 1e6, "MB");
    report.layer("common.sched_tasks_per_step",
                 static_cast<double>(traced.sched.executed) / nruns, "count");
    report.layer("common.sched_steals_per_step",
                 static_cast<double>(traced.sched.stolen) / nruns, "count");
    report_plan_cache(report);
    finish_trace();
  }

  // ---------------- output checks ----------------
  graph::CompiledPlan trained = compile_for_batch(net);
  net.set_training(false);
  const data::Batch& probe = pool[args.seed % pool.size()];
  const std::size_t img = args.seed % kBatch;
  {
    // First encoder conv on one image against a naive direct convolution.
    auto& conv = dynamic_cast<nn::Conv2d&>(net.encoder().layer(0));
    Tensor out;
    conv.forward(probe.images, out);
    const std::size_t in_img = probe.images.numel() / kBatch;
    Tensor image(Shape{cfg.channels, cfg.image, cfg.image});
    std::copy(probe.images.data() + img * in_img,
              probe.images.data() + (img + 1) * in_img, image.data());
    const Tensor want = naive_conv2d(image, conv.weight(), conv.bias(),
                                     conv.config().stride, conv.config().pad);
    Tensor got(want.shape());
    std::copy(out.data() + img * want.numel(),
              out.data() + (img + 1) * want.numel(), got.data());
    report.check("climate.enc_conv1_vs_naive",
                 check_close(got, want, kConvRtol));
  }
  {
    // Compiled plan outputs against eager ClimateNet::forward.
    const std::vector<Tensor>& compiled = trained.run_all(probe.images);
    const nn::ClimateNet::Outputs& eager = net.forward(probe.images);
    const Tensor* want[] = {&eager.conf, &eager.cls, &eager.xy, &eager.wh,
                            &eager.recon};
    std::string err;
    for (std::size_t i = 0; i < 5 && err.empty(); ++i) {
      err = check_close(compiled[i], *want[i], kCompiledRtol);
      if (!err.empty()) err = "output " + std::to_string(i) + ": " + err;
    }
    report.check("climate.compiled_vs_eager", err);
    const auto boxes = nn::decode_boxes(eager, kBoxThreshold);
    std::size_t nbox = 0;
    for (const auto& b : boxes) nbox += b.size();
    report.reference("climate.decoded_boxes", static_cast<double>(nbox),
                     "count");
    report.check("climate.boxes_inside_image", check_boxes_inside(boxes));
  }
  report.check("climate.loss_decreased",
               check_loss_decreased(cycles.pass_loss.front(),
                                    cycles.pass_loss.back()));
  report.reference("climate.first_pass_loss", cycles.pass_loss.front(), "");
  report.reference("climate.last_pass_loss", cycles.pass_loss.back(), "");
  report.reference("climate.cycles",
                   static_cast<double>(cycles.pass_loss.size()), "count");
  report.reference("climate.first_step_s", first.total, "s");

  report.e2e("setup_s", setup, "s");
  report.e2e("train_samples_per_s", static_cast<double>(kBatch) / step_s,
             "samples/s");
  report.e2e("infer_samples_per_s", static_cast<double>(kBatch) / run_s,
             "samples/s");
  report.e2e("infer_latency_p50_ms", run_s * 1e3, "ms");
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  report.count(attempted, 0);
}

}  // namespace perfbench
