// hep_serve: the paper-width HEP net trained single-worker (the plain
// baseline of hep_hybrid) and served from a checkpoint by a ServingEngine
// that runs compiled replicas behind the dynamic batcher.
//
// Set-up trains one step (first-sight tuning), checkpoints the net and
// builds the engine from the checkpoint. The measured phase is whole
// cycles of two training steps, an open loop offering a fixed rate well
// below capacity from one generator thread (latency timed from each
// request's scheduled send time), and a closed loop keeping a fixed
// window of requests outstanding — so every metric samples the whole run
// window. Every response is checked against unbatched eager inference
// from the same checkpoint.
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <mutex>
#include <thread>

#include "checks.hpp"
#include "graph/compiled_plan.hpp"
#include "hybrid/trainable.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/checkpoint.hpp"
#include "serve/engine.hpp"
#include "solver/solver.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace pf15;

constexpr std::size_t kTrainBatch = 8;
constexpr std::size_t kTrainEvents = 256;
constexpr std::size_t kRequestEvents = 64;
constexpr double kLearningRate = 2e-4;
constexpr std::size_t kReplicas = 2;
constexpr std::size_t kMaxBatch = 16;
constexpr std::uint64_t kMaxWaitUs = 500;
/// Open-loop offered rate, well below the engine's capacity.
constexpr double kOpenRate = 80.0;
/// Requests kept outstanding by the closed loop.
constexpr std::size_t kWindow = 32;
/// One cycle: training steps, then seconds of open and of closed loop.
constexpr std::size_t kTrainStepsPerCycle = 2;
constexpr double kOpenCycleS = 0.35;
constexpr double kClosedCycleS = 0.35;
constexpr double kResponseRtol = 1e-3;

struct Answer {
  std::size_t event = 0;  // index into the request pool
  Tensor output;
};

/// What one kind of loop measured, summed over cycles.
struct LoopResult {
  std::vector<Answer> answers;
  std::size_t submitted = 0;
  std::size_t failed = 0;
  std::vector<double> latency_s;  // open loop: from scheduled send
  std::vector<double> submit_s;   // duration of each submit() call
  double late_max_s = 0.0;        // open loop: generator lateness
  double window_s = 0.0;          // closed loop: time admitting requests
  std::size_t in_window = 0;      // closed loop: answered inside it
  std::size_t batches = 0;        // engine batches during the loop
};

/// Open loop for `seconds`: one generator thread submits on a fixed
/// schedule while a collector thread stamps completions (checking at
/// least every 200 us); drains before returning.
void open_loop(serve::ServingEngine& engine,
               const std::vector<data::Sample>& events, double seconds,
               LoopResult& res) {
  struct Pending {
    std::size_t event;
    Clock::time_point due;
    std::future<Tensor> fut;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> handoff;
  bool done = false;
  const std::size_t batches0 = engine.stats().batches;

  std::thread collector([&] {
    std::vector<Pending> pending;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu);
        if (pending.empty()) {
          cv.wait(lock, [&] { return done || !handoff.empty(); });
          if (done && handoff.empty()) return;
        }
        while (!handoff.empty()) {
          pending.push_back(std::move(handoff.front()));
          handoff.pop_front();
        }
      }
      pending.front().fut.wait_for(std::chrono::microseconds(200));
      const Clock::time_point now = Clock::now();
      for (std::size_t i = 0; i < pending.size();) {
        Pending& p = pending[i];
        if (p.fut.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++i;
          continue;
        }
        try {
          Answer a{p.event, p.fut.get()};
          res.latency_s.push_back(
              std::chrono::duration<double>(now - p.due).count());
          res.answers.push_back(std::move(a));
        } catch (const std::exception&) {
          ++res.failed;
        }
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
  });

  const std::size_t total = static_cast<std::size_t>(seconds * kOpenRate);
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < total; ++i) {
    const Clock::time_point due =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(static_cast<double>(i) /
                                               kOpenRate));
    std::this_thread::sleep_until(due);
    const Clock::time_point s0 = Clock::now();
    res.late_max_s = std::max(
        res.late_max_s, std::chrono::duration<double>(s0 - due).count());
    const std::size_t event = res.submitted % events.size();
    std::future<Tensor> fut;
    {
      obs::TraceSpan span("serve_submit", "perfbench");
      fut = engine.submit(events[event].image);
    }
    res.submit_s.push_back(seconds_since(s0));
    ++res.submitted;
    {
      std::lock_guard<std::mutex> lock(mu);
      handoff.push_back({event, due, std::move(fut)});
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  collector.join();
  res.batches += engine.stats().batches - batches0;
}

/// Closed loop: kWindow requests outstanding; each completion (oldest
/// first) admits the next request until `seconds` elapse; then drains.
void closed_loop(serve::ServingEngine& engine,
                 const std::vector<data::Sample>& events, double seconds,
                 LoopResult& res) {
  std::deque<std::pair<std::size_t, std::future<Tensor>>> window;
  const std::size_t batches0 = engine.stats().batches;
  const Clock::time_point t0 = Clock::now();
  auto submit = [&] {
    const std::size_t event = res.submitted % events.size();
    window.emplace_back(event, engine.submit(events[event].image));
    ++res.submitted;
  };
  for (std::size_t i = 0; i < kWindow; ++i) submit();
  while (!window.empty()) {
    try {
      res.answers.push_back(
          {window.front().first, window.front().second.get()});
    } catch (const std::exception&) {
      ++res.failed;
    }
    window.pop_front();
    if (seconds_since(t0) < seconds) {
      ++res.in_window;
      submit();
    }
  }
  res.window_s += seconds;
  res.batches += engine.stats().batches - batches0;
}

double mean_batch(const LoopResult& r) {
  return r.batches ? static_cast<double>(r.submitted) /
                         static_cast<double>(r.batches)
                   : 0.0;
}

/// Median run time of `plan` at `batch`, over `reps` runs.
double plan_run_ms(graph::CompiledPlan& plan,
                   const std::vector<data::Sample>& events, std::size_t batch,
                   std::size_t reps) {
  const data::Batch b = pool_batch(events, 0, batch);
  std::vector<double> runs;
  for (std::size_t i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    plan.run(b.images);
    runs.push_back(seconds_since(t0));
  }
  return median(runs) * 1e3;
}

}  // namespace

void run_hep_serve(const Args& args, Report& report,
                   Clock::time_point start) {
  // ---------------- set-up (timed from process start) ----------------
  const nn::HepConfig cfg = paper_hep_config(args.seed);
  const Clock::time_point gen0 = Clock::now();
  const std::vector<data::Sample> train_events =
      make_hep_events(derive_seed(args.seed, 4), kTrainEvents);
  const double gen_ms_per_batch =
      seconds_since(gen0) * 1e3 /
      (static_cast<double>(kTrainEvents) / kTrainBatch);
  const std::vector<data::Sample> requests =
      make_hep_events(derive_seed(args.seed, 6), kRequestEvents);

  hybrid::HepTrainable model(cfg);
  solver::AdamSolver adam(model.params(), kLearningRate);
  std::size_t steps_done = 0;
  auto step = [&] {
    const data::Batch b =
        pool_batch(train_events, steps_done++ * kTrainBatch, kTrainBatch);
    const Clock::time_point t0 = Clock::now();
    {
      obs::TraceSpan span("train_step", "perfbench");
      model.train_step(b);
      adam.step();
    }
    return seconds_since(t0);
  };
  const double first_step_s = step();  // tunes all three conv phases

  const std::string ckpt = args.out_dir + "/hep_serve-seed" +
                           std::to_string(args.seed) + ".ckpt";
  serve::checkpoint_model_file(ckpt, model.net(), "hep");
  auto factory = [&cfg] { return nn::build_hep_network(cfg); };
  serve::EngineConfig ec;
  ec.replicas = kReplicas;
  ec.sample_shape = Shape{cfg.channels, cfg.image, cfg.image};
  ec.batcher.max_batch = kMaxBatch;
  ec.batcher.max_wait_us = kMaxWaitUs;
  ec.batcher.queue_capacity = 1024;
  ec.compiled = true;
  serve::ServingEngine engine(factory, ckpt, "hep", ec);
  const double setup = seconds_since(start);

  // ---------------- measured cycles ----------------
  struct Cycles {
    std::vector<double> steps;
    LoopResult open, closed;
  };
  auto run_cycles = [&] {
    Cycles c;
    const Clock::time_point t0 = Clock::now();
    do {
      for (std::size_t i = 0; i < kTrainStepsPerCycle; ++i) {
        c.steps.push_back(step());
      }
      open_loop(engine, requests, kOpenCycleS, c.open);
      closed_loop(engine, requests, kClosedCycleS, c.closed);
    } while (seconds_since(t0) < args.seconds);
    return c;
  };
  const Cycles cycles = run_cycles();
  const double step_s = median(cycles.steps);
  const LoopResult& open = cycles.open;
  const LoopResult& closed = cycles.closed;
  const double closed_rate =
      static_cast<double>(closed.in_window) / closed.window_s;
  std::size_t attempted =
      1 + cycles.steps.size() + open.submitted + closed.submitted;
  std::size_t failed = open.failed + closed.failed;

  if (args.trace) {
    obs::Histogram& qwait = obs::MetricsRegistry::global().histogram(
        "pf15_serve_queue_wait_seconds", {});
    const double qsum0 = qwait.sum();
    const std::uint64_t qn0 = qwait.count();
    start_trace(args);
    const Cycles traced = run_cycles();
    obs::trace_disable();
    attempted += traced.steps.size() + traced.open.submitted +
                 traced.closed.submitted;
    failed += traced.open.failed + traced.closed.failed;
    const double qn = static_cast<double>(qwait.count() - qn0);
    report.layer("serve.submit_us", mean(traced.open.submit_s) * 1e6, "us");
    report.layer("serve.queue_wait_ms",
                 qn > 0 ? (qwait.sum() - qsum0) / qn * 1e3 : 0.0, "ms");
    report.layer("serve.mean_batch_open", mean_batch(traced.open), "count");
    report.layer("serve.mean_batch_closed", mean_batch(traced.closed),
                 "count");
    report.layer("serve.generator_late_ms_max",
                 traced.open.late_max_s * 1e3, "ms");
    const double traced_rate = static_cast<double>(traced.closed.in_window) /
                               traced.closed.window_s;
    report.layer("trace.overhead_pct",
                 100.0 * (closed_rate / traced_rate - 1.0), "%");

    const graph::CompileReport* cr = engine.compile_report();
    report.layer("graph.compile_s", cr->compile_seconds, "s");
    report.layer("graph.pretune_s", cr->pretune_seconds, "s");
    report.layer("graph.pretune_misses",
                 static_cast<double>(cr->pretune_misses), "count");
    report.layer("graph.max_level_width",
                 static_cast<double>(cr->max_level_width), "count");
    report.layer("graph.wide_level_nodes",
                 static_cast<double>(cr->wide_level_nodes), "count");
    report.layer("graph.arena_mb",
                 static_cast<double>(cr->arena_floats_per_sample *
                                     sizeof(float) * kMaxBatch) /
                     1e6,
                 "MB");

    // The compiled executor alone, on the calling thread, at the batch
    // sizes the batcher produces under light and saturating load.
    nn::Sequential net = factory();
    serve::restore_model_file(ckpt, net, "hep");
    net.set_training(false);
    graph::CompileOptions copt;
    copt.max_batch = kMaxBatch;
    graph::CompiledPlan plan = graph::compile(net, ec.sample_shape, copt);
    report.layer("graph.run_ms_b1", plan_run_ms(plan, requests, 1, 64), "ms");
    report.layer("graph.run_ms_b16", plan_run_ms(plan, requests, 16, 16),
                 "ms");

    // Layer profile of the training steps, tuning done.
    const StepLedger ledger = profile_hep_steps(
        report, model.net(), adam, train_events, kTrainBatch, 8);
    report_step_ledger(report, ledger, first_step_s, step_s);
    report.layer("data.gen_ms_per_batch", gen_ms_per_batch, "ms");
    report_plan_cache(report);
    finish_trace();
  }

  // ---------------- output checks ----------------
  nn::Sequential reference = factory();
  serve::restore_model_file(ckpt, reference, "hep");
  reference.set_training(false);
  std::vector<Tensor> want;
  for (const data::Sample& ev : requests) {
    want.push_back(reference.forward(stack_samples({&ev.image})).clone());
  }
  std::string err;
  for (const LoopResult* loop : {&open, &closed}) {
    for (const Answer& a : loop->answers) {
      if (!err.empty()) break;
      Tensor w(a.output.shape());
      std::copy(want[a.event].data(), want[a.event].data() + w.numel(),
                w.data());
      err = check_response(a.output, w, kResponseRtol);
      if (!err.empty()) err = "event " + std::to_string(a.event) + ": " + err;
    }
  }
  report.check("hep_serve.responses_match_eager", err);
  report.check("hep_serve.all_answered",
               check_answered(open.submitted + closed.submitted,
                              open.answers.size() + closed.answers.size()));
  std::remove(ckpt.c_str());

  report.reference("serve_latency_p99_ms",
                   quantile(open.latency_s, 0.99) * 1e3, "ms");
  report.reference("hep_serve.open_requests",
                   static_cast<double>(open.submitted), "count");
  report.reference("hep_serve.open_rate_rps", kOpenRate, "1/s");
  report.reference("hep_serve.closed_requests",
                   static_cast<double>(closed.submitted), "count");
  report.reference("hep_serve.mean_batch_open", mean_batch(open), "count");
  report.reference("hep_serve.mean_batch_closed", mean_batch(closed),
                   "count");
  report.reference("hep_serve.generator_late_ms_max", open.late_max_s * 1e3,
                   "ms");
  report.reference("hep_serve.first_step_s", first_step_s, "s");

  report.e2e("setup_s", setup, "s");
  report.e2e("train_samples_per_s", static_cast<double>(kTrainBatch) / step_s,
             "samples/s");
  report.e2e("infer_samples_per_s", closed_rate, "samples/s");
  report.e2e("infer_latency_p50_ms", quantile(open.latency_s, 0.5) * 1e3,
             "ms");
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  report.count(attempted, failed);
}

}  // namespace perfbench
