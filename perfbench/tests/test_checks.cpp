// Tests of the benchmark's output checks: each check accepts a correct
// output and rejects a broken one (a perturbed conv output, a wrong byte
// formula, a dropped response, ...). Run with
// `python3 perfbench/run.py --self-test`; exits non-zero on any failure.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>

#include "checks.hpp"
#include "common/rng.hpp"
#include "data/hep_generator.hpp"
#include "hybrid/hybrid_trainer.hpp"
#include "nn/conv2d.hpp"

namespace {

using namespace pf15;
using namespace perfbench;

int g_failures = 0;

void expect_pass(const std::string& err, const char* what) {
  if (!err.empty()) {
    ++g_failures;
    std::printf("FAIL %s: expected pass, got \"%s\"\n", what, err.c_str());
  } else {
    std::printf("ok   %s\n", what);
  }
}

void expect_reject(const std::string& err, const char* what) {
  if (err.empty()) {
    ++g_failures;
    std::printf("FAIL %s: broken output was accepted\n", what);
  } else {
    std::printf("ok   %s (rejected: %s)\n", what, err.c_str());
  }
}

Tensor slice(const Tensor& batch, std::size_t i) {
  const Shape& s = batch.shape();
  Tensor out(Shape{s[1], s[2], s[3]});
  std::copy(batch.data() + i * out.numel(),
            batch.data() + (i + 1) * out.numel(), out.data());
  return out;
}

void test_conv_against_naive() {
  Rng rng(5);
  nn::Conv2dConfig cfg;
  cfg.in_channels = 3;
  cfg.out_channels = 4;
  cfg.kernel = 5;
  cfg.stride = 2;
  cfg.pad = 2;
  nn::Conv2d conv("c", cfg, rng);
  Tensor in(Shape{2, 3, 12, 12});
  in.fill_uniform(rng, -1.0f, 1.0f);
  Tensor out;
  conv.forward(in, out);
  const Tensor want =
      naive_conv2d(slice(in, 1), conv.weight(), conv.bias(), 2, 2);
  Tensor got = slice(out, 1);
  expect_pass(check_close(got, want, 1e-4), "conv matches naive direct conv");
  got.data()[7] += 1e-2f * (1.0f + std::abs(got.data()[7]));
  expect_reject(check_close(got, want, 1e-4), "perturbed conv output");
  expect_reject(check_close(slice(out, 0), want, 1e-4),
                "conv output of the wrong image");
  Tensor wrong_shape(Shape{4, 6, 5});
  expect_reject(check_close(wrong_shape, want, 1e-4), "wrong output shape");
}

void test_loss_and_boxes() {
  expect_pass(check_loss_decreased(2.0, 1.5), "loss decreased");
  expect_reject(check_loss_decreased(1.5, 1.5), "loss flat");
  expect_reject(check_loss_decreased(1.5, std::nan("")), "loss NaN");
  nn::Box inside;
  inside.x = 0.2f;
  inside.y = 0.3f;
  inside.w = 0.1f;
  inside.h = 0.4f;
  expect_pass(check_boxes_inside({{inside}, {}}), "boxes inside");
  nn::Box outside = inside;
  outside.x = 1.2f;
  expect_reject(check_boxes_inside({{inside}, {outside}}), "box off image");
  nn::Box empty = inside;
  empty.w = 0.0f;
  expect_reject(check_boxes_inside({{empty}}), "zero-width box");
}

void test_hybrid_bytes() {
  // A tiny hybrid job with the benchmark's layout: 2 groups of 2 workers,
  // one PS rank, fp16 codec.
  nn::HepConfig cfg = nn::HepConfig::tiny();
  data::HepGeneratorConfig gen_cfg;
  gen_cfg.image = cfg.image;
  data::HepGenerator gen(gen_cfg);
  std::vector<data::Sample> pool;
  for (int i = 0; i < 8; ++i) {
    data::HepEvent ev = gen.generate(i % 2 == 0);
    pool.push_back({std::move(ev.image), ev.label, true, {}});
  }
  hybrid::HybridConfig hc;
  hc.num_workers = 4;
  hc.num_groups = 2;
  hc.num_ps = 1;
  hc.iterations = 3;
  hc.ps_codec = ps::Codec::kFp16;
  hybrid::HybridTrainer trainer(
      hc, [&] { return std::make_unique<hybrid::HepTrainable>(cfg); },
      [&](int rank, std::size_t it) {
        std::vector<const data::Sample*> ptrs = {
            &pool[(it * 4 + static_cast<std::size_t>(rank)) % pool.size()]};
        return data::make_batch(ptrs);
      });
  hybrid::TrainResult result = trainer.run();
  std::uint64_t params = 0;
  for (const Tensor& t : result.final_params) params += t.numel();
  const std::size_t tensors = result.final_params.size();
  const std::uint64_t allowance = header_allowance(tensors, 2);
  expect_pass(check_group_bytes(result.flight, 2,
                                analytic_group_bytes(params, 2), allowance),
              "hybrid bytes match the analytic volume");
  // Wrong formulas: fp32 PS push, or no model broadcast.
  expect_reject(check_group_bytes(result.flight, 2,
                                  analytic_group_bytes(params, 2) + 2 * params,
                                  allowance),
                "byte formula with an fp32 PS push");
  expect_reject(check_group_bytes(result.flight, 2,
                                  analytic_group_bytes(params, 2) - 4 * params,
                                  allowance),
                "byte formula without the broadcast");
  std::vector<obs::IterationRecord> dropped = result.flight;
  dropped[1].wire_bytes /= 2;
  expect_reject(check_group_bytes(dropped, 2, analytic_group_bytes(params, 2),
                                  allowance),
                "a rank that sent half its bytes");
  expect_reject(check_group_bytes({}, 2, analytic_group_bytes(params, 2),
                                  allowance),
                "no flight records");

  expect_pass(check_finite(result.final_params), "trained params finite");
  std::vector<Tensor> broken;
  for (const Tensor& t : result.final_params) broken.push_back(t.clone());
  broken.back().data()[0] = std::numeric_limits<float>::infinity();
  expect_reject(check_finite(broken), "an infinite parameter");
}

void test_running_loss() {
  expect_pass(check_running_loss(0.9, 0.5), "running loss below ln 2");
  expect_reject(check_running_loss(0.9, 0.7), "running loss above ln 2");
  expect_reject(check_running_loss(0.5, 0.6), "running loss rose");
}

void test_responses() {
  Tensor want(Shape{2});
  want.data()[0] = 0.4999f;
  want.data()[1] = 0.5001f;
  Tensor got = want.clone();
  expect_pass(check_response(got, want, 1e-3), "response equals eager");
  got.data()[0] = 0.6f;
  expect_reject(check_response(got, want, 1e-3), "perturbed response");
  got.data()[0] = 0.5001f;
  got.data()[1] = 0.4999f;
  expect_reject(check_response(got, want, 1e-3),
                "response within tolerance but with another argmax");
  expect_pass(check_answered(10, 10), "all requests answered");
  expect_reject(check_answered(10, 9), "a dropped response");
}

}  // namespace

int main() {
  setenv("PF15_CONV_PLAN_CACHE", "off", 1);  // never read or write plans
  test_conv_against_naive();
  test_loss_and_boxes();
  test_hybrid_bytes();
  test_running_loss();
  test_responses();
  std::printf("%s: %d failure(s)\n", g_failures ? "FAILED" : "PASSED",
              g_failures);
  return g_failures ? 1 : 0;
}
