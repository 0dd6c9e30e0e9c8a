#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "gemm/simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// The metrics BENCHMARK.json declares, with their units. Untraced runs
/// must report every end-to-end metric; traced runs report every
/// per-layer metric, with 0 for a layer the workload does not use (comm
/// on climate, say).
using Declared = std::vector<std::pair<std::string, std::string>>;

const Declared& end_to_end_metrics() {
  static const Declared metrics = {{"setup_s", "s"},
                                   {"train_samples_per_s", "samples/s"},
                                   {"infer_samples_per_s", "samples/s"},
                                   {"infer_latency_p50_ms", "ms"},
                                   {"peak_rss_mb", "MB"}};
  return metrics;
}

const Declared& per_layer_metrics() {
  static const Declared metrics = [] {
    Declared v = {{"gemm.tune_s", "s"},
                  {"gemm.plan_misses", "count"},
                  {"gemm.tuned_plans", "count"},
                  {"gemm.winners.im2col", "count"},
                  {"gemm.winners.winograd", "count"},
                  {"gemm.winners.fft", "count"},
                  {"gemm.winners.direct", "count"},
                  {"gemm.peak_gflops", "GFLOP/s"},
                  {"gemm.executed_gflop_per_step", "GFLOP"},
                  {"nn.train_roofline_pct", "%"},
                  {"nn.forward_ms", "ms"},
                  {"nn.loss_ms", "ms"},
                  {"nn.backward_ms", "ms"},
                  {"nn.profile_residual_pct", "%"}};
    // Climate (encoder, heads, decoder), then HEP conv layers.
    for (const char* layer :
         {"enc_conv1", "enc_conv2", "enc_conv3", "enc_conv4", "enc_conv5",
          "head_conf", "head_class", "head_xy", "head_wh", "dec_deconv1",
          "dec_deconv2", "dec_deconv3", "dec_deconv4", "dec_deconv5",
          "conv1", "conv2", "conv3", "conv4", "conv5"}) {
      const std::string base = std::string("nn.") + layer;
      v.push_back({base + ".fwd_ms", "ms"});
      v.push_back({base + ".bwd_ms", "ms"});
      v.push_back({base + ".gflops", "GFLOP/s"});
    }
    const Declared rest = {{"solver.step_ms", "ms"},
                           {"graph.compile_s", "s"},
                           {"graph.pretune_s", "s"},
                           {"graph.pretune_misses", "count"},
                           {"graph.run_ms", "ms"},
                           {"graph.run_ms_b1", "ms"},
                           {"graph.run_ms_b16", "ms"},
                           {"graph.max_level_width", "count"},
                           {"graph.wide_level_nodes", "count"},
                           {"graph.arena_mb", "MB"},
                           {"common.sched_tasks_per_step", "count"},
                           {"common.sched_steals_per_step", "count"},
                           {"hybrid.step_ms", "ms"},
                           {"hybrid.compute_ms", "ms"},
                           {"comm.allreduce_ms", "ms"},
                           {"comm.broadcast_ms", "ms"},
                           {"ps.exchange_ms", "ms"},
                           {"hybrid.comm_exposed_pct", "%"},
                           {"hybrid.straggler_lag_ratio", "ratio"},
                           {"comm.bytes_per_iter", "B"},
                           {"ps.payload_bytes_per_iter", "B"},
                           {"ps.wire_bytes_per_iter", "B"},
                           {"ps.compression_ratio", "ratio"},
                           {"ps.staleness_mean", "count"},
                           {"ps.staleness_max", "count"},
                           {"serve.submit_us", "us"},
                           {"serve.queue_wait_ms", "ms"},
                           {"serve.mean_batch_open", "count"},
                           {"serve.mean_batch_closed", "count"},
                           {"serve.generator_late_ms_max", "ms"},
                           {"data.gen_ms_per_batch", "ms"},
                           {"trace.overhead_pct", "%"}};
    v.insert(v.end(), rest.begin(), rest.end());
    return v;
  }();
  return metrics;
}

/// Throws unless `name` is declared in `declared` with `unit`.
void require_declared(const Declared& declared, const std::string& name,
                      const std::string& unit) {
  for (const auto& [n, u] : declared) {
    if (n != name) continue;
    if (u == unit) return;
    throw std::logic_error("metric " + name + " has unit " + u + ", not " +
                           unit);
  }
  throw std::logic_error("metric " + name +
                         " is not declared in BENCHMARK.json");
}

}  // namespace

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        throw std::runtime_error("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (key == "--out") {
      args.out_dir = value;
    } else {
      throw std::runtime_error("unknown argument " + key);
    }
  }
  if (!have_workload) throw std::runtime_error("--workload is required");
  if (!(args.seconds > 0.0)) throw std::runtime_error("--seconds must be > 0");
  return args;
}

void Report::e2e(const std::string& name, double value,
                 const std::string& unit) {
  require_declared(end_to_end_metrics(), name, unit);
  e2e_.push_back({name, value, unit});
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  require_declared(per_layer_metrics(), name, unit);
  layer_.push_back({name, value, unit});
}

void Report::reference(const std::string& name, double value,
                       const std::string& unit) {
  reference_.push_back({name, value, unit});
}

void Report::check(const std::string& what, const std::string& failure) {
  if (failure.empty()) {
    checks_passed_.push_back(what);
  } else {
    failures_.push_back(what + ": " + failure);
    std::fprintf(stderr, "CHECK FAILED %s: %s\n", what.c_str(),
                 failure.c_str());
  }
}

void Report::emit(const Args& args) const {
  auto metrics_object = [](const std::vector<Metric>& ms) {
    std::string out = "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
      if (i) out += ", ";
      out += quoted(ms[i].name) + ": {\"value\": " + number(ms[i].value) +
             ", \"unit\": " + quoted(ms[i].unit) + "}";
    }
    return out + "}";
  };
  auto string_array = [](const std::vector<std::string>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) out += ", ";
      out += quoted(v[i]);
    }
    return out + "]";
  };

  const std::string record =
      "{\"record\": {\"workload\": " + quoted(args.workload) +
      ", \"seed\": " + std::to_string(args.seed) +
      ", \"seconds\": " + number(args.seconds) +
      ", \"trace\": " + (args.trace ? "true" : "false") +
      ", \"host\": " + host_fingerprint().dump(0) +
      ", \"end_to_end\": " + metrics_object(e2e_) +
      ", \"per_layer\": " + metrics_object(layer_) +
      ", \"reference\": " + metrics_object(reference_) +
      ", \"checks_passed\": " + string_array(checks_passed_) +
      ", \"checks_failed\": " + string_array(failures_) + "}}";
  std::printf("%s\n", record.c_str());
  const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0") + ".json";
  std::ofstream(path) << record << "\n";

  // The result carries exactly the declared metrics, in declared order.
  const std::vector<Metric>& measured = args.trace ? layer_ : e2e_;
  std::vector<Metric> declared;
  for (const auto& [name, unit] :
       args.trace ? per_layer_metrics() : end_to_end_metrics()) {
    const auto it =
        std::find_if(measured.begin(), measured.end(),
                     [&](const Metric& m) { return m.name == name; });
    if (it != measured.end()) {
      declared.push_back(*it);
    } else if (args.trace) {
      declared.push_back({name, 0.0, unit});  // layer idle in this workload
    } else {
      throw std::logic_error("workload did not measure " + name);
    }
  }
  const std::string result =
      std::string("{\"correct\": ") + (correct() ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted_) +
      ", \"failed\": " + std::to_string(failed_) +
      ", \"metrics\": " + metrics_object(declared) + "}";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
}

pf15::perf::Json host_fingerprint() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        cpu = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  pf15::perf::Json host = pf15::perf::Json::object();
  host.set("cpu", cpu);
  host.set("logical_cores",
           static_cast<std::size_t>(std::thread::hardware_concurrency()));
  host.set("simd_detected",
           pf15::gemm::to_string(pf15::gemm::simd_detected_level()));
  host.set("simd_active", pf15::gemm::to_string(pf15::gemm::simd_level()));
  host.set("compiler", std::string("g++ ") + __VERSION__);
  host.set("build_type", PERFBENCH_BUILD_TYPE);
  return host;
}

double steal_pct_since_last_call() {
  static std::uint64_t last_steal = 0, last_total = 0;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  std::uint64_t total = 0, steal = 0;
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    stat >> v;
    total += v;
    if (field == 7) steal = v;
  }
  if (!stat || cpu != "cpu") return 0.0;
  const double pct =
      total > last_total
          ? 100.0 * static_cast<double>(steal - last_steal) /
                static_cast<double>(total - last_total)
          : 0.0;
  last_steal = steal;
  last_total = total;
  return pct;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + tag;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
