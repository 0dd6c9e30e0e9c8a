#include "checks.hpp"

#include <cmath>
#include <map>
#include <sstream>
#include <utility>

namespace perfbench {

using pf15::Tensor;

Tensor naive_conv2d(const Tensor& image, const Tensor& weight,
                    const Tensor& bias, std::size_t stride, std::size_t pad) {
  const pf15::Shape& is = image.shape();  // (C, H, W)
  const pf15::Shape& ws = weight.shape();  // (OC, C, K, K)
  const std::size_t c = is[0], h = is[1], w = is[2];
  const std::size_t oc = ws[0], k = ws[2];
  const std::size_t oh = (h + 2 * pad - k) / stride + 1;
  const std::size_t ow = (w + 2 * pad - k) / stride + 1;
  Tensor out(pf15::Shape{oc, oh, ow});
  for (std::size_t o = 0; o < oc; ++o) {
    for (std::size_t y = 0; y < oh; ++y) {
      for (std::size_t x = 0; x < ow; ++x) {
        double acc = bias.defined() ? bias.data()[o] : 0.0;
        for (std::size_t ci = 0; ci < c; ++ci) {
          for (std::size_t ky = 0; ky < k; ++ky) {
            const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(y * stride + ky) -
                                      static_cast<std::ptrdiff_t>(pad);
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
            for (std::size_t kx = 0; kx < k; ++kx) {
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(x * stride + kx) -
                  static_cast<std::ptrdiff_t>(pad);
              if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
              acc += static_cast<double>(
                         weight.data()[((o * c + ci) * k + ky) * k + kx]) *
                     image.data()[(ci * h + static_cast<std::size_t>(iy)) * w +
                                  static_cast<std::size_t>(ix)];
            }
          }
        }
        out.data()[(o * oh + y) * ow + x] = static_cast<float>(acc);
      }
    }
  }
  return out;
}

std::string check_close(const Tensor& got, const Tensor& want, double rtol) {
  std::ostringstream msg;
  if (!(got.shape() == want.shape())) {
    msg << "shape " << got.shape() << " != " << want.shape();
    return msg.str();
  }
  for (std::size_t i = 0; i < got.numel(); ++i) {
    const double g = got.data()[i];
    const double r = want.data()[i];
    if (!(std::abs(g - r) <= rtol * (1.0 + std::abs(r)))) {
      msg << "element " << i << ": " << g << " vs " << r << " (rtol "
          << rtol << ")";
      return msg.str();
    }
  }
  return "";
}

std::string check_loss_decreased(double first, double last) {
  if (!std::isfinite(first) || !std::isfinite(last)) {
    return "non-finite loss";
  }
  if (!(last < first)) {
    std::ostringstream msg;
    msg << "last-pass mean loss " << last << " not below first-pass "
        << first;
    return msg.str();
  }
  return "";
}

std::string check_boxes_inside(
    const std::vector<std::vector<pf15::nn::Box>>& boxes) {
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    for (const pf15::nn::Box& b : boxes[i]) {
      const bool inside = b.x >= 0.0f && b.y >= 0.0f && b.w > 0.0f &&
                          b.h > 0.0f && b.x <= 1.0f && b.y <= 1.0f &&
                          b.w <= 1.0f && b.h <= 1.0f;
      if (!inside) {
        std::ostringstream msg;
        msg << "image " << i << ": box (" << b.x << ", " << b.y << ", "
            << b.w << ", " << b.h << ") leaves the image";
        return msg.str();
      }
    }
  }
  return "";
}

std::uint64_t analytic_group_bytes(std::uint64_t params, int group_size) {
  const std::uint64_t g = static_cast<std::uint64_t>(group_size);
  const std::uint64_t ring = 2 * (g - 1) * 4 * params;  // summed over g
  const std::uint64_t ps_push = 2 * params;             // fp16
  const std::uint64_t broadcast = (g - 1) * 4 * params;
  return ring + ps_push + broadcast;
}

std::uint64_t header_allowance(std::size_t tensors, int group_size) {
  const std::uint64_t g = static_cast<std::uint64_t>(group_size);
  // Per tensor: 3 header floats + up to 2 pad bytes on the PS push.
  // Per iteration: the ring all-reduce of the scalar loss.
  return tensors * (3 * 4 + 2) + 2 * (g - 1) * 4;
}

std::string check_group_bytes(
    const std::vector<pf15::obs::IterationRecord>& flight, int group_size,
    std::uint64_t analytic, std::uint64_t allowance) {
  if (flight.empty()) return "no flight records";
  std::map<std::pair<int, int>, std::uint64_t> sums;  // (group, iteration)
  for (const auto& r : flight) {
    sums[{r.rank / group_size, r.iteration}] += r.wire_bytes;
  }
  for (const auto& [key, bytes] : sums) {
    if (bytes < analytic || bytes > analytic + allowance) {
      std::ostringstream msg;
      msg << "group " << key.first << " iteration " << key.second << " sent "
          << bytes << " B, analytic " << analytic << " B + at most "
          << allowance << " B of headers";
      return msg.str();
    }
  }
  return "";
}

std::string check_running_loss(double start, double end) {
  if (!std::isfinite(start) || !std::isfinite(end)) {
    return "non-finite running loss";
  }
  std::ostringstream msg;
  if (!(end < std::log(2.0))) {
    msg << "running-mean loss ends at " << end << ", not below ln 2";
    return msg.str();
  }
  if (!(end < start)) {
    msg << "running-mean loss ends at " << end << ", not below its start "
        << start;
    return msg.str();
  }
  return "";
}

std::string check_finite(const std::vector<Tensor>& params) {
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (!params[i].all_finite()) {
      return "parameter tensor " + std::to_string(i) + " is not finite";
    }
  }
  return "";
}

std::string check_response(const Tensor& got, const Tensor& want,
                           double rtol) {
  std::string err = check_close(got, want, rtol);
  if (!err.empty()) return err;
  auto argmax = [](const Tensor& t) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < t.numel(); ++i) {
      if (t.data()[i] > t.data()[best]) best = i;
    }
    return best;
  };
  if (argmax(got) != argmax(want)) return "argmax differs from eager";
  return "";
}

std::string check_answered(std::size_t submitted, std::size_t answered) {
  if (submitted == answered) return "";
  return std::to_string(answered) + " of " + std::to_string(submitted) +
         " requests answered";
}

}  // namespace perfbench
