// Output checks of the end-to-end benchmark. Each check compares what the
// library produced against a computation made apart from it (a naive
// direct convolution, an analytic byte count, eager inference) or against
// a property the method must have (loss falls, boxes lie in the image).
// Every check returns an empty string on success and a description of the
// first violation otherwise, so tests can feed it broken outputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "nn/boxes.hpp"
#include "obs/flight_recorder.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

/// Direct (six nested loops) convolution of one image (C, H, W) with OIHW
/// weights and per-output-channel bias; returns (OC, OH, OW).
pf15::Tensor naive_conv2d(const pf15::Tensor& image,
                          const pf15::Tensor& weight,
                          const pf15::Tensor& bias, std::size_t stride,
                          std::size_t pad);

/// Element-wise |got - want| <= rtol * (1 + |want|) over equal shapes.
std::string check_close(const pf15::Tensor& got, const pf15::Tensor& want,
                        double rtol);

/// The mean loss of the last pass over the batch pool must be below the
/// first pass's, and both must be finite.
std::string check_loss_decreased(double first, double last);

/// Every decoded box lies inside the unit image square and has positive
/// extent.
std::string check_boxes_inside(
    const std::vector<std::vector<pf15::nn::Box>>& boxes);

/// Bytes every worker of one compute group sends in one hybrid iteration,
/// by the textbook formulas over the model's parameter count P: each of
/// the g group members sends 2(g-1)/g * 4P bytes in the ring all-reduce,
/// the group root pushes the fp16 gradient (2P bytes) to the parameter
/// servers, and the binomial broadcast of the fresh fp32 model sends
/// (g-1) * 4P bytes.
std::uint64_t analytic_group_bytes(std::uint64_t params, int group_size);

/// Slack over analytic_group_bytes() for message headers: the PS push
/// carries (group, version, byte count) words and pads fp16 to whole
/// floats per tensor, the loss all-reduce sends one float per rank, and
/// ring chunks of tiny tensors round.
std::uint64_t header_allowance(std::size_t tensors, int group_size);

/// Sums each (group, iteration)'s wire bytes from the flight records and
/// checks every sum lies in [analytic, analytic + allowance].
std::string check_group_bytes(
    const std::vector<pf15::obs::IterationRecord>& flight, int group_size,
    std::uint64_t analytic, std::uint64_t allowance);

/// The running-mean loss must end below ln 2 and below where it started.
std::string check_running_loss(double start, double end);

/// Every parameter value is finite.
std::string check_finite(const std::vector<pf15::Tensor>& params);

/// One served response against the unbatched eager reference: within
/// rtol element-wise and with the same argmax.
std::string check_response(const pf15::Tensor& got,
                           const pf15::Tensor& want, double rtol);

/// Every submitted request was answered.
std::string check_answered(std::size_t submitted, std::size_t answered);

}  // namespace perfbench
