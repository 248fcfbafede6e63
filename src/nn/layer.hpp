// Layer interface for the CNN substrate.
//
// Layers own their parameters and parameter gradients and cache whatever
// they need from forward() to run backward(). The weighted layers (conv,
// dense) support three accumulation modes:
//
//   kSum      — conventional dot-product accumulation (the fixed-point /
//               float baseline arithmetic).
//   kOrApprox — ACOUSTIC training mode (paper section II-D, Eq. (1)): the
//               positive and negative partial sums are passed through
//               1 - e^{-s} separately, modelling split-unipolar OR
//               accumulation at ~10x the speed of the exact model.
//   kOrExact  — exact OR semantics: 1 - prod_i(1 - a_i * w_i) per sign
//               phase. Used to measure the approximation error and the
//               training-speed gap the paper reports.
#pragma once

#include <span>
#include <string>

#include "nn/op.hpp"
#include "nn/tensor.hpp"

namespace acoustic::nn {

/// How a weighted layer accumulates products. See file comment.
enum class AccumMode { kSum, kOrApprox, kOrExact };

/// A mutable view of one parameter array and its gradient, exposed to the
/// optimizer. Both spans have equal length and outlive the optimizer step.
struct ParamView {
  std::span<float> values;
  std::span<float> gradients;
};

/// Base class for all layers. Forward must be called before backward;
/// backward accumulates parameter gradients (zeroed by zero_gradients()).
class Layer {
 public:
  /// Concrete layer type, for executors that dispatch on layer structure
  /// (graph lowering in the SC simulators, network cloning) without RTTI.
  /// An alias of the unified op taxonomy (nn/op.hpp) the zoo descriptors
  /// and the analyzers share.
  using Kind = OpKind;

  virtual ~Layer() = default;

  Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// Computes the layer output for @p input, caching activations needed by
  /// backward().
  virtual Tensor forward(const Tensor& input) = 0;

  /// Inference-only in-place variant: overwrites @p x with forward(x) and
  /// returns true when the layer supports it (same bits as forward(), but
  /// no allocation and no backward() caching). Default: unsupported —
  /// callers fall back to forward(). Shape-preserving layers only.
  virtual bool forward_in_place(Tensor& x) {
    (void)x;
    return false;
  }

  /// Propagates @p grad_output (dLoss/dOutput) to dLoss/dInput, adding
  /// parameter gradients along the way.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Parameter/gradient views for the optimizer; empty for stateless layers.
  virtual std::vector<ParamView> parameters() { return {}; }

  /// The parameter arrays alone, in parameters() order: what copying or
  /// saving a network reads. Layers that allocate their gradients on first
  /// use override it so that inference snapshots never allocate them.
  virtual std::vector<std::span<float>> parameter_values() {
    std::vector<std::span<float>> out;
    for (ParamView& p : parameters()) {
      out.push_back(p.values);
    }
    return out;
  }

  /// Zeroes all parameter gradients.
  virtual void zero_gradients() {}

  /// This layer's concrete type.
  [[nodiscard]] virtual Kind kind() const noexcept = 0;

  /// Output shape for a given input shape (no allocation; pure).
  [[nodiscard]] virtual Shape output_shape(Shape input) const = 0;

  /// Human-readable layer name for reports.
  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace acoustic::nn
