// Residual (skip) connections.
//
// ACOUSTIC supports residual connections (paper III-C: "Convolutions ...
// residual connections are all supported"): the skip activation is loaded
// into the output counters before the block's final conv accumulates on
// top (the CNTLD instruction of Table I), so the addition costs nothing.
//
// In this library a skip is a pair of layers sharing one SkipState:
//   auto state = std::make_shared<SkipState>();
//   net.add<SkipSave>(state);   // start of block: records its input
//   ... block layers ...
//   net.add<SkipAdd>(state);    // end of block: adds the recorded tensor
// Both behave as ordinary layers for forward/backward, so training and the
// bit-level simulators (which run them in the binary domain, matching the
// counter-preload hardware) need no special cases.
#pragma once

#include <memory>

#include "nn/conv.hpp"
#include "nn/layer.hpp"

namespace acoustic::nn {

/// Shared state of one skip connection.
struct SkipState {
  Tensor saved;      ///< activation recorded by SkipSave
  Tensor skip_grad;  ///< gradient flowing back through the skip path
  bool grad_valid = false;
};

/// Identity layer that records its input for a later SkipAdd.
class SkipSave final : public Layer {
 public:
  explicit SkipSave(std::shared_ptr<SkipState> state);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] Kind kind() const noexcept override {
    return Kind::kSkipSave;
  }
  [[nodiscard]] Shape output_shape(Shape input) const override {
    return input;
  }
  [[nodiscard]] std::string name() const override { return "skip-save"; }

  [[nodiscard]] const std::shared_ptr<SkipState>& state() const noexcept {
    return state_;
  }

 private:
  std::shared_ptr<SkipState> state_;
};

/// Projection conv on the skip path: transforms the tensor the paired
/// SkipSave recorded (saved = proj(saved)) while passing its own input
/// through unchanged. ResNet downsample blocks use a 1x1 stride-2 conv
/// here so the skip tensor matches the block output shape at SkipAdd.
/// Sits between the SkipSave and the block's main-path layers, so forward
/// and backward order fall out of the ordinary linear walk.
class SkipProject final : public Layer {
 public:
  SkipProject(std::shared_ptr<SkipState> state, const ConvSpec& spec);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<ParamView> parameters() override { return proj_.parameters(); }
  std::vector<std::span<float>> parameter_values() override {
    return proj_.parameter_values();
  }
  void zero_gradients() override { proj_.zero_gradients(); }
  [[nodiscard]] Kind kind() const noexcept override {
    return Kind::kSkipProject;
  }
  [[nodiscard]] Shape output_shape(Shape input) const override {
    return input;
  }
  [[nodiscard]] std::string name() const override {
    return "skip-project(" + proj_.name() + ")";
  }

  [[nodiscard]] Conv2D& conv() noexcept { return proj_; }
  [[nodiscard]] const Conv2D& conv() const noexcept { return proj_; }
  [[nodiscard]] const std::shared_ptr<SkipState>& state() const noexcept {
    return state_;
  }

 private:
  std::shared_ptr<SkipState> state_;
  Conv2D proj_;
};

/// Adds the tensor recorded by the paired SkipSave to its input
/// (counter-preload semantics: out = block(x) + x).
class SkipAdd final : public Layer {
 public:
  explicit SkipAdd(std::shared_ptr<SkipState> state);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] Kind kind() const noexcept override {
    return Kind::kSkipAdd;
  }
  [[nodiscard]] Shape output_shape(Shape input) const override {
    return input;
  }
  [[nodiscard]] std::string name() const override { return "skip-add"; }

  [[nodiscard]] const std::shared_ptr<SkipState>& state() const noexcept {
    return state_;
  }

 private:
  std::shared_ptr<SkipState> state_;
};

}  // namespace acoustic::nn
