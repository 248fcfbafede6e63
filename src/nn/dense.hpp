// Fully-connected layer with selectable accumulation semantics.
//
// Mirrors Conv2D's three modes (see nn/layer.hpp). ACOUSTIC executes FC
// layers by spreading one kernel across 6 fabric rows (512 inputs of
// individual weights, paper section III-B); arithmetically that is the same
// split-unipolar OR-accumulating MAC, so the training model is identical.
// Input tensors of any shape are treated as flat vectors.
#pragma once

#include <vector>

#include "nn/layer.hpp"

namespace acoustic::nn {

struct DenseSpec {
  int in_features = 1;
  int out_features = 1;
  bool bias = false;  ///< kSum mode only
  AccumMode mode = AccumMode::kSum;
};

class Dense final : public Layer {
 public:
  explicit Dense(const DenseSpec& spec);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<ParamView> parameters() override;
  std::vector<std::span<float>> parameter_values() override;
  void zero_gradients() override;
  [[nodiscard]] Kind kind() const noexcept override { return Kind::kDense; }
  [[nodiscard]] Shape output_shape(Shape input) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const DenseSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::span<float> weights() noexcept { return weights_; }
  [[nodiscard]] std::span<const float> weights() const noexcept {
    return weights_;
  }
  void set_mode(AccumMode mode) noexcept { spec_.mode = mode; }
  void initialize(std::uint32_t seed);

  /// Flat index of weight (out_feature o, in_feature i).
  [[nodiscard]] std::size_t weight_index(int o, int i) const noexcept {
    return static_cast<std::size_t>(o) * spec_.in_features +
           static_cast<std::size_t>(i);
  }

 private:
  /// Sizes the gradients to the parameters (zeroed) on their first use,
  /// so a network only run forward, like an inference snapshot, never
  /// holds a gradient array as large as its weights.
  void ensure_gradients();

  DenseSpec spec_;
  std::vector<float> weights_;
  std::vector<float> weight_grads_;  ///< empty until first needed
  std::vector<float> bias_;
  std::vector<float> bias_grads_;    ///< empty until first needed

  Tensor input_;
  std::vector<float> cache_pos_;  // s_p or prod_pos per output
  std::vector<float> cache_neg_;  // s_n or prod_neg per output
};

}  // namespace acoustic::nn
