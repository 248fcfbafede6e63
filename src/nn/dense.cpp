#include "nn/dense.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sc/rng.hpp"

namespace acoustic::nn {

namespace {
constexpr float kProdEps = 1e-6f;
}

namespace {
const DenseSpec& validate(const DenseSpec& spec) {
  if (spec.in_features <= 0 || spec.out_features <= 0) {
    throw std::invalid_argument("Dense: invalid spec");
  }
  return spec;
}
}  // namespace

Dense::Dense(const DenseSpec& spec)
    : spec_(validate(spec)),
      weights_(static_cast<std::size_t>(spec.out_features) *
               spec.in_features),
      bias_(spec.bias ? static_cast<std::size_t>(spec.out_features) : 0) {}

Shape Dense::output_shape(Shape input) const {
  (void)input;
  return Shape{1, 1, spec_.out_features};
}

std::string Dense::name() const {
  return "dense(" + std::to_string(spec_.in_features) + "->" +
         std::to_string(spec_.out_features) + ")";
}

void Dense::initialize(std::uint32_t seed) {
  sc::XorShift32 rng(seed);
  const float bound =
      std::min(1.0f, std::sqrt(6.0f / static_cast<float>(spec_.in_features)));
  for (float& w : weights_) {
    w = (static_cast<float>(rng.next_double()) * 2.0f - 1.0f) * bound;
  }
  for (float& b : bias_) {
    b = 0.0f;
  }
}

void Dense::ensure_gradients() {
  weight_grads_.resize(weights_.size());
  bias_grads_.resize(bias_.size());
}

std::vector<ParamView> Dense::parameters() {
  ensure_gradients();
  std::vector<ParamView> out;
  out.push_back(ParamView{weights_, weight_grads_});
  if (!bias_.empty()) {
    out.push_back(ParamView{bias_, bias_grads_});
  }
  return out;
}

std::vector<std::span<float>> Dense::parameter_values() {
  std::vector<std::span<float>> out{weights_};
  if (!bias_.empty()) {
    out.emplace_back(bias_);
  }
  return out;
}

void Dense::zero_gradients() {
  ensure_gradients();
  std::fill(weight_grads_.begin(), weight_grads_.end(), 0.0f);
  std::fill(bias_grads_.begin(), bias_grads_.end(), 0.0f);
}

Tensor Dense::forward(const Tensor& input) {
  if (static_cast<int>(input.size()) != spec_.in_features) {
    throw std::invalid_argument("Dense: feature-count mismatch");
  }
  input_ = input;
  Tensor out = Tensor::vector(spec_.out_features);
  const auto x = input.data();
  if (spec_.mode == AccumMode::kSum) {
    for (int o = 0; o < spec_.out_features; ++o) {
      float acc = bias_.empty() ? 0.0f : bias_[o];
      for (int i = 0; i < spec_.in_features; ++i) {
        acc += x[i] * weights_[weight_index(o, i)];
      }
      out[o] = acc;
    }
    return out;
  }
  const bool exact = spec_.mode == AccumMode::kOrExact;
  cache_pos_.assign(static_cast<std::size_t>(spec_.out_features), 0.0f);
  cache_neg_.assign(static_cast<std::size_t>(spec_.out_features), 0.0f);
  for (int o = 0; o < spec_.out_features; ++o) {
    double s_pos = 0.0;
    double s_neg = 0.0;
    double prod_pos = 1.0;
    double prod_neg = 1.0;
    for (int i = 0; i < spec_.in_features; ++i) {
      const float a = x[i];
      const float w = weights_[weight_index(o, i)];
      const float term = a * std::fabs(w);
      if (exact) {
        if (w > 0.0f) {
          prod_pos *= 1.0 - term;
        } else if (w < 0.0f) {
          prod_neg *= 1.0 - term;
        }
      } else {
        if (w > 0.0f) {
          s_pos += term;
        } else if (w < 0.0f) {
          s_neg += term;
        }
      }
    }
    if (exact) {
      cache_pos_[o] = static_cast<float>(prod_pos);
      cache_neg_[o] = static_cast<float>(prod_neg);
      out[o] = static_cast<float>(prod_neg - prod_pos);
    } else {
      cache_pos_[o] = static_cast<float>(s_pos);
      cache_neg_[o] = static_cast<float>(s_neg);
      out[o] = static_cast<float>(std::exp(-s_neg) - std::exp(-s_pos));
    }
  }
  return out;
}

Tensor Dense::backward(const Tensor& grad_output) {
  ensure_gradients();
  Tensor grad_input(input_.shape());
  const auto x = input_.data();
  if (spec_.mode == AccumMode::kSum) {
    for (int o = 0; o < spec_.out_features; ++o) {
      const float g = grad_output[o];
      if (!bias_.empty()) {
        bias_grads_[o] += g;
      }
      for (int i = 0; i < spec_.in_features; ++i) {
        const std::size_t wi = weight_index(o, i);
        weight_grads_[wi] += g * x[i];
        grad_input[static_cast<std::size_t>(i)] += g * weights_[wi];
      }
    }
    return grad_input;
  }
  const bool exact = spec_.mode == AccumMode::kOrExact;
  for (int o = 0; o < spec_.out_features; ++o) {
    const float g = grad_output[o];
    const float dpos = exact ? cache_pos_[o] : std::exp(-cache_pos_[o]);
    const float dneg = exact ? cache_neg_[o] : std::exp(-cache_neg_[o]);
    for (int i = 0; i < spec_.in_features; ++i) {
      const std::size_t wi = weight_index(o, i);
      const float a = x[i];
      const float w = weights_[wi];
      float dterm;
      if (w >= 0.0f) {
        dterm = exact ? dpos / std::max(1.0f - a * w, kProdEps) : dpos;
      } else {
        dterm = exact ? -dneg / std::max(1.0f + a * w, kProdEps) : -dneg;
      }
      const float sign = (w >= 0.0f) ? 1.0f : -1.0f;
      weight_grads_[wi] += g * dterm * a * sign;
      grad_input[static_cast<std::size_t>(i)] += g * dterm * std::fabs(w);
    }
  }
  return grad_input;
}

}  // namespace acoustic::nn
