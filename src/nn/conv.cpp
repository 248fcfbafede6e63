#include "nn/conv.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sc/rng.hpp"

namespace acoustic::nn {

namespace {
constexpr float kProdEps = 1e-6f;
}

namespace {
const ConvSpec& validate(const ConvSpec& spec) {
  if (spec.in_channels <= 0 || spec.out_channels <= 0 || spec.kernel <= 0 ||
      spec.stride <= 0 || spec.padding < 0 || spec.groups <= 0) {
    throw std::invalid_argument("Conv2D: invalid spec");
  }
  if (spec.in_channels % spec.groups != 0 ||
      spec.out_channels % spec.groups != 0) {
    throw std::invalid_argument(
        "Conv2D: groups must divide in_channels and out_channels");
  }
  return spec;
}
}  // namespace

Conv2D::Conv2D(const ConvSpec& spec)
    : spec_(validate(spec)),
      weights_(static_cast<std::size_t>(spec.out_channels) * spec.kernel *
               spec.kernel * (spec.in_channels / spec.groups)),
      bias_(spec.bias ? static_cast<std::size_t>(spec.out_channels) : 0) {}

std::size_t Conv2D::weight_index(int oc, int ky, int kx,
                                 int ic) const noexcept {
  return ((static_cast<std::size_t>(oc) * spec_.kernel + ky) * spec_.kernel +
          kx) *
             channels_per_group() +
         (ic - group_base(oc));
}

Shape Conv2D::output_shape(Shape input) const {
  const int oh = (input.h + 2 * spec_.padding - spec_.kernel) / spec_.stride + 1;
  const int ow = (input.w + 2 * spec_.padding - spec_.kernel) / spec_.stride + 1;
  return Shape{oh, ow, spec_.out_channels};
}

std::string Conv2D::name() const {
  return "conv" + std::to_string(spec_.kernel) + "x" +
         std::to_string(spec_.kernel) + "(" +
         std::to_string(spec_.in_channels) + "->" +
         std::to_string(spec_.out_channels) +
         (spec_.groups > 1 ? "/g" + std::to_string(spec_.groups) : "") + ")";
}

void Conv2D::initialize(std::uint32_t seed) {
  sc::XorShift32 rng(seed);
  const float fan_in = static_cast<float>(spec_.kernel) * spec_.kernel *
                       static_cast<float>(channels_per_group());
  const float bound = std::min(1.0f, std::sqrt(6.0f / fan_in));
  for (float& w : weights_) {
    w = (static_cast<float>(rng.next_double()) * 2.0f - 1.0f) * bound;
  }
  for (float& b : bias_) {
    b = 0.0f;
  }
}

void Conv2D::ensure_gradients() {
  weight_grads_.resize(weights_.size());
  bias_grads_.resize(bias_.size());
}

std::vector<ParamView> Conv2D::parameters() {
  ensure_gradients();
  std::vector<ParamView> out;
  out.push_back(ParamView{weights_, weight_grads_});
  if (!bias_.empty()) {
    out.push_back(ParamView{bias_, bias_grads_});
  }
  return out;
}

std::vector<std::span<float>> Conv2D::parameter_values() {
  std::vector<std::span<float>> out{weights_};
  if (!bias_.empty()) {
    out.emplace_back(bias_);
  }
  return out;
}

void Conv2D::zero_gradients() {
  ensure_gradients();
  std::fill(weight_grads_.begin(), weight_grads_.end(), 0.0f);
  std::fill(bias_grads_.begin(), bias_grads_.end(), 0.0f);
}

Tensor Conv2D::forward(const Tensor& input) {
  if (input.shape().c != spec_.in_channels) {
    throw std::invalid_argument("Conv2D: channel mismatch");
  }
  input_ = input;
  switch (spec_.mode) {
    case AccumMode::kSum:
      return forward_sum(input);
    case AccumMode::kOrApprox:
      return forward_or(input, /*exact=*/false);
    case AccumMode::kOrExact:
      return forward_or(input, /*exact=*/true);
  }
  throw std::logic_error("Conv2D: bad mode");
}

Tensor Conv2D::forward_sum(const Tensor& input) {
  const Shape out_shape = output_shape(input.shape());
  Tensor out(out_shape);
  const Shape in = input.shape();
  for (int oy = 0; oy < out_shape.h; ++oy) {
    for (int ox = 0; ox < out_shape.w; ++ox) {
      for (int oc = 0; oc < out_shape.c; ++oc) {
        float acc = bias_.empty() ? 0.0f : bias_[oc];
        const int ic0 = group_base(oc);
        const int ic1 = ic0 + channels_per_group();
        for (int ky = 0; ky < spec_.kernel; ++ky) {
          const int iy = oy * spec_.stride + ky - spec_.padding;
          if (iy < 0 || iy >= in.h) {
            continue;
          }
          for (int kx = 0; kx < spec_.kernel; ++kx) {
            const int ix = ox * spec_.stride + kx - spec_.padding;
            if (ix < 0 || ix >= in.w) {
              continue;
            }
            for (int ic = ic0; ic < ic1; ++ic) {
              acc += input.at(iy, ix, ic) *
                     weights_[weight_index(oc, ky, kx, ic)];
            }
          }
        }
        out.at(oy, ox, oc) = acc;
      }
    }
  }
  return out;
}

Tensor Conv2D::forward_or(const Tensor& input, bool exact) {
  const Shape out_shape = output_shape(input.shape());
  Tensor out(out_shape);
  sum_pos_ = Tensor(out_shape);
  sum_neg_ = Tensor(out_shape);
  const Shape in = input.shape();
  for (int oy = 0; oy < out_shape.h; ++oy) {
    for (int ox = 0; ox < out_shape.w; ++ox) {
      for (int oc = 0; oc < out_shape.c; ++oc) {
        // Positive phase accumulates products with positive weights,
        // negative phase products with negative weights (split-unipolar).
        double s_pos = 0.0;
        double s_neg = 0.0;
        double prod_pos = 1.0;
        double prod_neg = 1.0;
        const int ic0 = group_base(oc);
        const int ic1 = ic0 + channels_per_group();
        for (int ky = 0; ky < spec_.kernel; ++ky) {
          const int iy = oy * spec_.stride + ky - spec_.padding;
          if (iy < 0 || iy >= in.h) {
            continue;
          }
          for (int kx = 0; kx < spec_.kernel; ++kx) {
            const int ix = ox * spec_.stride + kx - spec_.padding;
            if (ix < 0 || ix >= in.w) {
              continue;
            }
            for (int ic = ic0; ic < ic1; ++ic) {
              const float a = input.at(iy, ix, ic);
              const float w = weights_[weight_index(oc, ky, kx, ic)];
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
          }
        }
        if (exact) {
          sum_pos_.at(oy, ox, oc) = static_cast<float>(prod_pos);
          sum_neg_.at(oy, ox, oc) = static_cast<float>(prod_neg);
          out.at(oy, ox, oc) = static_cast<float>(prod_neg - prod_pos);
        } else {
          sum_pos_.at(oy, ox, oc) = static_cast<float>(s_pos);
          sum_neg_.at(oy, ox, oc) = static_cast<float>(s_neg);
          // (1 - e^{-s_p}) - (1 - e^{-s_n}) = e^{-s_n} - e^{-s_p}
          out.at(oy, ox, oc) =
              static_cast<float>(std::exp(-s_neg) - std::exp(-s_pos));
        }
      }
    }
  }
  return out;
}

Tensor Conv2D::backward(const Tensor& grad_output) {
  ensure_gradients();
  switch (spec_.mode) {
    case AccumMode::kSum:
      return backward_sum(grad_output);
    case AccumMode::kOrApprox:
      return backward_or(grad_output, /*exact=*/false);
    case AccumMode::kOrExact:
      return backward_or(grad_output, /*exact=*/true);
  }
  throw std::logic_error("Conv2D: bad mode");
}

Tensor Conv2D::backward_sum(const Tensor& grad_output) {
  const Shape in = input_.shape();
  const Shape out_shape = grad_output.shape();
  Tensor grad_input(in);
  for (int oy = 0; oy < out_shape.h; ++oy) {
    for (int ox = 0; ox < out_shape.w; ++ox) {
      for (int oc = 0; oc < out_shape.c; ++oc) {
        const float g = grad_output.at(oy, ox, oc);
        if (!bias_.empty()) {
          bias_grads_[oc] += g;
        }
        const int ic0 = group_base(oc);
        const int ic1 = ic0 + channels_per_group();
        for (int ky = 0; ky < spec_.kernel; ++ky) {
          const int iy = oy * spec_.stride + ky - spec_.padding;
          if (iy < 0 || iy >= in.h) {
            continue;
          }
          for (int kx = 0; kx < spec_.kernel; ++kx) {
            const int ix = ox * spec_.stride + kx - spec_.padding;
            if (ix < 0 || ix >= in.w) {
              continue;
            }
            for (int ic = ic0; ic < ic1; ++ic) {
              const std::size_t wi = weight_index(oc, ky, kx, ic);
              weight_grads_[wi] += g * input_.at(iy, ix, ic);
              grad_input.at(iy, ix, ic) += g * weights_[wi];
            }
          }
        }
      }
    }
  }
  return grad_input;
}

Tensor Conv2D::backward_or(const Tensor& grad_output, bool exact) {
  const Shape in = input_.shape();
  const Shape out_shape = grad_output.shape();
  Tensor grad_input(in);
  for (int oy = 0; oy < out_shape.h; ++oy) {
    for (int ox = 0; ox < out_shape.w; ++ox) {
      for (int oc = 0; oc < out_shape.c; ++oc) {
        const float g = grad_output.at(oy, ox, oc);
        // dOut/dTerm for each phase. OrApprox: out = e^{-s_n} - e^{-s_p},
        // dOut/ds_p = e^{-s_p}, dOut/ds_n = -e^{-s_n}. OrExact: out =
        // prod_neg - prod_pos, dOut/dterm_i(pos) = prod_pos / (1 - term_i).
        const float cached_pos = sum_pos_.at(oy, ox, oc);
        const float cached_neg = sum_neg_.at(oy, ox, oc);
        const float dpos =
            exact ? cached_pos : std::exp(-cached_pos);
        const float dneg =
            exact ? cached_neg : std::exp(-cached_neg);
        const int ic0 = group_base(oc);
        const int ic1 = ic0 + channels_per_group();
        for (int ky = 0; ky < spec_.kernel; ++ky) {
          const int iy = oy * spec_.stride + ky - spec_.padding;
          if (iy < 0 || iy >= in.h) {
            continue;
          }
          for (int kx = 0; kx < spec_.kernel; ++kx) {
            const int ix = ox * spec_.stride + kx - spec_.padding;
            if (ix < 0 || ix >= in.w) {
              continue;
            }
            for (int ic = ic0; ic < ic1; ++ic) {
              const std::size_t wi = weight_index(oc, ky, kx, ic);
              const float a = input_.at(iy, ix, ic);
              const float w = weights_[wi];
              float dterm;  // dOut/dTerm where term = a * |w|
              if (w >= 0.0f) {
                dterm = exact ? dpos / std::max(1.0f - a * w, kProdEps)
                              : dpos;
              } else {
                dterm = exact ? -dneg / std::max(1.0f + a * w, kProdEps)
                              : -dneg;
              }
              // term = a*|w|; dTerm/dw = a*sign(w), dTerm/da = |w|.
              const float sign = (w >= 0.0f) ? 1.0f : -1.0f;
              weight_grads_[wi] += g * dterm * a * sign;
              grad_input.at(iy, ix, ic) += g * dterm * std::fabs(w);
            }
          }
        }
      }
    }
  }
  return grad_input;
}

}  // namespace acoustic::nn
