// The InferenceBackend adapters must behave exactly like the executors
// they wrap, snapshot weights at construction, and support independent
// clones — the contract sim::BatchEvaluator builds on.
#include "sim/backend.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <stdexcept>

#include "nn/activation.hpp"
#include "nn/batchnorm.hpp"
#include "nn/pool.hpp"
#include "sim/bipolar_network.hpp"
#include "sim/sc_network.hpp"
#include "train/dataset.hpp"
#include "train/models.hpp"

namespace acoustic::sim {
namespace {

nn::Network make_net() {
  return train::build_lenet_small(nn::AccumMode::kOrApprox, 16);
}

train::Dataset make_data(std::size_t count) {
  return train::make_synth_digits(count, 1234, 16);
}

ScConfig small_sc() {
  ScConfig cfg;
  cfg.stream_length = 32;
  return cfg;
}

void expect_same_tensor(const nn::Tensor& a, const nn::Tensor& b) {
  ASSERT_EQ(a.data().size(), b.data().size());
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    EXPECT_EQ(a.data()[i], b.data()[i]) << "element " << i;
  }
}

TEST(Backend, FloatMatchesNetworkForward) {
  nn::Network net = make_net();
  nn::Network reference = net.clone();
  const auto backend = make_float_backend(net);
  EXPECT_EQ(backend->name(), "float");
  for (const train::Sample& s : make_data(3).samples) {
    expect_same_tensor(backend->forward(s.image),
                       reference.forward(s.image));
  }
}

TEST(Backend, ScMatchesRawScNetwork) {
  nn::Network net = make_net();
  ScNetwork raw(net, small_sc());
  const auto backend = make_sc_backend(net, small_sc());
  EXPECT_EQ(backend->name(), "sc");
  for (const train::Sample& s : make_data(2).samples) {
    expect_same_tensor(backend->forward(s.image), raw.forward(s.image));
  }
}

TEST(Backend, ScMuxNameReflectsPooling) {
  nn::Network net = make_net();
  ScConfig cfg = small_sc();
  cfg.pooling = PoolingMode::kMux;
  EXPECT_EQ(make_sc_backend(net, cfg)->name(), "sc-mux");
}

TEST(Backend, BipolarMatchesRawBipolarNetwork) {
  nn::Network net = train::build_lenet_small(nn::AccumMode::kSum, 16);
  BipolarConfig cfg;
  cfg.stream_length = 32;
  BipolarNetwork raw(net, cfg);
  const auto backend = make_bipolar_backend(net, cfg);
  EXPECT_EQ(backend->name(), "bipolar");
  for (const train::Sample& s : make_data(2).samples) {
    expect_same_tensor(backend->forward(s.image), raw.forward(s.image));
  }
}

/// conv + BatchNorm + avg pool + ReLU + dense over 8x8x2 inputs: the
/// smallest net whose SC lowering folds a BatchNorm into a conv stage.
nn::Network make_bn_net() {
  nn::Network net;
  auto& conv = net.add<nn::Conv2D>(nn::ConvSpec{
      .in_channels = 2, .out_channels = 4, .kernel = 3, .padding = 1});
  auto& bn = net.add<nn::BatchNorm>(nn::BatchNormSpec{.channels = 4});
  net.add<nn::AvgPool2D>(2);
  net.add<nn::ReLU>();
  auto& dense =
      net.add<nn::Dense>(nn::DenseSpec{.in_features = 64, .out_features = 5});
  conv.initialize(31);
  bn.initialize(32);
  dense.initialize(33);
  return net;
}

bool any_differs(const nn::Tensor& a, const nn::Tensor& b) {
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    if (a.data()[i] != b.data()[i]) {
      return true;
    }
  }
  return false;
}

TEST(Backend, SnapshotsWeightsAtConstruction) {
  // The raw executors read weights live; the backend adapters instead
  // clone the network, so later mutation of the source must not change
  // the backend's outputs.
  nn::Network net = make_net();
  const train::Sample sample = make_data(1).samples.front();
  const auto backend = make_float_backend(net);
  const nn::Tensor before = backend->forward(sample.image);
  for (nn::ParamView view : net.parameters()) {
    for (float& v : view.values) {
      v += 1.0f;
    }
  }
  expect_same_tensor(backend->forward(sample.image), before);

  // The same for the stochastic adapters, through the conv weights and a
  // BatchNorm gamma (which the SC lowering folds into the conv's weight
  // levels). The SC backend's executor reuses its tables without
  // re-reading its weights, which is sound only because of this.
  nn::Tensor input(nn::Shape{8, 8, 2});
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<float>((i * 37) % 101) / 100.0f;
  }
  BipolarConfig bipolar_cfg;
  bipolar_cfg.stream_length = 32;
  for (const char* name : {"sc", "sc-mux", "bipolar"}) {
    SCOPED_TRACE(name);
    nn::Network source = make_bn_net();
    const auto sc = make_backend(name, source, small_sc(), bipolar_cfg);
    const nn::Tensor first = sc->forward(input);
    for (std::size_t i = 0; i < source.layer_count(); ++i) {
      nn::Layer& layer = source.layer(i);
      if (layer.kind() == nn::Layer::Kind::kConv2D) {
        for (float& w : static_cast<nn::Conv2D&>(layer).weights()) {
          w = -w;
        }
      } else if (layer.kind() == nn::Layer::Kind::kBatchNorm) {
        const std::span<float> gamma =
            static_cast<nn::BatchNorm&>(layer).gamma();
        gamma[1] = -2.0f * gamma[1];
      }
    }
    expect_same_tensor(sc->forward(input), first);
    expect_same_tensor(sc->clone()->forward(input), first);
    // The mutation is not a no-op: a backend over the mutated source
    // computes something else.
    EXPECT_TRUE(any_differs(
        make_backend(name, source, small_sc(), bipolar_cfg)->forward(input),
        first));
  }
}

TEST(Backend, CloneProducesIdenticalOutputs) {
  nn::Network net = make_net();
  const auto backend = make_sc_backend(net, small_sc());
  const auto clone = backend->clone();
  EXPECT_EQ(clone->name(), backend->name());
  for (const train::Sample& s : make_data(2).samples) {
    expect_same_tensor(clone->forward(s.image),
                       backend->forward(s.image));
  }
}

TEST(Backend, StatsCountSamplesAndWork) {
  nn::Network net = make_net();
  const auto backend = make_sc_backend(net, small_sc());
  const train::Dataset data = make_data(3);
  for (const train::Sample& s : data.samples) {
    (void)backend->forward(s.image);
  }
  const RunStats stats = backend->stats();
  EXPECT_EQ(stats.samples, 3u);
  EXPECT_GT(stats.layers_run, 0u);
  EXPECT_GT(stats.product_bits, 0u);
  EXPECT_GT(stats.skipped_operands, 0u);
}

TEST(Backend, TakeStatsReturnsAndResets) {
  nn::Network net = make_net();
  const auto backend = make_float_backend(net);
  const train::Sample sample = make_data(1).samples.front();
  (void)backend->forward(sample.image);
  (void)backend->forward(sample.image);
  const RunStats taken = backend->take_stats();
  EXPECT_EQ(taken.samples, 2u);
  const RunStats after = backend->stats();
  EXPECT_EQ(after.samples, 0u);
  EXPECT_EQ(after.layers_run, 0u);
  EXPECT_EQ(after.product_bits, 0u);
  EXPECT_EQ(after.skipped_operands, 0u);
}

TEST(Backend, TakeStatsResetsScExecutorToo) {
  nn::Network net = make_net();
  const auto backend = make_sc_backend(net, small_sc());
  const train::Sample sample = make_data(1).samples.front();
  (void)backend->forward(sample.image);
  const RunStats first = backend->take_stats();
  EXPECT_GT(first.product_bits, 0u);
  (void)backend->forward(sample.image);
  const RunStats second = backend->take_stats();
  // Same sample, freshly reset counters: the second run's stats must equal
  // the first run's, not accumulate on top of them.
  EXPECT_EQ(second.samples, first.samples);
  EXPECT_EQ(second.layers_run, first.layers_run);
  EXPECT_EQ(second.product_bits, first.product_bits);
  EXPECT_EQ(second.skipped_operands, first.skipped_operands);
}

TEST(Backend, MakeBackendResolvesAllNames) {
  nn::Network net = make_net();
  EXPECT_EQ(make_backend("float", net)->name(), "float");
  EXPECT_EQ(make_backend("sc", net, small_sc())->name(), "sc");
  EXPECT_EQ(make_backend("sc-mux", net, small_sc())->name(), "sc-mux");
  EXPECT_EQ(make_backend("bipolar", net)->name(), "bipolar");
}

TEST(Backend, MakeBackendForcesPoolingMode) {
  // The name selects the pooling mode even if the passed config disagrees.
  nn::Network net = make_net();
  ScConfig cfg = small_sc();
  cfg.pooling = PoolingMode::kMux;
  EXPECT_EQ(make_backend("sc", net, cfg)->name(), "sc");
  cfg.pooling = PoolingMode::kSkipping;
  EXPECT_EQ(make_backend("sc-mux", net, cfg)->name(), "sc-mux");
}

TEST(Backend, MakeBackendRejectsUnknownName) {
  nn::Network net = make_net();
  EXPECT_THROW((void)make_backend("fixed-point", net),
               std::invalid_argument);
}

TEST(RunStats, MergeIsFieldwiseSum) {
  RunStats a{1, 2, 3, 4};
  const RunStats b{10, 20, 30, 40};
  a.merge(b);
  EXPECT_EQ(a, (RunStats{11, 22, 33, 44}));
}

}  // namespace
}  // namespace acoustic::sim
