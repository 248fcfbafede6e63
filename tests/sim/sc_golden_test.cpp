// Golden bit-exactness suite for the planned (fast-path) executor.
//
// The stream-plan fast path, the plan-budget fallback and intra-image row
// parallelism are pure refactorings of the scalar reference executor:
// every stream segment they serve is the same pure function of
// (bank, lane, level, offset), counter accumulation is integer-exact and
// output shards are disjoint. These tests pin that down: for every zoo
// model and hand-built stage the planned output must be BYTE-identical to
// the scalar oracle — for 1..N intra threads, with and without per-lane
// decorrelation, and with the plan forced over its byte budget.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "core/diagnostics.hpp"
#include "nn/activation.hpp"
#include "nn/batchnorm.hpp"
#include "nn/model_zoo.hpp"
#include "nn/pool.hpp"
#include "nn/residual.hpp"
#include "nn/zoo_build.hpp"
#include "runtime/thread_pool.hpp"
#include "sc/rng.hpp"
#include "sim/sc_network.hpp"
#include "train/models.hpp"

namespace acoustic::sim {
namespace {

nn::Tensor random_unit(nn::Shape shape, std::uint32_t seed) {
  nn::Tensor t(shape);
  sc::XorShift32 rng(seed);
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.next_double());
  }
  return t;
}

/// Byte-level tensor comparison: exact equality of the float bit patterns,
/// not EXPECT_FLOAT_EQ closeness.
void expect_bytes_equal(const nn::Tensor& got, const nn::Tensor& want,
                        const std::string& label) {
  ASSERT_EQ(got.shape(), want.shape()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const float gf = got[i];
    const float wf = want[i];
    std::uint32_t g = 0;
    std::uint32_t w = 0;
    std::memcpy(&g, &gf, sizeof(g));
    std::memcpy(&w, &wf, sizeof(w));
    ASSERT_EQ(g, w) << label << ": output " << i << " differs (" << gf
                    << " vs " << wf << ")";
  }
}

/// Runs @p net on @p input under every planned configuration and checks
/// each against the scalar oracle.
void expect_planned_matches_scalar(nn::Network& net, const nn::Tensor& input,
                                   ScConfig base) {
  for (const bool decorrelate : {true, false}) {
    base.decorrelate_lanes = decorrelate;

    ScConfig scalar_cfg = base;
    scalar_cfg.exec = ExecMode::kScalar;
    ScNetwork scalar_exec(net, scalar_cfg);
    const nn::Tensor want = scalar_exec.forward(input);
    const ScNetwork::Stats want_stats = scalar_exec.take_stats();

    for (const unsigned threads : {1u, 2u, 3u}) {
      ScConfig planned_cfg = base;
      planned_cfg.exec = ExecMode::kPlanned;
      planned_cfg.intra_threads = threads;
      ScNetwork planned_exec(net, planned_cfg);
      const nn::Tensor got = planned_exec.forward(input);
      const ScNetwork::Stats got_stats = planned_exec.take_stats();

      const std::string label = "decorrelate=" +
                                std::to_string(decorrelate) +
                                " threads=" + std::to_string(threads);
      expect_bytes_equal(got, want, label);
      // The plans the forward just executed must satisfy every structural
      // invariant (schedule coverage, word offsets, product-table
      // consistency with the live weights).
      const core::Report plan_report = planned_exec.validate_plans();
      EXPECT_TRUE(plan_report.clean())
          << label << ":\n"
          << plan_report.to_string();
      // The planned path must do the same logical work as the oracle:
      // identical product-bit and operand-gating accounting.
      EXPECT_EQ(got_stats.product_bits, want_stats.product_bits) << label;
      EXPECT_EQ(got_stats.skipped_operands, want_stats.skipped_operands)
          << label;
      EXPECT_EQ(got_stats.layers_run, want_stats.layers_run) << label;
    }
  }
}

ScConfig golden_config() {
  ScConfig cfg;
  cfg.stream_length = 128;
  cfg.sng_width = 8;
  return cfg;
}

TEST(ScGolden, LenetSmallPlannedMatchesScalar) {
  nn::Network net = train::build_lenet_small(nn::AccumMode::kOrExact);
  expect_planned_matches_scalar(net, random_unit(nn::Shape{16, 16, 1}, 101),
                                golden_config());
}

TEST(ScGolden, CifarSmallPlannedMatchesScalar) {
  nn::Network net = train::build_cifar_small(nn::AccumMode::kOrExact);
  expect_planned_matches_scalar(net, random_unit(nn::Shape{16, 16, 3}, 103),
                                golden_config());
}

TEST(ScGolden, ResnetTinyPlannedMatchesScalar) {
  nn::Network net = train::build_resnet_tiny(nn::AccumMode::kOrExact, 8, 9);
  expect_planned_matches_scalar(net, random_unit(nn::Shape{8, 8, 3}, 107),
                                golden_config());
}

TEST(ScGolden, ConvFusedPoolStageMatchesScalar) {
  // One conv + fused avg-pool stage (computation skipping): the pooled
  // segment timetable is the part the plan slot layout must reproduce.
  nn::Network net;
  auto& conv = net.add<nn::Conv2D>(nn::ConvSpec{
      .in_channels = 2, .out_channels = 3, .kernel = 3, .padding = 1,
      .mode = nn::AccumMode::kOrExact});
  net.add<nn::ReLU>();
  net.add<nn::AvgPool2D>(2);
  conv.initialize(51);
  expect_planned_matches_scalar(net, random_unit(nn::Shape{8, 8, 2}, 109),
                                golden_config());
}

TEST(ScGolden, StridedConvNoPoolMatchesScalar) {
  nn::Network net;
  auto& conv = net.add<nn::Conv2D>(nn::ConvSpec{
      .in_channels = 2, .out_channels = 2, .kernel = 3, .stride = 2,
      .padding = 1, .mode = nn::AccumMode::kOrExact});
  conv.initialize(53);
  expect_planned_matches_scalar(net, random_unit(nn::Shape{9, 9, 2}, 113),
                                golden_config());
}

TEST(ScGolden, MultiWordSegmentsMatchScalar) {
  // stream 1024 with a 2x2 fused pool -> 128-bit (two-word) segments:
  // exercises the multi-word AND/OR lane of the fast path.
  nn::Network net;
  auto& conv = net.add<nn::Conv2D>(nn::ConvSpec{
      .in_channels = 1, .out_channels = 2, .kernel = 3, .padding = 1,
      .mode = nn::AccumMode::kOrExact});
  net.add<nn::ReLU>();
  net.add<nn::AvgPool2D>(2);
  conv.initialize(57);
  ScConfig cfg;
  cfg.stream_length = 1024;
  cfg.sng_width = 10;
  expect_planned_matches_scalar(net, random_unit(nn::Shape{6, 6, 1}, 127),
                                cfg);
}

TEST(ScGolden, GroupedConvMatchesScalar) {
  // groups=2: the plan slot space stays kernel*kernel*in_c wide but every
  // cross-group (oc, ic) pair must be absent from both sign-phase bitmaps.
  nn::Network net;
  auto& conv = net.add<nn::Conv2D>(nn::ConvSpec{
      .in_channels = 4, .out_channels = 4, .kernel = 3, .padding = 1,
      .groups = 2, .mode = nn::AccumMode::kOrExact});
  net.add<nn::ReLU>();
  conv.initialize(61);
  expect_planned_matches_scalar(net, random_unit(nn::Shape{8, 8, 4}, 141),
                                golden_config());
}

TEST(ScGolden, DepthwiseConvMatchesScalar) {
  // groups == channels: each output channel sees exactly kernel*kernel
  // live slots; the degenerate extreme of the grouped weight mapping.
  nn::Network net;
  auto& conv = net.add<nn::Conv2D>(nn::ConvSpec{
      .in_channels = 4, .out_channels = 4, .kernel = 3, .padding = 1,
      .groups = 4, .mode = nn::AccumMode::kOrExact});
  conv.initialize(63);
  expect_planned_matches_scalar(net, random_unit(nn::Shape{7, 7, 4}, 143),
                                golden_config());
}

TEST(ScGolden, BatchNormFoldMatchesScalar) {
  // Conv + BN: the planned path folds scale into the quantized weight
  // levels and applies shift post-counter; the scalar oracle folds the
  // same way, so outputs must stay byte-identical.
  nn::Network net;
  auto& conv = net.add<nn::Conv2D>(nn::ConvSpec{
      .in_channels = 2, .out_channels = 4, .kernel = 3, .padding = 1,
      .mode = nn::AccumMode::kOrExact});
  auto& bn = net.add<nn::BatchNorm>(nn::BatchNormSpec{.channels = 4});
  net.add<nn::ReLU>();
  conv.initialize(65);
  bn.initialize(66);
  expect_planned_matches_scalar(net, random_unit(nn::Shape{8, 8, 2}, 145),
                                golden_config());
}

TEST(ScGolden, SkipProjectionBlockMatchesScalar) {
  // A ResNet downsample block: the skip path runs a 1x1 stride-2
  // projection conv (itself an SC stage) so the saved tensor matches the
  // halved block output at the add.
  nn::Network net;
  auto state = std::make_shared<nn::SkipState>();
  net.add<nn::SkipSave>(state);
  auto& proj = net.add<nn::SkipProject>(
      state, nn::ConvSpec{.in_channels = 2, .out_channels = 4, .kernel = 1,
                          .stride = 2, .mode = nn::AccumMode::kOrExact});
  auto& conv = net.add<nn::Conv2D>(nn::ConvSpec{
      .in_channels = 2, .out_channels = 4, .kernel = 3, .stride = 2,
      .padding = 1, .mode = nn::AccumMode::kOrExact});
  net.add<nn::SkipAdd>(state);
  net.add<nn::ReLU>();
  proj.conv().initialize(67);
  conv.initialize(68);
  expect_planned_matches_scalar(net, random_unit(nn::Shape{8, 8, 2}, 147),
                                golden_config());
}

TEST(ScGolden, StochasticMaxPoolMatchesScalar) {
  // MaxPoolMode::kStochastic: the bit-serial max FSM runs the same scalar
  // body at every SIMD level and thread count, so planned == scalar holds
  // for the whole max-pool network too.
  nn::Network net = train::build_cifar_small_maxpool(nn::AccumMode::kOrExact);
  ScConfig cfg = golden_config();
  cfg.max_pool = MaxPoolMode::kStochastic;
  expect_planned_matches_scalar(net, random_unit(nn::Shape{16, 16, 3}, 149),
                                cfg);
}

TEST(ScGolden, StochasticMaxPoolDiffersFromExactMax) {
  // Sanity check that the stochastic mode actually engages: at a short
  // stream the FSM's approximate max must not collapse to the exact max
  // on every window.
  nn::Network net = train::build_cifar_small_maxpool(nn::AccumMode::kOrExact);
  const nn::Tensor input = random_unit(nn::Shape{16, 16, 3}, 151);
  ScConfig exact_cfg = golden_config();
  ScConfig sc_cfg = golden_config();
  sc_cfg.max_pool = MaxPoolMode::kStochastic;
  ScNetwork exact_exec(net, exact_cfg);
  ScNetwork sc_exec(net, sc_cfg);
  const nn::Tensor exact_out = exact_exec.forward(input);
  const nn::Tensor sc_out = sc_exec.forward(input);
  ASSERT_EQ(exact_out.shape(), sc_out.shape());
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < exact_out.size(); ++i) {
    if (exact_out[i] != sc_out[i]) {
      ++diffs;
    }
  }
  EXPECT_GT(diffs, 0u);
}

TEST(ScGolden, Resnet18DescriptorMatchesScalar) {
  // The deepest zoo workload end to end: residual blocks, projection
  // downsamples and batch norm, built from the Table III descriptor at a
  // reduced input side.
  nn::ZooBuildOptions opt;
  opt.side = 8;
  opt.mode = nn::AccumMode::kOrExact;
  nn::Network net = nn::build_from_descriptor(nn::resnet18(), opt);
  const nn::Shape in = nn::zoo_input_shape(nn::resnet18(), opt);
  ScConfig cfg;
  cfg.stream_length = 32;
  cfg.sng_width = 8;
  expect_planned_matches_scalar(net, random_unit(in, 153), cfg);
}

TEST(ScGolden, PlanBudgetFallbackMatchesScalar) {
  // A 1-byte budget disables every plan: the generic fetch() fallback must
  // regenerate exactly the bits the tables would have served.
  nn::Network net = train::build_lenet_small(nn::AccumMode::kOrExact);
  ScConfig cfg = golden_config();
  cfg.plan_budget_bytes = 1;
  expect_planned_matches_scalar(net, random_unit(nn::Shape{16, 16, 1}, 131),
                                cfg);
}

/// Planned forward of @p exec vs a fresh scalar oracle over @p net.
void expect_matches_own_oracle(ScNetwork& exec, nn::Network& net,
                               const nn::Tensor& input,
                               const std::string& label) {
  ScConfig scalar_cfg = exec.config();
  scalar_cfg.exec = ExecMode::kScalar;
  ScNetwork oracle(net, scalar_cfg);
  expect_bytes_equal(exec.forward(input), oracle.forward(input), label);
  const core::Report report = exec.validate_plans();
  EXPECT_TRUE(report.clean()) << label << ":\n" << report.to_string();
}

TEST(ScGolden, InputSizeChangeRekeysTheTable) {
  // A fused 2x2 pool tiles the 8x8 conv output (4 slots per phase) but
  // not the 7x7 one (the conv runs unfused: 1 slot). One executor sees
  // both sizes in both orders, so its stage table must follow the
  // schedule, not just the weights.
  for (const bool small_first : {false, true}) {
    nn::Network net;
    auto& conv = net.add<nn::Conv2D>(nn::ConvSpec{
        .in_channels = 3, .out_channels = 4, .kernel = 3, .padding = 1,
        .mode = nn::AccumMode::kOrExact});
    net.add<nn::AvgPool2D>(2);
    conv.initialize(71);
    ScNetwork exec(net, golden_config());
    const int first = small_first ? 7 : 8;
    const int second = small_first ? 8 : 7;
    for (const int side : {first, second, first}) {
      expect_matches_own_oracle(
          exec, net,
          random_unit(nn::Shape{side, side, 3},
                      static_cast<std::uint32_t>(170 + side)),
          "side " + std::to_string(side) + " (small first: " +
              std::to_string(small_first) + ")");
    }
  }
}

TEST(ScGolden, SharedStoreKeysOnSignPhase) {
  // Two executors over cloned networks share one store. In the second,
  // one conv weight changes sign at equal magnitude, so the quantized
  // magnitudes alone cannot tell the two weight sets apart: a table keyed
  // on them would serve one network's sign schedule to the other. Then a
  // second weight becomes NaN (active in neither phase) between forwards.
  nn::Network net = train::build_lenet_small(nn::AccumMode::kOrExact);
  nn::Network other = net.clone();
  std::span<float> w;
  for (std::size_t i = 0; i < other.layer_count() && w.empty(); ++i) {
    if (other.layer(i).kind() == nn::Layer::Kind::kConv2D) {
      w = static_cast<nn::Conv2D&>(other.layer(i)).weights();
    }
  }
  ASSERT_GT(w.size(), 5u);
  ASSERT_NE(w[3], 0.0f);
  w[3] = -w[3];
  ScNetwork a(net, golden_config());
  ScNetwork b(other, golden_config(), a.shared_plans());
  const nn::Tensor input = random_unit(nn::Shape{16, 16, 1}, 173);
  for (const bool nan : {false, true}) {
    if (nan) {
      w[5] = std::numeric_limits<float>::quiet_NaN();
    }
    for (int round = 0; round < 2; ++round) {
      const std::string label = std::string(nan ? "with NaN" : "sign flip") +
                                ", round " + std::to_string(round);
      expect_matches_own_oracle(a, net, input, "original, " + label);
      expect_matches_own_oracle(b, other, input, "flipped, " + label);
    }
  }
}

/// conv + BatchNorm + fused 2x2 avg pool + ReLU + conv + BatchNorm: two
/// BN-folded stages, fully convolutional so any even or odd side runs.
nn::Network make_bn_conv_net() {
  nn::Network net;
  auto& conv1 = net.add<nn::Conv2D>(nn::ConvSpec{
      .in_channels = 2, .out_channels = 4, .kernel = 3, .padding = 1,
      .mode = nn::AccumMode::kOrExact});
  auto& bn1 = net.add<nn::BatchNorm>(nn::BatchNormSpec{.channels = 4});
  net.add<nn::AvgPool2D>(2);
  net.add<nn::ReLU>();
  auto& conv2 = net.add<nn::Conv2D>(nn::ConvSpec{
      .in_channels = 4, .out_channels = 3, .kernel = 3, .padding = 1,
      .mode = nn::AccumMode::kOrExact});
  auto& bn2 = net.add<nn::BatchNorm>(nn::BatchNormSpec{.channels = 3});
  conv1.initialize(181);
  bn1.initialize(182);
  conv2.initialize(183);
  bn2.initialize(184);
  return net;
}

bool bytes_differ(const nn::Tensor& a, const nn::Tensor& b) {
  return a.shape() != b.shape() ||
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(float)) != 0;
}

TEST(ScGolden, BorrowingExecutorSeesWritesThroughHeldSpans) {
  // The borrowing executor reads weights live: spans to a BN gamma and to
  // a BN-folded conv's weights, taken before its first forward and
  // written through between forwards, must change what the next forward
  // computes, exactly as a fresh scalar oracle computes it.
  nn::Network net = make_bn_conv_net();
  std::span<float> gamma;
  std::span<float> w;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    nn::Layer& layer = net.layer(i);
    if (layer.kind() == nn::Layer::Kind::kBatchNorm && gamma.empty()) {
      gamma = static_cast<nn::BatchNorm&>(layer).gamma();
    } else if (layer.kind() == nn::Layer::Kind::kConv2D && w.empty()) {
      w = static_cast<nn::Conv2D&>(layer).weights();
    }
  }
  ASSERT_GT(gamma.size(), 2u);
  ASSERT_GT(w.size(), 1u);
  ScNetwork exec(net, golden_config());
  const nn::Tensor input = random_unit(nn::Shape{8, 8, 2}, 185);
  const std::function<void()> writes[] = {
      [&] { gamma[1] = -gamma[1]; },                 // sign phase flips
      [&] { w[0] = w[0] > 0.0f ? -0.75f : 0.75f; },  // one conv weight
      [&] { gamma[2] *= 0.25f; },                    // magnitude only
  };
  ScConfig scalar_cfg = golden_config();
  scalar_cfg.exec = ExecMode::kScalar;
  nn::Tensor prev = exec.forward(input);
  for (std::size_t k = 0; k < std::size(writes); ++k) {
    const std::string label = "write " + std::to_string(k);
    writes[k]();
    const nn::Tensor got = exec.forward(input);
    ScNetwork oracle(net, scalar_cfg);
    expect_bytes_equal(got, oracle.forward(input), label);
    EXPECT_TRUE(bytes_differ(got, prev)) << label;
    const core::Report report = exec.validate_plans();
    EXPECT_TRUE(report.clean()) << label << ":\n" << report.to_string();
    prev = got;
  }
}

void expect_same_stats(const ScNetwork::Stats& got,
                       const ScNetwork::Stats& want,
                       const std::string& label) {
  EXPECT_EQ(got.product_bits, want.product_bits) << label;
  EXPECT_EQ(got.layers_run, want.layers_run) << label;
  EXPECT_EQ(got.skipped_operands, want.skipped_operands) << label;
  EXPECT_EQ(got.stream_bits_generated, want.stream_bits_generated) << label;
  EXPECT_EQ(got.stream_bits_reused, want.stream_bits_reused) << label;
  EXPECT_EQ(got.plan_hits, want.plan_hits) << label;
  EXPECT_EQ(got.plan_misses, want.plan_misses) << label;
  EXPECT_EQ(got.scratch_bytes, want.scratch_bytes) << label;
}

TEST(ScGolden, SnapshotExecutorMatchesBorrowing) {
  // The owning form (over a snapshot) skips the per-forward weight check
  // once a stage holds its table. Over equal weights it must compute the
  // borrowing form's bytes and stats, build nothing after warm-up, re-key
  // on a new input size, and stay exact when clones run concurrently on
  // one shared store.
  nn::Network net = make_bn_conv_net();
  for (const unsigned threads : {1u, 4u}) {
    const std::string tag = "threads=" + std::to_string(threads);
    ScConfig cfg = golden_config();
    cfg.intra_threads = threads;
    ScNetwork borrowing(net, cfg);
    ScNetwork owning(net.clone(), cfg, borrowing.shared_plans());
    const WeightPlanStore& store = *borrowing.shared_plans();
    std::vector<nn::Tensor> images;
    for (std::uint32_t i = 0; i < 4; ++i) {
      images.push_back(random_unit(nn::Shape{8, 8, 2}, 190 + i));
    }
    std::vector<nn::Tensor> want;
    std::uint64_t warm_builds = 0;
    for (std::size_t i = 0; i < images.size(); ++i) {
      const std::string label = tag + " image " + std::to_string(i);
      want.push_back(borrowing.forward(images[i]));
      expect_bytes_equal(owning.forward(images[i]), want.back(), label);
      expect_same_stats(owning.take_stats(), borrowing.take_stats(), label);
      if (i == 0) {
        warm_builds = store.builds();
      }
    }
    EXPECT_EQ(store.builds(), warm_builds) << tag;
    for (ScNetwork* exec : {&borrowing, &owning}) {
      const core::Report report = exec->validate_plans();
      EXPECT_TRUE(report.clean()) << tag << ":\n" << report.to_string();
    }

    // A 7x7 input does not tile the fused pool: a new schedule, which the
    // owning form must fetch rather than serve from its held table.
    for (const int side : {7, 8}) {
      const nn::Tensor x = random_unit(nn::Shape{side, side, 2}, 199);
      expect_bytes_equal(owning.forward(x), borrowing.forward(x),
                         tag + " side " + std::to_string(side));
    }

    // Concurrent owning clones of the owning executor, one shared store.
    runtime::ThreadPool pool(4);
    std::vector<std::unique_ptr<ScNetwork>> clones;
    for (int c = 0; c < 4; ++c) {
      clones.push_back(std::make_unique<ScNetwork>(owning.clone()));
    }
    std::vector<std::vector<nn::Tensor>> got(clones.size());
    pool.parallel_for(clones.size(), [&](std::size_t c, unsigned /*w*/) {
      for (const nn::Tensor& x : images) {
        got[c].push_back(clones[c]->forward(x));
      }
    });
    for (std::size_t c = 0; c < clones.size(); ++c) {
      for (std::size_t i = 0; i < images.size(); ++i) {
        expect_bytes_equal(got[c][i], want[i],
                           tag + " clone " + std::to_string(c) + " image " +
                               std::to_string(i));
      }
    }
  }
}

TEST(ScGolden, PlannedThreadCountsAgreeOnAllStats) {
  // Row/output sharding merges additive per-worker counters: every stat
  // (including the reuse counters) must be independent of worker count.
  nn::Network net = train::build_lenet_small(nn::AccumMode::kOrExact);
  const nn::Tensor input = random_unit(nn::Shape{16, 16, 1}, 137);

  ScConfig cfg = golden_config();
  cfg.exec = ExecMode::kPlanned;
  cfg.intra_threads = 1;
  ScNetwork serial(net, cfg);
  const nn::Tensor want = serial.forward(input);
  const ScNetwork::Stats want_stats = serial.take_stats();

  for (const unsigned threads : {2u, 4u}) {
    ScConfig threaded_cfg = cfg;
    threaded_cfg.intra_threads = threads;
    ScNetwork threaded(net, threaded_cfg);
    const nn::Tensor got = threaded.forward(input);
    const ScNetwork::Stats got_stats = threaded.take_stats();
    expect_bytes_equal(got, want, "threads=" + std::to_string(threads));
    EXPECT_EQ(got_stats.product_bits, want_stats.product_bits);
    EXPECT_EQ(got_stats.skipped_operands, want_stats.skipped_operands);
    EXPECT_EQ(got_stats.stream_bits_generated,
              want_stats.stream_bits_generated);
    EXPECT_EQ(got_stats.stream_bits_reused, want_stats.stream_bits_reused);
    EXPECT_EQ(got_stats.plan_hits, want_stats.plan_hits);
    EXPECT_EQ(got_stats.plan_misses, want_stats.plan_misses);
  }
}

/// Scoped override of the scheduler's per-chunk jitter hook (the same one
/// ACOUSTIC_SCHED_JITTER sets); restores the previous value on exit.
class JitterGuard {
 public:
  explicit JitterGuard(unsigned max_us)
      : saved_(runtime::ThreadPool::task_jitter_us()) {
    runtime::ThreadPool::set_task_jitter_us(max_us);
  }
  JitterGuard(const JitterGuard&) = delete;
  JitterGuard& operator=(const JitterGuard&) = delete;
  ~JitterGuard() { runtime::ThreadPool::set_task_jitter_us(saved_); }

 private:
  unsigned saved_;
};

TEST(ScGolden, JitteredStealingStaysByteIdentical) {
  // The scheduler stress gate: up to 150us of deterministic per-chunk
  // busy-wait scrambles which worker reaches which row subtask first, so
  // chunks migrate between deques (heavy stealing). The work-stealing
  // schedule must never leak into the numbers — every planned
  // configuration still has to match the scalar oracle byte for byte,
  // stats included.
  const JitterGuard jitter(150);
  nn::Network net = train::build_lenet_small(nn::AccumMode::kOrExact);
  expect_planned_matches_scalar(net, random_unit(nn::Shape{16, 16, 1}, 157),
                                golden_config());
}

TEST(ScGolden, JitteredThreadCountsAgreeOnAllStats) {
  // Same invariant as PlannedThreadCountsAgreeOnAllStats, but with the
  // schedule perturbed: additive counter merges must be steal-order
  // insensitive, not just worker-count insensitive.
  const JitterGuard jitter(120);
  nn::Network net = train::build_lenet_small(nn::AccumMode::kOrExact);
  const nn::Tensor input = random_unit(nn::Shape{16, 16, 1}, 163);

  ScConfig cfg = golden_config();
  cfg.exec = ExecMode::kPlanned;
  cfg.intra_threads = 1;
  ScNetwork serial(net, cfg);
  const nn::Tensor want = serial.forward(input);
  const ScNetwork::Stats want_stats = serial.take_stats();

  for (const unsigned threads : {2u, 4u}) {
    ScConfig threaded_cfg = cfg;
    threaded_cfg.intra_threads = threads;
    ScNetwork threaded(net, threaded_cfg);
    const nn::Tensor got = threaded.forward(input);
    const ScNetwork::Stats got_stats = threaded.take_stats();
    expect_bytes_equal(got, want,
                       "jitter threads=" + std::to_string(threads));
    EXPECT_EQ(got_stats.product_bits, want_stats.product_bits);
    EXPECT_EQ(got_stats.skipped_operands, want_stats.skipped_operands);
    EXPECT_EQ(got_stats.stream_bits_generated,
              want_stats.stream_bits_generated);
    EXPECT_EQ(got_stats.stream_bits_reused, want_stats.stream_bits_reused);
  }
}

TEST(ScGolden, RepeatedForwardIsBitStable) {
  // The cached weight plan kicks in on the second image; serving from the
  // cache must not change a single bit, and per-run stats must be a pure
  // function of the input.
  nn::Network net = train::build_lenet_small(nn::AccumMode::kOrExact);
  const nn::Tensor input = random_unit(nn::Shape{16, 16, 1}, 139);

  ScConfig cfg = golden_config();
  cfg.exec = ExecMode::kPlanned;
  ScNetwork exec(net, cfg);
  const nn::Tensor first = exec.forward(input);
  const ScNetwork::Stats first_stats = exec.take_stats();
  const nn::Tensor second = exec.forward(input);
  const ScNetwork::Stats second_stats = exec.take_stats();

  expect_bytes_equal(second, first, "repeat");
  // Cache-served plans must still validate against the live weights.
  const core::Report plan_report = exec.validate_plans();
  EXPECT_TRUE(plan_report.clean()) << plan_report.to_string();
  EXPECT_EQ(second_stats.product_bits, first_stats.product_bits);
  EXPECT_EQ(second_stats.stream_bits_generated,
            first_stats.stream_bits_generated);
  EXPECT_EQ(second_stats.stream_bits_reused, first_stats.stream_bits_reused);
}

}  // namespace
}  // namespace acoustic::sim
