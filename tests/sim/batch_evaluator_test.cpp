// Determinism suite for the parallel batch evaluator: N-thread runs must
// be bit-identical to 1-thread runs for every backend, and the merged
// stats must equal what a single executor accumulates serially.
#include "sim/batch_evaluator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "nn/activation.hpp"
#include "nn/conv.hpp"
#include "nn/pool.hpp"
#include "nn/residual.hpp"
#include "obs/span.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/backend.hpp"
#include "sim/evaluate.hpp"
#include "sim/sc_network.hpp"
#include "train/dataset.hpp"
#include "train/models.hpp"

namespace acoustic::sim {
namespace {

nn::Network make_net(nn::AccumMode mode = nn::AccumMode::kOrApprox) {
  return train::build_lenet_small(mode, 16);
}

train::Dataset make_data(std::size_t count) {
  return train::make_synth_digits(count, 4321, 16);
}

ScConfig small_sc() {
  ScConfig cfg;
  cfg.stream_length = 32;
  return cfg;
}

void expect_same_result(const EvalResult& a, const EvalResult& b) {
  EXPECT_EQ(a.backend, b.backend);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.correct, b.correct);
  EXPECT_EQ(a.accuracy, b.accuracy);
  EXPECT_EQ(a.stats, b.stats);
}

TEST(BatchEvaluator, EmptyDatasetThrows) {
  nn::Network net = make_net();
  const auto backend = make_float_backend(net);
  BatchEvaluator evaluator(1);
  EXPECT_THROW((void)evaluator.evaluate(*backend, train::Dataset{}),
               std::invalid_argument);
}

TEST(BatchEvaluator, EvaluateScRejectsEmptyDatasetToo) {
  nn::Network net = make_net();
  EXPECT_THROW((void)evaluate_sc(net, small_sc(), train::Dataset{}),
               std::invalid_argument);
}

TEST(BatchEvaluator, ThreadsAccessorReflectsPoolSize) {
  EXPECT_EQ(BatchEvaluator(1).threads(), 1u);
  EXPECT_EQ(BatchEvaluator(3).threads(), 3u);
  EXPECT_GE(BatchEvaluator(0).threads(), 1u);
}

TEST(BatchEvaluator, ScDeterministicAcrossThreadCounts) {
  nn::Network net = make_net();
  const train::Dataset data = make_data(10);
  const auto backend = make_sc_backend(net, small_sc());
  BatchEvaluator serial(1);
  BatchEvaluator wide(4);
  const EvalResult one = serial.evaluate(*backend, data);
  const EvalResult four = wide.evaluate(*backend, data);
  EXPECT_EQ(one.threads, 1u);
  EXPECT_EQ(four.threads, 4u);
  expect_same_result(one, four);
}

TEST(BatchEvaluator, FloatDeterministicAcrossThreadCounts) {
  nn::Network net = make_net();
  const train::Dataset data = make_data(10);
  const auto backend = make_float_backend(net);
  const EvalResult one = BatchEvaluator(1).evaluate(*backend, data);
  const EvalResult four = BatchEvaluator(4).evaluate(*backend, data);
  expect_same_result(one, four);
}

TEST(BatchEvaluator, BipolarDeterministicAcrossThreadCounts) {
  nn::Network net = make_net(nn::AccumMode::kSum);
  const train::Dataset data = make_data(8);
  BipolarConfig cfg;
  cfg.stream_length = 32;
  const auto backend = make_bipolar_backend(net, cfg);
  const EvalResult one = BatchEvaluator(1).evaluate(*backend, data);
  const EvalResult four = BatchEvaluator(4).evaluate(*backend, data);
  expect_same_result(one, four);
}

TEST(BatchEvaluator, RepeatedRunsAreIdentical) {
  nn::Network net = make_net();
  const train::Dataset data = make_data(6);
  const auto backend = make_sc_backend(net, small_sc());
  BatchEvaluator evaluator(2);
  expect_same_result(evaluator.evaluate(*backend, data),
                     evaluator.evaluate(*backend, data));
}

TEST(BatchEvaluator, PrototypeNeverRunsSamples) {
  nn::Network net = make_net();
  const train::Dataset data = make_data(4);
  const auto backend = make_sc_backend(net, small_sc());
  (void)BatchEvaluator(2).evaluate(*backend, data);
  EXPECT_EQ(backend->stats(), RunStats{});
}

TEST(BatchEvaluator, MergedStatsMatchSerialExecutor) {
  // The evaluator's merged stats must equal what one raw ScNetwork
  // accumulates over the same dataset, regardless of sharding.
  nn::Network net = make_net();
  const train::Dataset data = make_data(6);

  ScNetwork raw(net, small_sc());
  std::size_t raw_correct = 0;
  for (const train::Sample& s : data.samples) {
    if (static_cast<int>(raw.forward(s.image).argmax()) == s.label) {
      ++raw_correct;
    }
  }
  const ScNetwork::Stats raw_stats = raw.take_stats();

  const auto backend = make_sc_backend(net, small_sc());
  const EvalResult result = BatchEvaluator(3).evaluate(*backend, data);
  EXPECT_EQ(result.correct, raw_correct);
  EXPECT_EQ(result.stats.samples, data.size());
  EXPECT_EQ(result.stats.layers_run, raw_stats.layers_run);
  EXPECT_EQ(result.stats.product_bits, raw_stats.product_bits);
  EXPECT_EQ(result.stats.skipped_operands, raw_stats.skipped_operands);
}

TEST(BatchEvaluator, AccuracyMatchesEvaluateSc) {
  nn::Network net = make_net();
  const train::Dataset data = make_data(8);
  const auto backend = make_sc_backend(net, small_sc());
  const EvalResult result = BatchEvaluator(4).evaluate(*backend, data);
  EXPECT_EQ(result.accuracy, evaluate_sc(net, small_sc(), data));
}

TEST(BatchEvaluator, LatencyPercentilesAreOrdered) {
  nn::Network net = make_net();
  const train::Dataset data = make_data(8);
  const auto backend = make_float_backend(net);
  const EvalResult result = BatchEvaluator(2).evaluate(*backend, data);
  EXPECT_GT(result.latency.mean_us, 0.0);
  EXPECT_LE(result.latency.p50_us, result.latency.p90_us);
  EXPECT_LE(result.latency.p90_us, result.latency.p99_us);
  EXPECT_LE(result.latency.p99_us, result.latency.max_us);
  EXPECT_GT(result.wall_seconds, 0.0);
  EXPECT_GT(result.throughput_sps, 0.0);
}

TEST(BatchEvaluator, SchedulerStatsArePopulated) {
  nn::Network net = make_net();
  const train::Dataset data = make_data(8);
  const auto backend = make_sc_backend(net, small_sc());
  BatchEvaluator evaluator(3);
  const EvalResult result = evaluator.evaluate(*backend, data);
  EXPECT_EQ(result.sched.workers, 3u);
  // At least one chunk per image; intra-image row subtasks may add more.
  EXPECT_GE(result.sched.tasks, data.size());
  EXPECT_GE(result.sched.busy_peak, 1u);
  EXPECT_LE(result.sched.busy_peak, 3u);
  EXPECT_GT(result.sched.occupancy(), 0.0);
  EXPECT_LE(result.sched.occupancy(), 1.0);
}

TEST(BatchEvaluator, NestedIntraImageStealingStaysDeterministic) {
  // The unified-scheduler stress case: image tasks AND per-image row
  // subtasks share one work-stealing pool (intra_threads = 0 with the
  // work gate forced open makes every conv/dense layer fork row jobs into
  // the evaluator's pool), while per-chunk jitter scrambles the schedule.
  // Accuracy, per-sample correctness and merged stats must still equal
  // the serial single-thread run exactly.
  const unsigned saved = runtime::ThreadPool::task_jitter_us();
  runtime::ThreadPool::set_task_jitter_us(100);
  nn::Network net = make_net();
  const train::Dataset data = make_data(8);
  ScConfig cfg = small_sc();
  cfg.intra_threads = 0;
  cfg.intra_work_threshold = 0;  // every layer forks row subtasks
  const auto backend = make_sc_backend(net, cfg);
  BatchEvaluator serial(1);
  BatchEvaluator wide(4);
  const EvalResult one = serial.evaluate(*backend, data);
  const EvalResult four = wide.evaluate(*backend, data);
  runtime::ThreadPool::set_task_jitter_us(saved);
  // scratch_bytes is the one stat that legitimately depends on the worker
  // count here: the arena carves one WorkerState span per pool worker when
  // the row sharding engages (serial forwards carve none). Every computed
  // quantity must still match exactly.
  EvalResult four_cmp = four;
  four_cmp.sched = one.sched;
  four_cmp.stats.scratch_bytes = one.stats.scratch_bytes;
  four_cmp.threads = one.threads;
  four_cmp.wall_seconds = one.wall_seconds;
  four_cmp.throughput_sps = one.throughput_sps;
  four_cmp.latency = one.latency;
  expect_same_result(one, four_cmp);
  // The nested row jobs really ran through the shared pool: more chunks
  // than images on the wide run.
  EXPECT_GT(four.sched.tasks, static_cast<std::uint64_t>(data.size()));
}

TEST(BatchEvaluator, MoreThreadsThanSamples) {
  nn::Network net = make_net();
  const train::Dataset data = make_data(2);
  const auto backend = make_float_backend(net);
  const EvalResult one = BatchEvaluator(1).evaluate(*backend, data);
  const EvalResult many = BatchEvaluator(6).evaluate(*backend, data);
  expect_same_result(one, many);
}

/// A residual net that runs at any input side (no dense head): a stem
/// conv3x3(3->8) with a fused avgpool3, which tiles a 12x12 input but not
/// an 8x8 one, so the stem's schedule depends on the side; a downsampling
/// block with a 1x1 stride-2 skip projection and a grouped conv; and a 1x1
/// conv to 10 channels as the logits.
nn::Network make_any_side_net() {
  const auto mode = nn::AccumMode::kOrApprox;
  nn::Network net;
  auto& stem = net.add<nn::Conv2D>(nn::ConvSpec{
      .in_channels = 3, .out_channels = 8, .kernel = 3, .padding = 1,
      .mode = mode});
  net.add<nn::AvgPool2D>(3);
  net.add<nn::ReLU>();
  auto state = std::make_shared<nn::SkipState>();
  net.add<nn::SkipSave>(state);
  auto& proj = net.add<nn::SkipProject>(
      state, nn::ConvSpec{.in_channels = 8, .out_channels = 12, .kernel = 1,
                          .stride = 2, .mode = mode});
  auto& b1 = net.add<nn::Conv2D>(nn::ConvSpec{
      .in_channels = 8, .out_channels = 12, .kernel = 3, .stride = 2,
      .padding = 1, .mode = mode});
  net.add<nn::ReLU>();
  auto& b2 = net.add<nn::Conv2D>(nn::ConvSpec{
      .in_channels = 12, .out_channels = 12, .kernel = 3, .padding = 1,
      .groups = 2, .mode = mode});
  net.add<nn::SkipAdd>(state);
  net.add<nn::ReLU>();
  auto& head = net.add<nn::Conv2D>(nn::ConvSpec{
      .in_channels = 12, .out_channels = 10, .kernel = 1, .mode = mode});
  stem.initialize(31);
  proj.conv().initialize(32);
  b1.initialize(33);
  b2.initialize(34);
  head.initialize(35);
  return net;
}

/// Weighted stages of make_any_side_net(): stem, projection, b1, b2, head.
constexpr std::uint64_t kAnySideStages = 5;

ScConfig any_side_sc() {
  ScConfig cfg;
  cfg.stream_length = 64;
  return cfg;
}

/// RGB images of the given sides with pseudo-random pixels in [0, 1].
train::Dataset images_of_sides(const std::vector<int>& sides) {
  train::Dataset data;
  std::uint32_t h = 12345;
  for (std::size_t i = 0; i < sides.size(); ++i) {
    nn::Tensor image(nn::Shape{sides[i], sides[i], 3});
    for (std::size_t k = 0; k < image.size(); ++k) {
      h = h * 1664525u + 1013904223u;
      image[k] = static_cast<float>(h >> 8) / static_cast<float>(1u << 24);
    }
    data.samples.push_back({std::move(image), static_cast<int>(i % 10)});
  }
  return data;
}

bool same_bits(const nn::Tensor& a, const nn::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(float)) == 0;
}

/// Wraps a backend and records the logits of every forward by input
/// address, so a test can read the evaluator's per-image outputs.
class RecordingBackend final : public InferenceBackend {
 public:
  struct Log {
    std::mutex mu;
    std::map<const nn::Tensor*, nn::Tensor> logits;
  };

  RecordingBackend(std::unique_ptr<InferenceBackend> inner,
                   std::shared_ptr<Log> log)
      : inner_(std::move(inner)), log_(std::move(log)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::unique_ptr<InferenceBackend> clone() const override {
    return std::make_unique<RecordingBackend>(inner_->clone(), log_);
  }
  [[nodiscard]] nn::Tensor forward(const nn::Tensor& input) override {
    nn::Tensor out;
    forward_into(input, out);
    return out;
  }
  void forward_into(const nn::Tensor& input, nn::Tensor& out) override {
    inner_->forward_into(input, out);
    const std::lock_guard<std::mutex> lock(log_->mu);
    log_->logits[&input] = out;
  }
  [[nodiscard]] RunStats stats() const override { return inner_->stats(); }
  [[nodiscard]] RunStats take_stats() override { return inner_->take_stats(); }
  std::uint64_t prepare(const nn::Shape& input,
                        runtime::ThreadPool& pool) override {
    return inner_->prepare(input, pool);
  }
  void set_profiler(obs::Profiler* profiler, std::uint32_t track) override {
    inner_->set_profiler(profiler, track);
  }

 private:
  std::unique_ptr<InferenceBackend> inner_;
  std::shared_ptr<Log> log_;
};

/// The "tables_built" counter of the evaluator's "prepare" setup span.
std::uint64_t tables_built(const obs::Profiler& profiler) {
  const std::vector<obs::ProfileRow> rows =
      obs::aggregate_profile(profiler.snapshot(), "setup");
  EXPECT_EQ(rows.size(), 1u);
  return rows.empty() ? 0 : rows.front().counter("tables_built");
}

TEST(BatchEvaluatorTest, PrepareBuildsEveryStageOnceUpFront) {
  // Side 12 fuses the stem's pool, side 8 runs it unfused: either way
  // setup keys every stage as its forward will.
  nn::Network net = make_any_side_net();
  const ScConfig cfg = any_side_sc();
  for (const int side : {12, 8}) {
    SCOPED_TRACE(side);
    const train::Dataset data =
        images_of_sides(std::vector<int>(6, side));
    const std::shared_ptr<WeightPlanStore> store =
        ScNetwork(net, cfg).shared_plans();
    const auto backend = make_sc_backend(net, cfg, store);
    obs::Profiler profiler;
    EvalHooks hooks;
    hooks.profiler = &profiler;
    std::atomic<std::uint64_t> builds_at_first_image{0};
    hooks.progress = [&](std::size_t done, std::size_t /*total*/) {
      if (done == 1) {
        builds_at_first_image = store->builds();
      }
    };
    (void)BatchEvaluator(4).evaluate(*backend, data, hooks);
    // Setup built each weighted stage once; the run built nothing more.
    EXPECT_EQ(tables_built(profiler), kAnySideStages);
    EXPECT_EQ(builds_at_first_image.load(), kAnySideStages);
    EXPECT_EQ(store->builds(), kAnySideStages);
  }
}

TEST(BatchEvaluatorTest, PrepareOnWarmStoreBuildsNothing) {
  nn::Network net = make_any_side_net();
  const train::Dataset data = images_of_sides({12, 12, 12, 12});
  const ScConfig cfg = any_side_sc();
  // A direct forward of the same shape warms the store first.
  ScNetwork warm(net, cfg);
  (void)warm.forward(data.samples.front().image);
  EXPECT_EQ(warm.shared_plans()->builds(), kAnySideStages);
  const auto backend = make_sc_backend(net, cfg, warm.shared_plans());
  for (int run = 0; run < 2; ++run) {
    obs::Profiler profiler;
    EvalHooks hooks;
    hooks.profiler = &profiler;
    (void)BatchEvaluator(3).evaluate(*backend, data, hooks);
    EXPECT_EQ(tables_built(profiler), 0u) << "run " << run;
    EXPECT_EQ(warm.shared_plans()->builds(), kAnySideStages) << "run " << run;
  }
}

TEST(BatchEvaluatorTest, MixedShapesMatchFreshForwards) {
  // Setup prepares the tables for the first image's 8x8 shape; the 12x12
  // images key the stem on another schedule (its pool tiles only there),
  // so they must re-key the store lazily and never run on a table built
  // for the other shape. Per-image logits and the merged stats must equal
  // a fresh backend's serial forwards.
  nn::Network net = make_any_side_net();
  const train::Dataset data =
      images_of_sides({8, 12, 12, 8, 12, 8, 8, 12, 8, 12});
  const ScConfig cfg = any_side_sc();
  const auto fresh = make_sc_backend(net, cfg);
  std::vector<nn::Tensor> want;
  std::size_t want_correct = 0;
  for (const train::Sample& sample : data.samples) {
    want.push_back(fresh->forward(sample.image));
    if (static_cast<int>(want.back().argmax()) == sample.label) {
      ++want_correct;
    }
  }
  const RunStats want_stats = fresh->take_stats();

  const unsigned saved = runtime::ThreadPool::task_jitter_us();
  runtime::ThreadPool::set_task_jitter_us(50);
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    auto log = std::make_shared<RecordingBackend::Log>();
    RecordingBackend backend(make_sc_backend(net, cfg), log);
    const EvalResult result = BatchEvaluator(threads).evaluate(backend, data);
    EXPECT_EQ(result.correct, want_correct);
    EXPECT_EQ(result.stats, want_stats);
    ASSERT_EQ(log->logits.size(), data.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
      EXPECT_TRUE(same_bits(log->logits.at(&data.samples[i].image), want[i]))
          << "image " << i;
    }
  }
  runtime::ThreadPool::set_task_jitter_us(saved);
}

TEST(BatchEvaluatorTest, ClonesKeepWorkerTracks) {
  // Clone w reports its layer spans on track w: every layer span lies
  // inside an image span of the same worker.
  nn::Network net = make_any_side_net();
  const train::Dataset data = images_of_sides({12, 12, 12, 12, 12, 12, 12});
  const auto backend = make_sc_backend(net, any_side_sc());
  obs::Profiler profiler;
  EvalHooks hooks;
  hooks.profiler = &profiler;
  const EvalResult result = BatchEvaluator(4).evaluate(*backend, data, hooks);
  EXPECT_EQ(result.stats.samples, data.size());
  const std::vector<obs::SpanRecord> spans = profiler.snapshot();
  std::size_t layers = 0;
  for (const obs::SpanRecord& layer : spans) {
    if (layer.category != "layer") {
      continue;
    }
    ++layers;
    EXPECT_LT(layer.track, 4u);
    const bool inside = std::any_of(
        spans.begin(), spans.end(), [&](const obs::SpanRecord& image) {
          return image.category == "image" && image.track == layer.track &&
                 image.start_ns <= layer.start_ns &&
                 layer.start_ns + layer.dur_ns <=
                     image.start_ns + image.dur_ns;
        });
    EXPECT_TRUE(inside) << layer.name << " on track " << layer.track;
  }
  EXPECT_GT(layers, 0u);
}

}  // namespace
}  // namespace acoustic::sim
