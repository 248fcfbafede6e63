// Shared plumbing of the benchmark program: run options, the reported
// outcome, order statistics, process counters, benchmark spans and the
// correctness-check vocabulary.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "nn/network.hpp"
#include "obs/bench_harness.hpp"
#include "obs/span.hpp"
#include "sim/backend.hpp"
#include "sim/batch_evaluator.hpp"
#include "sim/sc_config.hpp"
#include "train/dataset.hpp"
#include "train/trainer.hpp"

namespace perfbench {

namespace nn = acoustic::nn;
namespace obs = acoustic::obs;
namespace runtime = acoustic::runtime;
namespace sim = acoustic::sim;
namespace train = acoustic::train;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint32_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Worker threads: the workloads' 4, capped at the host's core count.
  unsigned threads = 4;
  /// Chrome-trace output file of a traced run.
  std::string trace_path;
};

/// Everything one run reports: metrics in insertion order, the
/// attempted/failed accounting of the checked operations, and
/// human-readable notes (sample counts, check verdicts) printed above the
/// result line.
struct Outcome {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
  /// Counts @p count operations against the failure total, with a reason.
  void fail(std::uint64_t count, const std::string& why) {
    failed += count;
    note("FAILED (" + std::to_string(count) + "): " + why);
  }
};

// --- order statistics ------------------------------------------------------

[[nodiscard]] inline double median(std::vector<double> values) {
  return obs::summarize(std::move(values)).median;
}
[[nodiscard]] inline double mean(std::vector<double> values) {
  return obs::summarize(std::move(values)).mean;
}
/// Linear-interpolation quantile (q in [0, 1]) for the tail percentiles
/// obs::summarize does not give; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);

// --- process counters ------------------------------------------------------

/// User + system CPU seconds of the whole process.
[[nodiscard]] double cpu_seconds();
/// Peak resident set of this program image (/proc/self/status VmHWM) in MB.
[[nodiscard]] double peak_rss_mb();
/// Current resident set (/proc/self/statm) in MB.
[[nodiscard]] double resident_mb();

// --- benchmark spans -------------------------------------------------------

/// Spans the benchmark records around its calls into each layer: name,
/// start, duration and the enclosing span, kept in an obs::Profiler (the
/// parent link travels as the "span_id"/"parent_id" counters). A null
/// profiler makes every scope a no-op, so the untraced runs share the
/// code. Single-threaded: only the benchmark's main thread opens scopes.
class Trace {
 public:
  explicit Trace(obs::Profiler* profiler) : profiler_(profiler) {}
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  class Scope {
   public:
    Scope(Trace& trace, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace& trace_;
    obs::Span span_;
  };

  [[nodiscard]] obs::Profiler* profiler() const noexcept { return profiler_; }
  /// Durations in seconds of every finished span named @p name.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Total seconds of the spans named @p name.
  [[nodiscard]] double total(const std::string& name) const;

  /// Category of the benchmark's own spans (the evaluator and executor
  /// hooks record "phase", "image" and "layer" spans into the same sink).
  static constexpr const char* kCategory = "bench";
  /// Track of the benchmark's spans; the evaluator uses 0..threads-1.
  static constexpr std::uint32_t kTrack = 100;

 private:
  obs::Profiler* profiler_;
  std::vector<std::uint64_t> open_;  ///< ids of the enclosing scopes
  std::uint64_t next_id_ = 0;
};

/// Writes every span of @p profiler as a Chrome trace to @p path.
void write_chrome_trace(const obs::Profiler& profiler,
                        const std::string& path, const std::string& workload,
                        std::uint32_t seed);

// --- inputs and checks -----------------------------------------------------

/// @p count images of @p shape with pixels uniform in [0, 1) and labels
/// uniform in [0, classes), all drawn from @p seed.
[[nodiscard]] train::Dataset random_images(
    nn::Shape shape, std::size_t count, int classes,
    std::uint32_t seed);

/// The first @p count samples of @p data (all of them if it has fewer).
[[nodiscard]] train::Dataset head_of(const train::Dataset& data,
                                     std::size_t count);

/// FNV-1a digest of every parameter value's bytes, in layer order.
[[nodiscard]] std::uint64_t weights_digest(nn::Network& net);

/// True when the two tensors have the same shape and the same bits.
[[nodiscard]] bool same_bits(const nn::Tensor& a,
                             const nn::Tensor& b);

/// The mismatches of @p got against @p want: top-1 count and merged stats.
[[nodiscard]] std::vector<std::string> eval_mismatches(
    const sim::EvalResult& got,
    std::size_t want_correct, const sim::RunStats& want_stats);

/// Registers the per-layer numbers one evaluate() reveals: counts and
/// their ratios (sim.*) and the scheduler telemetry (runtime.*).
void add_evaluator_metrics(const sim::EvalResult& result,
                           Outcome& out);

// --- per-layer probes shared by every workload -----------------------------

/// What the layer probes run on: the workload's network, SC configuration
/// and inputs.
struct Subject {
  std::function<nn::Network()> build;
  sim::ScConfig cfg;
  const train::Dataset* data = nullptr;
  unsigned threads = 1;
  /// Steady-state forwards timed for sim.warm_forward_ms.
  std::size_t warm_images = 16;
};

/// Times the public entry points of nn, sim, runtime and sc on @p subject
/// and adds their per-layer metrics (see perfbench/README.md).
void probe_layers(const Subject& subject, Trace& trace, Outcome& out);

// --- the training loop, replayed from public calls -------------------------

struct ReplayResult {
  std::uint64_t digest = 0;      ///< final weights
  std::vector<double> sample_s;  ///< per-sample loop time
  std::vector<double> done_at_s;  ///< completion times, from `start`
};

/// Replays train::fit_stream_aware's loop on @p net: the same shuffle,
/// ScNetwork::forward, softmax_cross_entropy, Network::forward/backward
/// and Sgd::step, with a benchmark span around each call. Completion times
/// count from @p start, which lets callers include the network build.
/// The replay is a copy of src/train/stream_tune.cpp's loop: a change to
/// that loop must be mirrored here, or the figures taken from the replay
/// stop describing it (its final weights are checked against the library's
/// in every training run).
[[nodiscard]] ReplayResult replay_fit_stream_aware(
    nn::Network& net, const train::Dataset& data,
    const train::TrainConfig& config,
    const sim::ScConfig& sc_cfg, Trace& trace,
    Clock::time_point start);

/// Adds the train.* split and sim.relearn_forward_ms from the spans of a
/// traced replay.
void add_train_split_metrics(const Trace& trace, Outcome& out);

// --- workloads -------------------------------------------------------------

[[nodiscard]] Outcome run_resnet18_cold_eval(const Options& options);
[[nodiscard]] Outcome run_cifar_warm_eval(const Options& options);
[[nodiscard]] Outcome run_cifar_stream_train(const Options& options);

}  // namespace perfbench
