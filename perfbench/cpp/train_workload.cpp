// The stream-aware training workload (train::fit_stream_aware, paper
// II-D) and the public-call replay of its loop that gives the train.*
// split and the per-image latencies.
#include <sched.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "measure.hpp"
#include "sc/rng.hpp"
#include "sim/sc_network.hpp"
#include "train/loss.hpp"
#include "train/models.hpp"
#include "train/sgd.hpp"
#include "train/stream_tune.hpp"

namespace perfbench {

ReplayResult replay_fit_stream_aware(nn::Network& net,
                                     const train::Dataset& data,
                                     const train::TrainConfig& config,
                                     const sim::ScConfig& sc_cfg, Trace& trace,
                                     Clock::time_point start) {
  // Mirrors src/train/stream_tune.cpp call for call; the loss and accuracy
  // bookkeeping, which never touches the weights, is left out.
  ReplayResult result;
  train::Sgd sgd(train::SgdConfig{config.learning_rate, config.momentum,
                                  config.weight_clip});
  sim::ScNetwork executor(net, sc_cfg);
  // Executor per-stage spans go to their own lane of the same sink.
  executor.set_profiler(trace.profiler(), Trace::kTrack + 1);

  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);
  acoustic::sc::XorShift32 rng(config.shuffle_seed);
  const auto step = [&] {
    Trace::Scope s(trace, "train.sgd_step");
    auto params = net.parameters();
    sgd.step(params);
    net.zero_gradients();
  };
  // The executor re-plans on the first forward and after every step: the
  // weights it reads live have changed.
  bool weights_changed = true;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    for (std::size_t i = order.size(); i > 1; --i) {
      const std::size_t j = rng.next() % i;
      std::swap(order[i - 1], order[j]);
    }
    int in_batch = 0;
    net.zero_gradients();
    for (const std::size_t idx : order) {
      const train::Sample& sample = data.samples[idx];
      const Clock::time_point t0 = Clock::now();
      {
        Trace::Scope s(trace, "train.sample");
        nn::Tensor logits;
        {
          Trace::Scope f(trace, weights_changed ? "sim.relearn_forward"
                                                : "train.sc_forward");
          logits = executor.forward(sample.image);
        }
        weights_changed = false;
        train::LossResult loss;
        {
          Trace::Scope l(trace, "train.loss");
          loss = train::softmax_cross_entropy(logits, sample.label);
        }
        {
          Trace::Scope b(trace, "train.backprop");
          (void)net.forward(sample.image);
          (void)net.backward(loss.grad);
        }
        if (++in_batch == config.batch_size) {
          step();
          in_batch = 0;
          weights_changed = true;
        }
      }
      result.sample_s.push_back(seconds_since(t0));
      result.done_at_s.push_back(seconds_since(start));
    }
    if (in_batch > 0) {
      step();
      weights_changed = true;
    }
    sgd.set_learning_rate(sgd.config().learning_rate * config.lr_decay);
  }
  result.digest = weights_digest(net);
  return result;
}

void add_train_split_metrics(const Trace& trace, Outcome& out) {
  const double loop = trace.total("train.sample");
  const auto samples =
      static_cast<double>(trace.durations("train.sample").size());
  const double sc =
      trace.total("train.sc_forward") + trace.total("sim.relearn_forward");
  const std::vector<double> steps = trace.durations("train.sgd_step");
  out.add("train.sc_forward_ms", sc * 1e3 / samples, "ms");
  out.add("train.backprop_ms", trace.total("train.backprop") * 1e3 / samples,
          "ms");
  out.add("train.sgd_step_ms",
          trace.total("train.sgd_step") * 1e3 /
              static_cast<double>(std::max<std::size_t>(steps.size(), 1)),
          "ms");
  out.add("train.sc_share", sc / loop, "fraction");
  out.add("sim.relearn_forward_ms",
          median(trace.durations("sim.relearn_forward")) * 1e3, "ms");
}

namespace {

struct TrainSpec {
  train::Dataset data;
  train::TrainConfig config;
  sim::ScConfig sc;
};

/// Samples of the head that the scalar-oracle check trains on: eight
/// batches, so eight SGD steps and eight re-plans of the weights.
constexpr std::size_t kOracleSamples = 64;

nn::Network build_net() {
  return train::build_cifar_small(nn::AccumMode::kOrApprox, 16);
}

/// Cold start of a training run: the network build and a run of
/// fit_stream_aware over the first sample alone, which covers executor
/// construction, the cold SC forward, the float forward/backward and one
/// SGD step. With a profiler in @p traced the same calls run through the
/// traced replay instead (the tracing-overhead comparison).
double cold_start_s(const TrainSpec& spec, Trace* traced) {
  const train::Dataset first = head_of(spec.data, 1);
  const Clock::time_point t0 = Clock::now();
  nn::Network net = build_net();
  if (traced == nullptr) {
    (void)train::fit_stream_aware(net, first, spec.config, spec.sc);
  } else {
    (void)replay_fit_stream_aware(net, first, spec.config, spec.sc, *traced,
                                  t0);
  }
  return seconds_since(t0);
}

/// Moves the calling thread onto the @p k-th CPU of @p allowed (round
/// robin), then gives it the whole set back: the kernel starts it there but
/// may still move it, and threads it creates inherit the whole set.
void start_on_cpu(const cpu_set_t& allowed, unsigned k) {
  const auto count = static_cast<unsigned>(CPU_COUNT(&allowed));
  unsigned seen = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed) && seen++ == k % count) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      (void)sched_setaffinity(0, sizeof one, &one);
      break;
    }
  }
  (void)sched_setaffinity(0, sizeof allowed, &allowed);
}

/// Counts every run whose final weights differ from @p want.
std::size_t digest_mismatches(const std::vector<std::uint64_t>& got,
                              std::uint64_t want) {
  return static_cast<std::size_t>(
      std::count_if(got.begin(), got.end(),
                    [want](std::uint64_t d) { return d != want; }));
}

/// Checks the final weights of training runs over @p samples samples each
/// against @p want, the digest of the reference named @p reference, and
/// self-tests the comparison with a perturbed reference.
void check_digests(const std::vector<std::uint64_t>& got, std::uint64_t want,
                   std::size_t samples, const std::string& reference,
                   Outcome& out) {
  const std::size_t bad = digest_mismatches(got, want);
  if (bad != 0) {
    out.fail(bad * samples, std::to_string(bad) + " run(s) differ from " +
                                reference + "'s final weights");
  }
  const bool rejects = digest_mismatches(got, want ^ 1U) == got.size();
  if (!rejects) {
    out.fail(1, "self-test: a perturbed weights digest was accepted");
  }
  out.note("checks: " + std::to_string(got.size()) + " run(s) of " +
           std::to_string(samples) + " samples vs " + reference +
           " (final weights digest " + std::to_string(want) + "); self-test " +
           (rejects ? "rejects" : "ACCEPTS") + " a perturbed digest");
}

/// The independent reference: fit_stream_aware on the first samples with
/// the scalar oracle executor (ExecMode::kScalar quantizes the live
/// weights on every call and uses no weight plan or cache) must end on the
/// same weights as with the planned executor. A planned executor that
/// keeps stale weights or plans across SGD steps fails here, even though
/// the replay, which shares that executor, would agree with it.
void check_against_scalar_oracle(const TrainSpec& spec, Outcome& out) {
  const train::Dataset head = head_of(spec.data, kOracleSamples);
  sim::ScConfig scalar = spec.sc;
  scalar.exec = sim::ExecMode::kScalar;
  nn::Network oracle_net = build_net();
  (void)train::fit_stream_aware(oracle_net, head, spec.config, scalar);
  nn::Network planned_net = build_net();
  (void)train::fit_stream_aware(planned_net, head, spec.config, spec.sc);
  out.attempted += head.size();
  check_digests({weights_digest(planned_net)}, weights_digest(oracle_net),
                head.size(), "the scalar oracle", out);
}

void run_untraced(const TrainSpec& spec, const Options& options,
                  Outcome& out) {
  const std::size_t n = spec.data.size();
  Trace off(nullptr);

  // Epochs alternate between fit_stream_aware itself (throughput, CPU)
  // and the replay of its loop (per-image latency, warm rate),
  // each from a freshly built network; each figure pools its epochs. All
  // of them must end on the same weights.
  double fit_wall = 0.0;
  double fit_cpu = 0.0;
  double warm_s = 0.0;
  // Per-image latency at batch granularity: each batch's loop time ÷ its
  // size. Every batch holds one forward on re-planned weights and one SGD
  // step, so the values share one distribution. Per-sample times split
  // seven to one between plain and re-planning samples, and p90 would fall
  // on that split. As for the evaluations, each percentile is taken per
  // epoch and averaged over epochs: the host's slow and fast spells last
  // seconds, and a median pooled over a whole run jumped between them.
  const auto batch = static_cast<std::size_t>(spec.config.batch_size);
  std::vector<double> p50, p90, p99;
  std::vector<std::uint64_t> fit_digests;
  std::vector<std::uint64_t> replay_digests;
  // setup_s: cheap cold starts spread over the run, between the epochs,
  // so that they sample the host's states as the epochs do; their median.
  std::vector<double> setup;
  // The loop is single-threaded, and the kernel tends to leave a lone busy
  // thread on the CPU it started on, while on a shared host one CPU can
  // run 5-10% slower than another for tens of seconds. Each pair of epochs
  // (one of each kind) therefore starts on the next CPU, so that a run
  // samples all of them.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  const Clock::time_point start = Clock::now();
  for (int epoch = 0; epoch < 4 || seconds_since(start) < options.seconds;
       ++epoch) {
    start_on_cpu(allowed, static_cast<unsigned>(epoch / 2));
    for (int k = 0; k < 8; ++k) {
      setup.push_back(cold_start_s(spec, nullptr));
    }
    out.attempted += n;
    const double cpu0 = cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    nn::Network net = build_net();
    if (epoch % 2 == 0) {
      (void)train::fit_stream_aware(net, spec.data, spec.config, spec.sc);
      fit_wall += seconds_since(t0);
      fit_cpu += cpu_seconds() - cpu0;
      fit_digests.push_back(weights_digest(net));
      continue;
    }
    const ReplayResult replay =
        replay_fit_stream_aware(net, spec.data, spec.config, spec.sc, off, t0);
    // Warm: every sample after the first batch, whose first forward is the
    // cold one. Training has no longer warm-up to leave out, and the window
    // holds twice the samples of a second-half rate.
    warm_s += replay.done_at_s[n - 1] - replay.done_at_s[batch - 1];
    std::vector<double> image_ms;
    for (std::size_t first = 0; first + batch <= n; first += batch) {
      double batch_s = 0.0;
      for (std::size_t k = first; k < first + batch; ++k) {
        batch_s += replay.sample_s[k];
      }
      image_ms.push_back(batch_s * 1e3 / static_cast<double>(batch));
    }
    p50.push_back(median(image_ms));
    p90.push_back(quantile(image_ms, 0.90));
    p99.push_back(quantile(image_ms, 0.99));
    replay_digests.push_back(replay.digest);
  }
  const double peak = peak_rss_mb();

  const auto fit_samples = static_cast<double>(fit_digests.size() * n);
  out.add("setup_s", median(setup), "s");
  out.add("img_per_s", fit_samples / fit_wall, "img/s");
  out.add("warm_img_per_s",
          static_cast<double>(replay_digests.size() * (n - batch)) / warm_s,
          "img/s");
  out.add("image_ms_p50", mean(p50), "ms");
  out.add("image_ms_p90", mean(p90), "ms");
  out.add("image_ms_p99", mean(p99), "ms");
  out.add("peak_rss_mb", peak, "MB");
  out.add("cpu_ms_per_img", fit_cpu * 1e3 / fit_samples, "ms");
  out.note("samples: " + std::to_string(setup.size()) + " cold starts; " +
           std::to_string(fit_digests.size()) + " fit_stream_aware and " +
           std::to_string(replay_digests.size()) + " replayed epochs of " +
           std::to_string(n) + " samples (latency percentiles: means over "
           "replayed epochs of per-epoch percentiles, " +
           std::to_string(n / batch) + " batches of " + std::to_string(batch) +
           " each)");

  std::vector<std::uint64_t> others = fit_digests;
  others.insert(others.end(), replay_digests.begin() + 1,
                replay_digests.end());
  check_digests(others, replay_digests.front(), n, "the first replayed epoch",
                out);
  check_against_scalar_oracle(spec, out);
}

void run_traced(const TrainSpec& spec, const Options& options, Outcome& out) {
  const std::size_t n = spec.data.size();
  obs::Profiler profiler;
  Trace trace(&profiler);

  // Tracing overhead on setup: library cold starts against the same cold
  // starts through the traced replay (recording into a scratch sink, so
  // the epoch replay below is the only source of the train.* spans).
  std::vector<double> setup_plain;
  std::vector<double> setup_traced;
  obs::Profiler scratch_profiler;
  Trace scratch(&scratch_profiler);
  for (int k = 0; k < 5; ++k) {
    setup_plain.push_back(cold_start_s(spec, nullptr));
    setup_traced.push_back(cold_start_s(spec, &scratch));
  }

  // Tracing overhead on throughput: an untraced fit_stream_aware epoch
  // against the traced replay of the same epoch.
  out.attempted += 2 * n;
  Clock::time_point t0 = Clock::now();
  nn::Network fit_net = build_net();
  (void)train::fit_stream_aware(fit_net, spec.data, spec.config, spec.sc);
  const double fit_wall = seconds_since(t0);
  t0 = Clock::now();
  nn::Network net = build_net();
  const ReplayResult replay =
      replay_fit_stream_aware(net, spec.data, spec.config, spec.sc, trace, t0);
  const double replay_wall = seconds_since(t0);
  out.add("trace.img_per_s_overhead", 1.0 - fit_wall / replay_wall,
          "fraction");
  out.add("trace.setup_s_overhead",
          median(setup_traced) / median(setup_plain) - 1.0, "fraction");
  check_digests({weights_digest(fit_net)}, replay.digest, n,
                "the traced replay", out);
  check_against_scalar_oracle(spec, out);
  add_train_split_metrics(trace, out);

  // What an evaluation of the freshly trained network reveals.
  const auto backend = sim::make_backend("sc", net, spec.sc);
  sim::BatchEvaluator evaluator(options.threads);
  add_evaluator_metrics(evaluator.evaluate(*backend, spec.data), out);

  Subject subject{build_net, spec.sc, &spec.data, options.threads,
                  /*warm_images=*/64};
  probe_layers(subject, trace, out);
  out.note("traced: train.* from one replayed epoch of " + std::to_string(n) +
           " samples");
  write_chrome_trace(profiler, options.trace_path, "cifar-stream-train",
                     options.seed);
}

}  // namespace

Outcome run_cifar_stream_train(const Options& options) {
  TrainSpec spec;
  spec.data = train::make_synth_objects(1000, options.seed, 16);
  spec.config.epochs = 1;
  spec.config.batch_size = 8;
  spec.config.shuffle_seed = options.seed + 1;
  spec.sc.stream_length = 128;
  Outcome out;
  if (options.trace) {
    run_traced(spec, options, out);
  } else {
    run_untraced(spec, options, out);
  }
  return out;
}

}  // namespace perfbench
