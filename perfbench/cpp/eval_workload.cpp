// The two evaluation workloads: a cold-dominated resnet18 run and a
// warm-dominated cifar run, each a sequence of complete CLI-style
// evaluations (build the model, make the backend, evaluate the test set).
#include <algorithm>
#include <cstring>
#include <exception>
#include <memory>
#include <numeric>

#include "measure.hpp"
#include "nn/model_zoo.hpp"
#include "nn/zoo_build.hpp"
#include "runtime/thread_pool.hpp"
#include "sc/rng.hpp"
#include "train/models.hpp"

namespace perfbench {

namespace {

struct EvalSpec {
  const char* name;
  std::function<nn::Network()> build;
  sim::ScConfig cfg;
  train::Dataset data;
  /// Images re-run on the scalar oracle in every run.
  std::size_t oracle_images;
  std::size_t warm_images;
  /// Short cold evaluations run before each evaluation for setup_s: more
  /// set-ups steady its median where a set-up is cheap (none on resnet18,
  /// whose set-up is most of an evaluation).
  int cold_starts;
};

/// One complete evaluation, timed from the model build on.
struct Rep {
  double setup_s = 0.0;  ///< start to the first finished image
  double wall_s = 0.0;   ///< start to evaluate() return
  double cpu_s = 0.0;    ///< process CPU time over the same window
  /// Images of the second half and the time they took to complete.
  double warm_images = 0.0;
  double warm_s = 0.0;
  sim::EvalResult result;
  /// The evaluated backend, kept for the checks.
  std::unique_ptr<sim::InferenceBackend> backend;
};

Rep run_rep(const EvalSpec& spec, unsigned threads, Trace& trace,
            obs::Profiler* hooks_profiler) {
  const std::size_t n = spec.data.size();
  std::vector<double> done_at(n, 0.0);
  Rep rep;
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  {
    Trace::Scope scope(trace, "eval.rep");
    nn::Network net = [&] {
      Trace::Scope s(trace, "nn.build");
      return spec.build();
    }();
    {
      Trace::Scope s(trace, "sim.backend_make");
      rep.backend = sim::make_backend("sc", net, spec.cfg);
    }
    sim::BatchEvaluator evaluator(threads);
    sim::EvalHooks hooks;
    hooks.profiler = hooks_profiler;
    // Each call carries a distinct completion count, so the writes are
    // disjoint.
    hooks.progress = [&](std::size_t done, std::size_t) {
      done_at[done - 1] = seconds_since(t0);
    };
    Trace::Scope s(trace, "sim.evaluate");
    rep.result = evaluator.evaluate(*rep.backend, spec.data, hooks);
  }
  rep.wall_s = seconds_since(t0);
  rep.cpu_s = cpu_seconds() - cpu0;
  std::sort(done_at.begin(), done_at.end());
  rep.setup_s = done_at.front();
  const std::size_t half = n / 2;
  rep.warm_images = static_cast<double>(n - half);
  rep.warm_s = done_at[n - 1] - done_at[half - 1];
  return rep;
}

/// Set-up alone: the model build to the first finished image of a fresh
/// evaluation over @p head (one image per worker), as in run_rep. Its
/// outputs are not checked; it only times the set-up path.
double cold_start_s(const EvalSpec& spec, const train::Dataset& head,
                    unsigned threads) {
  std::vector<double> done_at(head.size(), 0.0);
  const Clock::time_point t0 = Clock::now();
  nn::Network net = spec.build();
  const auto backend = sim::make_backend("sc", net, spec.cfg);
  sim::BatchEvaluator evaluator(threads);
  sim::EvalHooks hooks;
  hooks.progress = [&](std::size_t done, std::size_t) {
    done_at[done - 1] = seconds_since(t0);
  };
  (void)evaluator.evaluate(*backend, head, hooks);
  return *std::min_element(done_at.begin(), done_at.end());
}

/// Per-image outputs of one backend over a set of images, computed on
/// per-worker clones outside the evaluator.
struct PerImage {
  std::vector<nn::Tensor> logits;
  std::vector<sim::RunStats> stats;
};

PerImage run_images(const sim::InferenceBackend& prototype,
                    const train::Dataset& data,
                    const std::vector<std::size_t>& indices,
                    unsigned threads) {
  runtime::ThreadPool pool(threads);
  std::vector<std::unique_ptr<sim::InferenceBackend>> clones;
  for (unsigned w = 0; w < pool.size(); ++w) {
    clones.push_back(prototype.clone());
  }
  PerImage out;
  out.logits.resize(indices.size());
  out.stats.resize(indices.size());
  pool.parallel_for(indices.size(), [&](std::size_t k, unsigned w) {
    clones[w]->forward_into(data.samples[indices[k]].image, out.logits[k]);
    out.stats[k] = clones[w]->take_stats();
  });
  return out;
}

/// The counts the scalar oracle and the planned executor must share.
bool same_work(const sim::RunStats& a, const sim::RunStats& b) {
  return a.samples == b.samples && a.layers_run == b.layers_run &&
         a.product_bits == b.product_bits &&
         a.skipped_operands == b.skipped_operands;
}

/// The checks of every eval run, outside the timed window:
///  1. a reference pass re-runs every image on per-worker clones of the
///     evaluated backend; each evaluation's top-1 count and merged
///     RunStats must equal its totals;
///  2. a seeded subset re-runs on the scalar oracle (ExecMode::kScalar),
///     whose logits must equal the reference pass's bit for bit;
///  3. a self-test feeds both comparisons a perturbed reference and
///     requires them to reject it.
void check_eval(const EvalSpec& spec, const std::vector<Rep>& reps,
                unsigned threads, std::uint32_t seed, Outcome& out) {
  const train::Dataset& data = spec.data;
  const std::size_t n = data.size();
  std::vector<std::size_t> all(n);
  std::iota(all.begin(), all.end(), 0);
  const PerImage ref = run_images(*reps.back().backend, data, all, threads);
  std::size_t ref_correct = 0;
  sim::RunStats ref_stats;
  for (std::size_t i = 0; i < n; ++i) {
    if (static_cast<int>(ref.logits[i].argmax()) == data.samples[i].label) {
      ++ref_correct;
    }
    ref_stats.merge(ref.stats[i]);
  }
  for (std::size_t r = 0; r < reps.size(); ++r) {
    const std::vector<std::string> why =
        eval_mismatches(reps[r].result, ref_correct, ref_stats);
    if (!why.empty()) {
      out.fail(n, "evaluation " + std::to_string(r) + ": " + why.front());
    }
  }

  std::vector<std::size_t> subset = all;
  acoustic::sc::XorShift32 rng(seed ^ 0x0a11ce5dU);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(subset[i - 1], subset[rng.next() % i]);
  }
  subset.resize(std::min(spec.oracle_images, n));
  sim::ScConfig scalar_cfg = spec.cfg;
  scalar_cfg.exec = sim::ExecMode::kScalar;
  nn::Network oracle_net = spec.build();
  const auto oracle_backend = sim::make_backend("sc", oracle_net, scalar_cfg);
  const PerImage oracle = run_images(*oracle_backend, data, subset, threads);
  out.attempted += subset.size();
  std::size_t oracle_ok = 0;
  for (std::size_t k = 0; k < subset.size(); ++k) {
    const std::size_t i = subset[k];
    if (!same_bits(oracle.logits[k], ref.logits[i]) ||
        !same_work(oracle.stats[k], ref.stats[i])) {
      out.fail(1, "image " + std::to_string(i) +
                      " differs from the scalar oracle");
    } else {
      ++oracle_ok;
    }
  }

  nn::Tensor perturbed = ref.logits[subset[0]];
  std::uint32_t bits = 0;
  std::memcpy(&bits, &perturbed[0], sizeof bits);
  bits ^= 1U;
  std::memcpy(&perturbed[0], &bits, sizeof bits);
  sim::RunStats perturbed_stats = ref_stats;
  ++perturbed_stats.product_bits;
  const bool rejects =
      !same_bits(oracle.logits[0], perturbed) &&
      !eval_mismatches(reps[0].result, ref_correct + 1, ref_stats).empty() &&
      !eval_mismatches(reps[0].result, ref_correct, perturbed_stats).empty();
  if (!rejects) {
    out.fail(1, "self-test: a perturbed reference was accepted");
  }
  out.note("checks: " + std::to_string(reps.size()) +
           " evaluation(s) vs the reference pass (top-1 " +
           std::to_string(ref_correct) + "/" + std::to_string(n) +
           ", product bits " + std::to_string(ref_stats.product_bits) +
           "); scalar oracle " + std::to_string(oracle_ok) + "/" +
           std::to_string(subset.size()) + " bit-identical; self-test " +
           (rejects ? "rejects" : "ACCEPTS") + " perturbed references");
}

void run_untraced(const EvalSpec& spec, const Options& options, Outcome& out) {
  const std::size_t n = spec.data.size();
  Trace off(nullptr);
  std::vector<Rep> reps;
  const train::Dataset head = head_of(spec.data, options.threads);
  std::vector<double> setup;
  const Clock::time_point start = Clock::now();
  // At least three evaluations. Rates and CPU time pool all of them;
  // per-evaluation figures are averaged, except setup_s, the median of
  // every evaluation's set-up and the short cold starts between them.
  for (int attempt = 0; attempt < 3 || seconds_since(start) < options.seconds;
       ++attempt) {
    for (int k = 0; k < spec.cold_starts; ++k) {
      setup.push_back(cold_start_s(spec, head, options.threads));
    }
    out.attempted += n;
    try {
      reps.push_back(run_rep(spec, options.threads, off, nullptr));
    } catch (const std::exception& e) {
      out.fail(n, std::string("evaluation threw: ") + e.what());
    }
    // Only the last backend is kept for the checks; release the others
    // as a CLI run would at exit.
    if (reps.size() > 1) {
      reps[reps.size() - 2].backend.reset();
    }
  }
  const double peak = peak_rss_mb();
  if (reps.empty()) {
    return;
  }

  double images = 0.0;
  double wall = 0.0;
  double cpu = 0.0;
  double warm_images = 0.0;
  double warm_s = 0.0;
  std::vector<double> p50, p90, p99;
  for (const Rep& rep : reps) {
    images += static_cast<double>(rep.result.samples);
    wall += rep.wall_s;
    cpu += rep.cpu_s;
    warm_images += rep.warm_images;
    warm_s += rep.warm_s;
    setup.push_back(rep.setup_s);
    p50.push_back(rep.result.latency.p50_us * 1e-3);
    p90.push_back(rep.result.latency.p90_us * 1e-3);
    p99.push_back(rep.result.latency.p99_us * 1e-3);
  }
  out.add("setup_s", median(setup), "s");
  out.add("img_per_s", images / wall, "img/s");
  out.add("warm_img_per_s", warm_images / warm_s, "img/s");
  out.add("image_ms_p50", mean(p50), "ms");
  out.add("image_ms_p90", mean(p90), "ms");
  out.add("image_ms_p99", mean(p99), "ms");
  out.add("peak_rss_mb", peak, "MB");
  out.add("cpu_ms_per_img", cpu * 1e3 / images, "ms");
  out.note("samples: " + std::to_string(setup.size()) + " set-ups; " +
           std::to_string(reps.size()) + " evaluations of " +
           std::to_string(n) +
           " images; latency percentiles are means over evaluations of "
           "per-evaluation percentiles (" +
           std::to_string(n) + " samples each)");

  check_eval(spec, reps, options.threads, options.seed, out);
}

void run_traced(const EvalSpec& spec, const Options& options, Outcome& out) {
  obs::Profiler profiler;
  Trace trace(&profiler);
  Trace off(nullptr);
  const std::size_t n = spec.data.size();

  // Tracing overhead: untraced and traced evaluations, alternating, the
  // traced ones with the evaluator's own phase, image and layer spans
  // attached; medians of each kind.
  std::vector<Rep> reps;
  std::vector<double> wall[2];
  std::vector<double> setup[2];
  for (int k = 0; k < 4; ++k) {
    const bool traced = k % 2 == 1;
    out.attempted += n;
    reps.push_back(run_rep(spec, options.threads, traced ? trace : off,
                           traced ? &profiler : nullptr));
    wall[traced ? 1 : 0].push_back(reps.back().wall_s);
    setup[traced ? 1 : 0].push_back(reps.back().setup_s);
    if (reps.size() > 1) {
      reps[reps.size() - 2].backend.reset();
    }
  }
  out.add("trace.img_per_s_overhead", 1.0 - median(wall[0]) / median(wall[1]),
          "fraction");
  out.add("trace.setup_s_overhead", median(setup[1]) / median(setup[0]) - 1.0,
          "fraction");
  add_evaluator_metrics(reps[0].result, out);
  check_eval(spec, reps, options.threads, options.seed, out);
  reps.clear();

  Subject subject{spec.build, spec.cfg, &spec.data, options.threads,
                  spec.warm_images};
  probe_layers(subject, trace, out);

  // Every traced run reports the train.* split. Here it is that of the
  // shortest replay holding a forward on changed weights: one batch, a
  // step, and one more sample. cifar-stream-train measures the split over
  // a full epoch and checks the replay against fit_stream_aware.
  train::TrainConfig train_cfg;
  train_cfg.epochs = 1;
  train_cfg.shuffle_seed = options.seed + 1;
  const train::Dataset head = head_of(
      spec.data, static_cast<std::size_t>(train_cfg.batch_size) + 1);
  nn::Network replay_net = spec.build();
  (void)replay_fit_stream_aware(replay_net, head, train_cfg, spec.cfg, trace,
                                Clock::now());
  add_train_split_metrics(trace, out);
  out.note("traced: overhead from two untraced and two traced evaluations; "
           "train.* from a " + std::to_string(head.size()) +
           "-sample replay");
  write_chrome_trace(profiler, options.trace_path, spec.name, options.seed);
}

Outcome run(const EvalSpec& spec, const Options& options) {
  Outcome out;
  if (options.trace) {
    run_traced(spec, options, out);
  } else {
    run_untraced(spec, options, out);
  }
  return out;
}

}  // namespace

Outcome run_resnet18_cold_eval(const Options& options) {
  nn::ZooBuildOptions zoo;
  zoo.side = 8;
  zoo.mode = nn::AccumMode::kOrApprox;
  const nn::Shape shape = nn::zoo_input_shape(nn::resnet18(), zoo);
  sim::ScConfig cfg;
  cfg.stream_length = 128;
  return run(EvalSpec{"resnet18-cold-eval",
                      [zoo] {
                        return nn::build_from_descriptor(nn::resnet18(), zoo);
                      },
                      cfg, random_images(shape, 128, 1000, options.seed),
                      /*oracle_images=*/4, /*warm_images=*/8,
                      /*cold_starts=*/0},
             options);
}

Outcome run_cifar_warm_eval(const Options& options) {
  sim::ScConfig cfg;
  cfg.stream_length = 1024;
  return run(EvalSpec{"cifar-warm-eval",
                      [] {
                        return train::build_cifar_small(
                            nn::AccumMode::kOrApprox, 16);
                      },
                      cfg, train::make_synth_objects(4096, options.seed, 16),
                      /*oracle_images=*/32, /*warm_images=*/256,
                      /*cold_starts=*/8},
             options);
}

}  // namespace perfbench
