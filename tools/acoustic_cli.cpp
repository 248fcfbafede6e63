// acoustic — command-line driver for the reproduction.
//
//   acoustic list
//       Show the model-zoo workloads with their MAC/weight footprints.
//   acoustic compile <network> [--arch lp|ulp]
//       Print the ACOUSTIC assembly for a workload.
//   acoustic simulate <network> [--arch lp|ulp] [--batch N] [--clock MHZ]
//                     [--stream N] [--dram ddr3-800..ddr3-2133|hbm]
//                     [--trace] [--layers] [--metrics] [--json]
//                     [--prometheus] [--trace-json FILE]
//       Run the performance + energy simulation; --trace adds the per-unit
//       Gantt chart of the dispatcher overlap, --layers the per-layer
//       bottleneck table. --metrics collects the cycle/unit/DRAM/energy
//       counters into the telemetry registry (text table, or one JSON
//       document with --json, or Prometheus text format with
//       --prometheus). --trace-json writes the instruction trace as
//       Chrome trace-event JSON (one track per control unit, cycle
//       timebase) for ui.perfetto.dev.
//   acoustic breakdown [--arch lp|ulp]
//       Print the Fig. 5 area/power breakdowns.
//   acoustic lint <program.acasm|network> [--arch lp|ulp] [--werror]
//                 [--json]
//       Statically analyze an assembly file ('-' reads stdin) or the
//       program generated for a model-zoo network: loop balance, barrier
//       placement, scratchpad/weight-memory bounds, counter ordering,
//       dead weight loads. Exits 1 on errors (with --werror, on any
//       warning). --json prints the diagnostics as the shared JSON
//       report format on stdout instead of the text rendering.
//   acoustic check <network|zoo|lenet|cifar|resnet-tiny>
//                  [--target sc|perf] [--stream N] [--width N]
//                  [--threshold X] [--no-probe] [--werror] [--json]
//       Network-level SC static analyzer: graph/shape inference over the
//       zoo descriptors (or all of them with 'zoo'), SNG seed and LFSR
//       period analysis, OR-accumulation saturation bounds, quantization
//       range rules, and — for the trainable models lenet/cifar/
//       resnet-tiny — weight scans plus an executed plan-invariant
//       probe. --target perf restricts to the structural rules the
//       performance simulator needs. Exits 1 on errors (with --werror,
//       on any warning).
//   acoustic eval [--backend float|sc|sc-mux|bipolar]
//                 [--model lenet|cifar|cifar-max|resnet-tiny|<zoo network>]
//                 [--threads N] [--intra-threads N] [--exec planned|scalar]
//                 [--pool-mode exact|sc] [--side N]
//                 [--stream N] [--train N] [--test N]
//                 [--epochs N] [--json] [--metrics] [--profile]
//                 [--prometheus] [--trace-json FILE] [--verbose]
//       Train a small network on a synthetic dataset and evaluate it with
//       the selected inference backend on the parallel batch evaluator.
//       --model also accepts any zoo workload (lenet5, cifar10, svhn,
//       alexnet, vgg16, resnet18): the network is built untrained from its
//       shape descriptor at --side (default 16) and run end to end through
//       the graph executor — residual blocks, grouped convs and batch norm
//       included. The trainable variants cifar-max (max pooling) and
//       resnet-tiny (one residual block) exercise the stochastic max and
//       skip-connection stages with real trained weights. --pool-mode
//       selects MaxPool2D execution: "exact" binary max (default) or
//       "sc", the bit-serial stochastic max FSM.
//   acoustic bench [--suite NAME]... [--quick] [--iters N] [--warmup N]
//                  [--stream N] [--threads-max N] [--json FILE]
//                  [--compare BASELINE] [--noise F] [--tolerance F]
//                  [--strict] [--no-counters] [--list]
//       Run the registered benchmark suites (forward latency, SIMD kernel
//       table, stream-plan build, batch-eval throughput, thread-scaling
//       matrix) under the shared
//       harness: warmup + repetitions, median/MAD statistics, hardware
//       counters where the host allows them, machine/build metadata — one
//       bench.v1 trajectory document. --json writes it; --compare reads a
//       previous document and prints per-entry verdicts
//       (improved/unchanged/regressed) using MAD-based noise thresholds,
//       exiting 1 on a regression. Baselines recorded on different
//       hardware are reported but never gate unless --strict.
//       ACOUSTIC_BENCH_SLOWDOWN=<factor> stretches every timed iteration
//       (the test hook that proves the gate trips).
//       --threads 0 (default) uses all hardware threads; results are
//       bit-identical for any thread count. --intra-threads shards each
//       image's conv rows / dense outputs inside the SC backend (0 =
//       auto, the default: large layers join the batch evaluator's
//       work-stealing pool as nested subtasks, small layers stay serial;
//       1 = always serial, N >= 2 = force). --exec selects the SC execution
//       strategy: "planned" (packed stream plans, default) or "scalar"
//       (the reference path; both are bit-identical). --json emits the
//       structured
//       EvalResult instead of the human-readable summary. --metrics
//       routes the run counters through the telemetry registry (with
//       --json: one uniform document whose "metrics" section is
//       byte-identical across thread counts; wall-clock data — including
//       the evaluator's setup/run/reduce phase spans and whole-run
//       hardware counters — is confined to "timing", and span/dropped
//       accounting to "trace"). --profile prints the per-layer
//       wall-time/counter table plus the evaluator phase table,
//       --trace-json writes the evaluator's wall-clock spans (one track
//       per worker) as Chrome trace-event JSON with a dropped_events
//       metadata field, --verbose emits a training/evaluation progress
//       line plus span/dropped accounting on stderr.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/check.hpp"
#include "core/accelerator.hpp"
#include "core/diagnostics.hpp"
#include "core/report.hpp"
#include "energy/breakdown.hpp"
#include "isa/assembler.hpp"
#include "obs/bench_harness.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "perf/timeline.hpp"
#include "perf/trace_export.hpp"
#include "nn/zoo_build.hpp"
#include "sc/kernels/kernels.hpp"
#include "sim/backend.hpp"
#include "sim/batch_evaluator.hpp"
#include "tools/bench_suites.hpp"
#include "train/dataset.hpp"
#include "train/models.hpp"
#include "train/trainer.hpp"

using namespace acoustic;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: acoustic <list|compile|simulate|breakdown|lint|eval|"
               "bench> [network] [options]\n"
               "  networks: lenet5, cifar10, svhn, alexnet, vgg16, "
               "resnet18 (suffix '-conv' for conv layers only)\n"
               "  options: --arch lp|ulp  --batch N  --clock MHZ  "
               "--stream N\n"
               "           --dram ddr3-800|...|ddr3-2133|hbm  --trace  "
               "--layers\n"
               "           --metrics  --json  --prometheus  "
               "--trace-json FILE  --no-preflight\n"
               "  lint: acoustic lint <program.acasm|-|network> "
               "[--arch lp|ulp] [--werror] [--json]\n"
               "  check: acoustic check <network|zoo|lenet|cifar|"
               "resnet-tiny> [--target sc|perf]\n"
               "         [--stream N] [--width N] [--threshold X] "
               "[--no-probe] [--werror] [--json]\n"
               "  eval: acoustic eval [--backend float|sc|sc-mux|bipolar] "
               "[--model lenet|cifar|<zoo network>]\n"
               "        [--threads N] [--intra-threads N] "
               "[--exec planned|scalar]\n"
               "        [--pool-mode exact|sc] [--side N]\n"
               "        [--stream N] [--train N] [--test N] "
               "[--epochs N] [--json]\n"
               "        [--metrics] [--profile] [--prometheus] "
               "[--trace-json FILE] [--verbose] [--no-preflight]\n"
               "  bench: acoustic bench [--suite NAME]... [--quick] "
               "[--iters N] [--warmup N]\n"
               "         [--stream N] [--threads-max N] [--json FILE] "
               "[--compare BASELINE]\n"
               "         [--noise F] [--tolerance F] [--strict] "
               "[--no-counters] [--list]\n");
  return 2;
}

std::optional<nn::NetworkDesc> find_network(std::string name) {
  bool conv_only = false;
  const std::string suffix = "-conv";
  if (name.size() > suffix.size() &&
      name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
    conv_only = true;
    name = name.substr(0, name.size() - suffix.size());
  }
  std::optional<nn::NetworkDesc> net;
  if (name == "lenet5") {
    net = nn::lenet5();
  } else if (name == "cifar10") {
    net = nn::cifar10_cnn();
  } else if (name == "svhn") {
    net = nn::svhn_cnn();
  } else if (name == "alexnet") {
    net = nn::alexnet();
  } else if (name == "vgg16") {
    net = nn::vgg16();
  } else if (name == "resnet18") {
    net = nn::resnet18();
  }
  if (net && conv_only) {
    net = net->conv_only();
  }
  return net;
}

std::optional<perf::DramSpec> find_dram(const std::string& name) {
  for (const perf::DramSpec& spec : perf::figure4_interfaces()) {
    std::string lowered = spec.name;
    for (char& c : lowered) {
      c = static_cast<char>(std::tolower(c));
    }
    if (lowered == name) {
      return spec;
    }
  }
  return std::nullopt;
}

int cmd_list() {
  core::Table table({"network", "layers", "MACs", "weights",
                     "conv MACs", "FC MACs"});
  for (const auto& net :
       {nn::lenet5(), nn::cifar10_cnn(), nn::svhn_cnn(), nn::alexnet(),
        nn::vgg16(), nn::resnet18()}) {
    table.add_row({net.name, std::to_string(net.layers.size()),
                   core::format_number(
                       static_cast<double>(net.total_macs()), 4),
                   core::format_number(
                       static_cast<double>(net.total_weights()), 4),
                   core::format_number(
                       static_cast<double>(net.conv_macs()), 4),
                   core::format_number(
                       static_cast<double>(net.fc_macs()), 4)});
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}

/// `acoustic lint`: run the ISA static analyzer over an assembly file, a
/// program read from stdin ('-'), or the program codegen emits for a
/// model-zoo network, against the bounds of the selected architecture.
int cmd_lint(const std::string& target, const perf::ArchConfig& arch,
             bool werror, bool json) {
  isa::Program program;
  if (const std::optional<nn::NetworkDesc> net = find_network(target)) {
    try {
      program = core::Accelerator(arch).compile(*net);
    } catch (const std::exception& e) {
      // Codegen hard-errors on its own lint findings; surface them.
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
  } else {
    std::string text;
    if (target == "-") {
      std::ostringstream buffer;
      buffer << std::cin.rdbuf();
      text = buffer.str();
    } else {
      std::ifstream file(target);
      if (!file) {
        std::fprintf(stderr, "lint: cannot open '%s' (not a file or a "
                     "known network)\n", target.c_str());
        return 2;
      }
      std::ostringstream buffer;
      buffer << file.rdbuf();
      text = buffer.str();
    }
    try {
      program = isa::parse(text);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", target.c_str(), e.what());
      return 1;
    }
  }
  const isa::analysis::Report report =
      isa::analysis::analyze(program, {perf::machine_limits(arch)});
  if (json) {
    // Machine-readable mode: stdout carries exactly the shared JSON report
    // format (the same core::to_json that `acoustic check --json` emits).
    std::printf("%s\n", core::to_json(report).c_str());
    return (!report.ok() || (werror && !report.clean())) ? 1 : 0;
  }
  for (const auto& diag : report.diagnostics()) {
    std::fprintf(stderr, "%s: %s\n", target.c_str(),
                 isa::analysis::to_string(diag, &program).c_str());
  }
  std::printf("%s: %zu instruction(s), %zu error(s), %zu warning(s)\n",
              target.c_str(), program.size(), report.error_count(),
              report.warning_count());
  return (!report.ok() || (werror && !report.clean())) ? 1 : 0;
}

/// Options of `acoustic check` (and the eval/simulate preflights).
struct CheckCliOptions {
  std::string target_name;
  analysis::CheckOptions options;
  bool werror = false;
  bool json = false;
};

/// `acoustic check`: the network-level SC static analyzer over a zoo
/// descriptor ('zoo' = all of them under one shared config), or a
/// trainable small model (lenet / cifar / resnet-tiny) with weight scans
/// and the executed plan-invariant probe.
int cmd_check(const CheckCliOptions& opt) {
  core::Report report;
  const std::string& name = opt.target_name;
  if (name == "zoo") {
    // One config, many models: emit the config findings once up front.
    if (opt.options.target == analysis::CheckTarget::kScSim) {
      report.merge(analysis::check_config(opt.options.sc));
    }
    analysis::CheckOptions per_model = opt.options;
    per_model.include_config = false;
    for (const nn::NetworkDesc& net : nn::table3_workloads()) {
      report.merge(analysis::check_descriptor(net, per_model));
    }
  } else if (const std::optional<nn::NetworkDesc> net = find_network(name)) {
    report = analysis::check_descriptor(*net, opt.options);
  } else if (name == "lenet" || name == "cifar" || name == "resnet-tiny") {
    // Trainable models: built in the OR-approximate training mode the SC
    // backends evaluate, Kaiming-initialized (deterministic seeds).
    nn::Network net = name == "lenet"
                          ? train::build_lenet_small(nn::AccumMode::kOrApprox)
                      : name == "cifar"
                          ? train::build_cifar_small(nn::AccumMode::kOrApprox)
                          : train::build_resnet_tiny(nn::AccumMode::kOrApprox);
    const nn::Shape input{16, 16, name == "lenet" ? 1 : 3};
    report = analysis::check_network(net, name, input, opt.options);
  } else {
    std::fprintf(stderr,
                 "check: unknown target '%s' (expected a zoo network, "
                 "'zoo', or lenet/cifar/resnet-tiny)\n", name.c_str());
    return 2;
  }

  if (opt.json) {
    std::printf("%s\n", core::to_json(report).c_str());
  } else {
    for (const core::Diagnostic& diag : report.diagnostics()) {
      std::fprintf(stderr, "%s\n", diag.to_string().c_str());
    }
    std::printf("%s: %zu error(s), %zu warning(s), %zu note(s)\n",
                name.c_str(), report.error_count(), report.warning_count(),
                report.note_count());
  }
  return report.fails(opt.werror) ? 1 : 0;
}

/// Warn-level preflight shared by `acoustic eval` and `acoustic simulate`:
/// prints every finding on stderr but never blocks the run — the point is
/// to explain a bad result before it happens, not to refuse to produce it.
void print_preflight(const core::Report& report, const char* who) {
  for (const core::Diagnostic& diag : report.diagnostics()) {
    std::fprintf(stderr, "%s preflight: %s\n", who, diag.to_string().c_str());
  }
  if (!report.ok()) {
    std::fprintf(stderr,
                 "%s preflight: %zu error(s) — the run below is expected "
                 "to fail or produce meaningless results (rerun `acoustic "
                 "check` for details, or pass --no-preflight to silence "
                 "this)\n", who, report.error_count());
  }
}

struct EvalOptions {
  std::string backend = "sc";
  std::string model = "lenet";
  unsigned threads = 0;        // 0 = hardware concurrency
  unsigned intra_threads = 0;  // SC intra-image workers (0 = auto,
                               // work-gated on the shared pool; 1 = serial)
  std::string exec = "planned";
  std::string pool_mode = "exact";  // MaxPool2D execution: exact | sc
  int side = 16;  // input side for zoo-descriptor models (0 = native)
  std::size_t stream = 128;
  std::size_t train_count = 300;
  std::size_t test_count = 120;
  int epochs = 3;
  bool json = false;
  bool metrics = false;     ///< route counters through obs::Registry
  bool profile = false;     ///< per-layer wall-time/counter table
  bool prometheus = false;  ///< registry in Prometheus text format
  bool verbose = false;     ///< training log + eval progress on stderr
  bool preflight = true;    ///< warn-level `acoustic check` before eval
  std::string trace_json;   ///< Chrome trace-event output path ("" = off)
};

/// Writes @p content to @p path; reports the failure on stderr.
bool write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  out.flush();
  if (!out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", path.c_str());
    return false;
  }
  return true;
}

/// Counters + gauges of @p registry as an aligned two-column table
/// (histograms are a JSON/Prometheus-only feature for now).
core::Table metrics_table(const obs::Registry& registry) {
  core::Table table({"metric", "value"});
  for (const auto& [name, value] : registry.counters()) {
    table.add_row({name, std::to_string(value)});
  }
  for (const auto& [name, value] : registry.gauges()) {
    table.add_row({name, core::format_number(value, 6)});
  }
  return table;
}

/// `acoustic eval`: train a small synthetic-dataset network, then run it
/// through the unified backend layer on the parallel batch evaluator.
int cmd_eval(const EvalOptions& opt) {
  // Bipolar-MUX computes a plain scaled sum, so its native training mode
  // is kSum (with the gentler schedule the unbounded logits need); every
  // other backend runs the OR-approximate-trained network the paper's
  // training enhancement produces.
  const bool bipolar = opt.backend == "bipolar";
  const nn::AccumMode mode =
      bipolar ? nn::AccumMode::kSum : nn::AccumMode::kOrApprox;

  train::Dataset tr;
  train::Dataset te;
  bool zoo = false;  // zoo-descriptor model: untrained, evaluated as-built
  nn::Shape input_shape{16, 16, 1};
  nn::Network net = [&] {
    if (opt.model == "lenet") {
      tr = train::make_synth_digits(opt.train_count, 42, 16);
      te = train::make_synth_digits(opt.test_count, 999, 16);
      input_shape = nn::Shape{16, 16, 1};
      return train::build_lenet_small(mode, 16);
    }
    if (opt.model == "cifar" || opt.model == "cifar-max" ||
        opt.model == "resnet-tiny") {
      tr = train::make_synth_objects(opt.train_count, 11, 16);
      te = train::make_synth_objects(opt.test_count, 777, 16);
      input_shape = nn::Shape{16, 16, 3};
      if (opt.model == "cifar-max") {
        return train::build_cifar_small_maxpool(mode, 16);
      }
      if (opt.model == "resnet-tiny") {
        return train::build_resnet_tiny(mode, 16);
      }
      return train::build_cifar_small(mode, 16);
    }
    if (const std::optional<nn::NetworkDesc> desc = find_network(opt.model)) {
      // Full zoo workload built from its shape descriptor at a reduced
      // input side (Kaiming-initialized, untrained): what `eval` verifies
      // here is the end-to-end executor — bit determinism across threads
      // and exec modes — not a trained accuracy figure.
      zoo = true;
      nn::ZooBuildOptions zopt;
      zopt.side = opt.side;
      zopt.mode = bipolar ? nn::AccumMode::kSum : nn::AccumMode::kOrExact;
      input_shape = nn::zoo_input_shape(*desc, zopt);
      te = input_shape.c == 1
               ? train::make_synth_digits(opt.test_count, 999, input_shape.h)
               : train::make_synth_objects(opt.test_count, 999,
                                           input_shape.h);
      return nn::build_from_descriptor(*desc, zopt);
    }
    throw std::invalid_argument("eval: unknown model '" + opt.model +
                                "' (expected lenet, cifar, cifar-max, "
                                "resnet-tiny, or a zoo network: lenet5/"
                                "cifar10/svhn/alexnet/vgg16/resnet18)");
  }();

  if (zoo) {
    if (!opt.json && !opt.prometheus) {
      std::printf("built %s from the zoo descriptor at %dx%dx%d "
                  "(untrained, %zu layers)...\n", opt.model.c_str(),
                  input_shape.h, input_shape.w, input_shape.c,
                  net.layer_count());
    }
  } else {
    train::TrainConfig cfg;
    cfg.epochs = opt.epochs;
    cfg.verbose = opt.verbose;
    if (bipolar) {
      cfg.learning_rate = 0.01f;
      cfg.lr_decay = 0.95f;
    }
    if (!opt.json && !opt.prometheus) {
      std::printf("training %s (%s mode, %d epochs, %zu samples)...\n",
                  opt.model.c_str(), bipolar ? "sum" : "or-approx",
                  cfg.epochs, tr.size());
    }
    (void)train::fit(net, tr, cfg);
  }

  sim::ScConfig sc_cfg;
  sc_cfg.stream_length = opt.stream;
  sc_cfg.intra_threads = opt.intra_threads;
  if (opt.exec == "scalar") {
    sc_cfg.exec = sim::ExecMode::kScalar;
  } else if (opt.exec != "planned") {
    throw std::invalid_argument("eval: unknown --exec '" + opt.exec +
                                "' (expected planned or scalar)");
  }
  if (opt.pool_mode == "sc") {
    sc_cfg.max_pool = sim::MaxPoolMode::kStochastic;
  } else if (opt.pool_mode != "exact") {
    throw std::invalid_argument("eval: unknown --pool-mode '" +
                                opt.pool_mode +
                                "' (expected exact or sc)");
  }
  // Warn-level preflight of the trained network under the exact SC config
  // the backend will run: saturation, quantization and stream-geometry
  // findings explain a bad accuracy figure before it is measured. Only the
  // SC backends have stream semantics to check.
  if (opt.preflight && (opt.backend == "sc" || opt.backend == "sc-mux")) {
    analysis::CheckOptions check_opt;
    check_opt.sc = sc_cfg;
    if (opt.backend == "sc-mux") {
      check_opt.sc.pooling = sim::PoolingMode::kMux;
    }
    // The probe runs its own ScNetwork forward; the evaluator below does
    // the real one, so skip the duplicate work and keep eval fast.
    check_opt.probe = false;
    print_preflight(
        analysis::check_network(net, opt.model, input_shape, check_opt),
        "eval");
  }

  sim::BipolarConfig bipolar_cfg;
  bipolar_cfg.stream_length = opt.stream;
  const std::unique_ptr<sim::InferenceBackend> backend =
      sim::make_backend(opt.backend, net, sc_cfg, bipolar_cfg);

  // Observability attachments: spans feed both --profile and --trace-json,
  // the registry feeds --metrics and --prometheus. The hardware counter
  // group must be constructed *before* the BatchEvaluator: with
  // Options::inherit the kernel only follows threads created after the
  // event fds open, and the evaluator spawns its pool at construction.
  const bool want_profiler = opt.profile || !opt.trace_json.empty();
  const bool want_metrics = opt.metrics || opt.prometheus;
  std::optional<obs::PerfCounterGroup> hw;
  if (want_profiler || want_metrics) {
    obs::PerfCounterGroup::Options perf_opt;
    perf_opt.inherit = true;
    hw.emplace(perf_opt);
  }

  sim::BatchEvaluator evaluator(opt.threads);

  obs::Profiler profiler;
  sim::EvalHooks hooks;
  if (want_profiler) {
    hooks.profiler = &profiler;
    hooks.counters = hw ? &*hw : nullptr;
  }
  const auto eval_start = std::chrono::steady_clock::now();
  if (opt.verbose) {
    hooks.progress = [&eval_start](std::size_t done, std::size_t total) {
      // Milestone-throttled: each done value is claimed by exactly one
      // worker, so at most one thread prints a given milestone.
      const std::size_t step = std::max<std::size_t>(1, total / 20);
      if (done % step != 0 && done != total) {
        return;
      }
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        eval_start)
              .count();
      const double rate = elapsed > 0.0
                              ? static_cast<double>(done) / elapsed
                              : 0.0;
      const double eta =
          rate > 0.0 ? static_cast<double>(total - done) / rate : 0.0;
      std::fprintf(stderr, "\reval: %zu/%zu images  %.1f img/s  ETA %.1fs ",
                   done, total, rate, eta);
    };
  }

  if (hw) {
    hw->start();
  }
  const sim::EvalResult result = evaluator.evaluate(*backend, te, hooks);
  obs::PerfSample hw_total;
  if (hw) {
    hw_total = hw->stop();
  }
  if (opt.verbose) {
    std::fprintf(stderr, "\n");
    // Scheduler telemetry (nondeterministic, so stderr/verbose only —
    // like the progress line above).
    std::fprintf(stderr,
                 "scheduler: %llu task(s), %llu stolen, occupancy %.2f "
                 "(%u/%u workers busy at peak)\n",
                 static_cast<unsigned long long>(result.sched.tasks),
                 static_cast<unsigned long long>(result.sched.steals),
                 result.sched.occupancy(), result.sched.busy_peak,
                 result.sched.workers);
  }

  // Aggregate the spans once; every export below reuses them. The dropped
  // count must be read before take() (take() resets it for the next
  // recording).
  std::uint64_t dropped_spans = 0;
  std::vector<obs::SpanRecord> spans;
  std::vector<obs::ProfileRow> rows;
  std::vector<obs::ProfileRow> phase_rows;
  if (want_profiler) {
    dropped_spans = profiler.dropped();
    spans = profiler.take();
    rows = obs::aggregate_profile(spans, "layer");
    // Evaluator phases in order, each step inside setup (the up-front
    // table build) right after it as "setup/<step>".
    const std::vector<obs::ProfileRow> setup_steps =
        obs::aggregate_profile(spans, "setup");
    for (obs::ProfileRow& row : obs::aggregate_profile(spans, "phase")) {
      const bool setup = row.name == "setup";
      phase_rows.push_back(std::move(row));
      if (setup) {
        for (const obs::ProfileRow& step : setup_steps) {
          phase_rows.push_back(step);
          phase_rows.back().name = "setup/" + step.name;
        }
      }
    }
  }
  if (opt.verbose && want_profiler) {
    std::fprintf(stderr, "trace: %zu span(s) recorded, %llu dropped\n",
                 spans.size(),
                 static_cast<unsigned long long>(dropped_spans));
  }

  obs::Registry registry;
  if (want_metrics) {
    sim::export_metrics(result, registry);
    // With the profiler on, fold the per-layer counter sums in too — sums
    // over all samples, so still deterministic across thread counts.
    for (const obs::ProfileRow& row : rows) {
      const std::string prefix = "layer." + row.name;
      registry.add(prefix + ".calls", row.calls);
      for (const auto& [key, value] : row.counters) {
        registry.add(prefix + "." + key, value);
      }
    }
  }

  if (!opt.trace_json.empty()) {
    obs::ChromeTraceWriter writer;
    writer.set_process_name(0, "acoustic eval (" + result.backend + ")");
    std::set<std::uint32_t> tracks;
    for (const obs::SpanRecord& span : spans) {
      tracks.insert(span.track);
    }
    for (const std::uint32_t track : tracks) {
      writer.set_thread_name(0, static_cast<int>(track),
                             "worker " + std::to_string(track));
    }
    writer.add_spans(0, spans);
    writer.set_metadata("backend", obs::json_quote(result.backend));
    writer.set_metadata("model", obs::json_quote(opt.model));
    writer.set_metadata("samples", obs::json_number(
                            static_cast<std::uint64_t>(result.samples)));
    writer.set_metadata("threads", obs::json_number(
                            static_cast<std::uint64_t>(result.threads)));
    writer.set_metadata("dropped_events", obs::json_number(dropped_spans));
    if (!write_text_file(opt.trace_json, writer.to_string())) {
      return 1;
    }
    std::fprintf(opt.json || opt.prometheus ? stderr : stdout,
                 "trace: wrote %zu event(s) to %s\n", writer.event_count(),
                 opt.trace_json.c_str());
    if (dropped_spans > 0) {
      std::fprintf(stderr,
                   "warning: trace truncated — %llu span(s) dropped after "
                   "the recording cap\n",
                   static_cast<unsigned long long>(dropped_spans));
    }
  }

  if (opt.prometheus) {
    // Prometheus is a point-in-time scrape, so the nondeterministic hw.*
    // and scheduler readings belong here (unlike the JSON "metrics"
    // section, which is documented byte-identical across thread counts).
    if (hw) {
      obs::export_metrics(hw_total, registry, "hw");
    }
    sim::export_scheduler_metrics(result, registry);
    std::fputs(registry.to_prometheus().c_str(), stdout);
    return 0;
  }

  if (opt.json) {
    if (!opt.metrics && !opt.profile) {
      // Classic shape, kept stable for existing consumers.
      std::fputs(core::to_json(result).c_str(), stdout);
      return 0;
    }
    // Unified telemetry document. Everything outside "timing" is
    // byte-identical for any --threads value (see BatchEvaluator's
    // determinism contract); all wall-clock data lives under "timing".
    std::string doc = "{\n  \"command\": \"eval\",\n  \"backend\": ";
    doc += obs::json_quote(result.backend);
    doc += ",\n  \"model\": ";
    doc += obs::json_quote(opt.model);
    doc += ",\n  \"stream_length\": ";
    doc += obs::json_number(static_cast<std::uint64_t>(opt.stream));
    doc += ",\n  \"samples\": ";
    doc += obs::json_number(static_cast<std::uint64_t>(result.samples));
    doc += ",\n";
    if (opt.metrics) {
      doc += "  \"metrics\": ";
      doc += registry.to_json(2);
      doc += ",\n";
    }
    if (opt.profile) {
      doc += "  \"profile\": [";
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const obs::ProfileRow& row = rows[i];
        doc += i == 0 ? "\n" : ",\n";
        doc += "    {\"layer\": ";
        doc += obs::json_quote(row.name);
        doc += ", \"kind\": ";
        doc += obs::json_quote(row.kind);
        doc += ", \"calls\": ";
        doc += obs::json_number(row.calls);
        doc += ", \"wall_ms\": ";
        doc += obs::json_number(row.wall_ms);
        for (const auto& [key, value] : row.counters) {
          doc += ", ";
          doc += obs::json_quote(key);
          doc += ": ";
          doc += obs::json_number(value);
        }
        doc += "}";
      }
      doc += rows.empty() ? "],\n" : "\n  ],\n";
    }
    if (want_profiler) {
      // Span accounting: dropped > 0 means every span-derived view above
      // (profile, trace file) is truncated.
      doc += "  \"trace\": {\"spans\": ";
      doc += obs::json_number(static_cast<std::uint64_t>(spans.size()));
      doc += ", \"dropped\": ";
      doc += obs::json_number(dropped_spans);
      doc += "},\n";
    }
    doc += "  \"timing\": {\n    \"threads\": ";
    doc += obs::json_number(static_cast<std::uint64_t>(result.threads));
    doc += ",\n    \"wall_seconds\": ";
    doc += obs::json_number(result.wall_seconds);
    doc += ",\n    \"throughput_sps\": ";
    doc += obs::json_number(result.throughput_sps);
    doc += ",\n    \"latency_us\": {\"mean\": ";
    doc += obs::json_number(result.latency.mean_us);
    doc += ", \"p50\": ";
    doc += obs::json_number(result.latency.p50_us);
    doc += ", \"p90\": ";
    doc += obs::json_number(result.latency.p90_us);
    doc += ", \"p99\": ";
    doc += obs::json_number(result.latency.p99_us);
    doc += ", \"max\": ";
    doc += obs::json_number(result.latency.max_us);
    doc += "},\n    \"scheduler\": {\"workers\": ";
    // Scheduler telemetry is scheduling-dependent (steal counts vary run
    // to run), which is exactly why it lives under "timing" and not in
    // the byte-identical "metrics" section.
    doc += obs::json_number(static_cast<std::uint64_t>(result.sched.workers));
    doc += ", \"tasks\": ";
    doc += obs::json_number(result.sched.tasks);
    doc += ", \"steals\": ";
    doc += obs::json_number(result.sched.steals);
    doc += ", \"busy_peak\": ";
    doc += obs::json_number(
        static_cast<std::uint64_t>(result.sched.busy_peak));
    doc += ", \"occupancy\": ";
    doc += obs::json_number(result.sched.occupancy());
    doc += "}";
    if (!phase_rows.empty()) {
      // Evaluator phases (setup/run/reduce), with hardware counter deltas
      // where the host provides them.
      doc += ",\n    \"phases\": [";
      for (std::size_t i = 0; i < phase_rows.size(); ++i) {
        const obs::ProfileRow& row = phase_rows[i];
        doc += i == 0 ? "\n" : ",\n";
        doc += "      {\"phase\": ";
        doc += obs::json_quote(row.name);
        doc += ", \"wall_ms\": ";
        doc += obs::json_number(row.wall_ms);
        for (const auto& [key, value] : row.counters) {
          doc += ", ";
          doc += obs::json_quote(key);
          doc += ": ";
          doc += obs::json_number(value);
        }
        doc += "}";
      }
      doc += "\n    ]";
    }
    if (hw) {
      // Whole-run hardware counters (inherit-scoped: all pool workers).
      doc += ",\n    \"hw\": {\"wall_ns\": ";
      doc += obs::json_number(hw_total.wall_ns);
      for (unsigned i = 0; i < obs::kPerfEventCount; ++i) {
        const auto event = static_cast<obs::PerfEvent>(i);
        if (!hw_total.has(event)) {
          continue;
        }
        doc += ", ";
        doc += obs::json_quote(obs::perf_event_name(event));
        doc += ": ";
        doc += obs::json_number(hw_total[event]);
      }
      const double ipc = hw_total.ipc();
      if (ipc == ipc) {
        doc += ", \"ipc\": ";
        doc += obs::json_number(ipc);
      }
      doc += "}";
    }
    doc += "\n  }\n}\n";
    std::fputs(doc.c_str(), stdout);
    return 0;
  }
  std::printf("\n%s backend on %zu test samples (%u thread%s):\n",
              result.backend.c_str(), result.samples, result.threads,
              result.threads == 1 ? "" : "s");
  std::printf("  accuracy:    %.2f%% (%zu/%zu)\n",
              100.0 * result.accuracy, result.correct, result.samples);
  std::printf("  throughput:  %.4g samples/s (%.4g s wall)\n",
              result.throughput_sps, result.wall_seconds);
  std::printf("  latency/us:  mean %.4g  p50 %.4g  p90 %.4g  p99 %.4g  "
              "max %.4g\n", result.latency.mean_us, result.latency.p50_us,
              result.latency.p90_us, result.latency.p99_us,
              result.latency.max_us);
  std::printf("  work:        %llu weighted layers",
              static_cast<unsigned long long>(result.stats.layers_run));
  if (result.stats.product_bits > 0 ||
      result.stats.skipped_operands > 0) {
    std::printf(", %llu product bits, %llu operands skipped",
                static_cast<unsigned long long>(result.stats.product_bits),
                static_cast<unsigned long long>(
                    result.stats.skipped_operands));
  }
  std::printf("\n");
  if (result.stats.stream_bits_generated > 0 ||
      result.stats.stream_bits_reused > 0) {
    std::printf("  streams:     %llu bits generated, %llu reused "
                "(%llu plan hits, %llu misses)\n",
                static_cast<unsigned long long>(
                    result.stats.stream_bits_generated),
                static_cast<unsigned long long>(
                    result.stats.stream_bits_reused),
                static_cast<unsigned long long>(result.stats.plan_hits),
                static_cast<unsigned long long>(result.stats.plan_misses));
  }
  if (result.stats.scratch_bytes > 0) {
    std::printf("  scratch:     %llu bytes steady-state per forward\n",
                static_cast<unsigned long long>(result.stats.scratch_bytes));
  }
  std::printf("  scheduler:   %llu task(s), %llu stolen, occupancy %.2f "
              "(%u/%u workers busy at peak)\n",
              static_cast<unsigned long long>(result.sched.tasks),
              static_cast<unsigned long long>(result.sched.steals),
              result.sched.occupancy(), result.sched.busy_peak,
              result.sched.workers);

  if (opt.profile) {
    double layer_total_ms = 0.0;
    for (const obs::ProfileRow& row : rows) {
      layer_total_ms += row.wall_ms;
    }
    core::Table table({"layer", "kind", "calls", "wall [ms]",
                       "product bits", "skipped", "% of layers"});
    for (const obs::ProfileRow& row : rows) {
      const double share =
          layer_total_ms > 0.0 ? 100.0 * row.wall_ms / layer_total_ms : 0.0;
      table.add_row({row.name, row.kind, std::to_string(row.calls),
                     core::format_number(row.wall_ms, 4),
                     std::to_string(row.counter("product_bits")),
                     std::to_string(row.counter("skipped_operands")),
                     core::format_number(share, 3) + "%"});
    }
    std::printf("\nper-layer profile (summed across all workers):\n%s",
                table.to_string().c_str());
    // Compare against total compute time — the sum of per-sample forward
    // latencies, i.e. wall time normalized for the worker count.
    const double compute_ms =
        result.latency.mean_us * static_cast<double>(result.samples) / 1e3;
    if (compute_ms > 0.0) {
      std::printf("  layers cover %.4g ms of %.4g ms total compute "
                  "(%.1f%%)\n", layer_total_ms, compute_ms,
                  100.0 * layer_total_ms / compute_ms);
    }
    if (!phase_rows.empty()) {
      core::Table phases({"phase", "wall [ms]", "counters"});
      for (const obs::ProfileRow& row : phase_rows) {
        std::string counters;
        for (const auto& [key, value] : row.counters) {
          if (!counters.empty()) {
            counters += "  ";
          }
          counters += key + "=" + std::to_string(value);
        }
        phases.add_row({row.name, core::format_number(row.wall_ms, 4),
                        counters.empty() ? "-" : counters});
      }
      std::printf("\nevaluator phases:\n%s", phases.to_string().c_str());
    }
    if (dropped_spans > 0) {
      std::printf("  warning: %llu span(s) dropped after the recording "
                  "cap — profile and trace views are truncated\n",
                  static_cast<unsigned long long>(dropped_spans));
    }
  }

  if (opt.metrics) {
    // hw.* and scheduler readings join the human table (nondeterministic,
    // so they stay out of the machine-readable "metrics" JSON section
    // above).
    if (hw) {
      obs::export_metrics(hw_total, registry, "hw");
    }
    sim::export_scheduler_metrics(result, registry);
    std::printf("\nmetrics:\n%s", metrics_table(registry).to_string().c_str());
  }
  return 0;
}

struct BenchCliOptions {
  std::vector<std::string> suites;  ///< empty = every registered suite
  int iters = -1;                   ///< -1 = default (10, or 5 with --quick)
  int warmup = -1;                  ///< -1 = default (2, or 1 with --quick)
  bool quick = false;
  std::size_t stream = 128;
  unsigned threads_max = 0;
  std::string json_path;
  std::string compare_path;
  double noise_mult = 4.0;  ///< --noise: threshold in MADs
  double rel_floor = 0.10;  ///< --tolerance: relative floor fraction
  bool counters = true;
  bool strict = false;  ///< gate even on a foreign-machine baseline
  bool list = false;
};

/// `acoustic bench`: run the registered suites under the shared harness
/// into one bench.v1 document; optionally persist it (--json) and gate
/// against a previous one (--compare).
int cmd_bench(const BenchCliOptions& opt) {
  if (opt.list) {
    core::Table table({"suite", "description"});
    for (const tools::BenchSuite& suite : tools::bench_suites()) {
      table.add_row({suite.name, suite.description});
    }
    std::printf("%s", table.to_string().c_str());
    return 0;
  }

  std::vector<const tools::BenchSuite*> selected;
  if (opt.suites.empty()) {
    for (const tools::BenchSuite& suite : tools::bench_suites()) {
      selected.push_back(&suite);
    }
  } else {
    for (const std::string& name : opt.suites) {
      const tools::BenchSuite* suite = tools::find_bench_suite(name);
      if (suite == nullptr) {
        std::fprintf(stderr,
                     "bench: unknown suite '%s' (see `acoustic bench "
                     "--list`)\n", name.c_str());
        return 2;
      }
      selected.push_back(suite);
    }
  }

  obs::BenchOptions bopt = obs::BenchOptions::from_env();
  bopt.iters = opt.iters >= 0 ? opt.iters : (opt.quick ? 5 : bopt.iters);
  bopt.warmup = opt.warmup >= 0 ? opt.warmup : (opt.quick ? 1 : bopt.warmup);
  bopt.counters = opt.counters;

  obs::Bench bench("acoustic-bench", bopt);
  bench.meta().simd =
      sc::kernels::level_name(sc::kernels::active_level());

  tools::BenchSuiteOptions sopt;
  sopt.stream = opt.stream;
  sopt.threads_max = opt.threads_max;
  sopt.quick = opt.quick;

  for (const tools::BenchSuite* suite : selected) {
    std::fprintf(stderr, "bench: suite %s (%d warmup + %d iters)...\n",
                 suite->name, bopt.warmup, bopt.iters);
    suite->run(bench, sopt);
  }

  const obs::BenchDocument& doc = bench.document();
  const obs::BenchMeta& meta = doc.meta;
  std::printf("bench: %s | %s | simd %s | %s build | counters:",
              meta.host.c_str(),
              meta.cpu.empty() ? "unknown cpu" : meta.cpu.c_str(),
              meta.simd.c_str(), meta.build.c_str());
  if (meta.counters.empty()) {
    std::printf(" none (degraded host)");
  } else {
    for (const std::string& name : meta.counters) {
      std::printf(" %s", name.c_str());
    }
  }
  std::printf("\n\n");

  core::Table table({"entry", "unit", "median", "mad", "min", "p95", "ipc"});
  for (const obs::BenchEntry& entry : doc.entries) {
    std::string ipc = "-";
    for (const auto& [key, value] : entry.counters) {
      if (key == "ipc") {
        ipc = core::format_number(value, 4);
      }
    }
    table.add_row({entry.name, entry.unit,
                   core::format_number(entry.stats.median, 5),
                   core::format_number(entry.stats.mad, 4),
                   core::format_number(entry.stats.min, 5),
                   core::format_number(entry.stats.p95, 5), ipc});
  }
  std::printf("%s", table.to_string().c_str());

  if (!opt.json_path.empty()) {
    if (!write_text_file(opt.json_path, obs::to_json(doc))) {
      return 1;
    }
    std::printf("\nwrote %s\n", opt.json_path.c_str());
  }

  if (opt.compare_path.empty()) {
    return 0;
  }

  std::ifstream in(opt.compare_path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "bench: cannot read baseline '%s'\n",
                 opt.compare_path.c_str());
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  obs::BenchDocument baseline;
  try {
    baseline = obs::parse_bench_json(buffer.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench: baseline '%s': %s\n",
                 opt.compare_path.c_str(), e.what());
    return 1;
  }

  obs::CompareOptions copt;
  copt.noise_mult = opt.noise_mult;
  copt.rel_floor = opt.rel_floor;
  const obs::CompareResult cmp = obs::compare(doc, baseline, copt);

  core::Table verdicts({"entry", "verdict", "baseline", "current", "ratio",
                        "threshold"});
  for (const obs::CompareEntry& entry : cmp.entries) {
    verdicts.add_row({entry.name, obs::verdict_name(entry.verdict),
                      core::format_number(entry.base_median, 5),
                      core::format_number(entry.cur_median, 5),
                      entry.ratio > 0.0 ? core::format_number(entry.ratio, 4)
                                        : std::string("-"),
                      core::format_number(entry.threshold, 4)});
  }
  std::printf("\ncompare vs %s:\n%s", opt.compare_path.c_str(),
              verdicts.to_string().c_str());
  std::printf("summary: %zu improved, %zu unchanged, %zu regressed\n",
              cmp.improved, cmp.unchanged, cmp.regressed);
  if (!cmp.host_match) {
    std::fprintf(stderr,
                 "bench: baseline was recorded on different hardware or a "
                 "different build — verdicts are informational%s\n",
                 opt.strict ? " (gating anyway: --strict)" : "; pass "
                 "--strict to gate on them regardless");
  }
  if (cmp.should_fail(opt.strict)) {
    std::fprintf(stderr, "bench: FAIL — %zu entr%s regressed beyond the "
                 "noise threshold\n", cmp.regressed,
                 cmp.regressed == 1 ? "y" : "ies");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage();
  }
  const std::string cmd = argv[1];
  if (cmd == "list") {
    return cmd_list();
  }

  if (cmd == "eval") {
    EvalOptions opt;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> const char* {
        return i + 1 < argc ? argv[++i] : nullptr;
      };
      const char* v = nullptr;
      if (arg == "--backend" && (v = value()) != nullptr) {
        opt.backend = v;
      } else if (arg == "--model" && (v = value()) != nullptr) {
        opt.model = v;
      } else if (arg == "--threads" && (v = value()) != nullptr) {
        opt.threads = static_cast<unsigned>(std::atoi(v));
      } else if (arg == "--intra-threads" && (v = value()) != nullptr) {
        opt.intra_threads = static_cast<unsigned>(std::atoi(v));
      } else if (arg == "--exec" && (v = value()) != nullptr) {
        opt.exec = v;
      } else if (arg == "--pool-mode" && (v = value()) != nullptr) {
        opt.pool_mode = v;
      } else if (arg == "--side" && (v = value()) != nullptr) {
        opt.side = std::atoi(v);
      } else if (arg == "--stream" && (v = value()) != nullptr) {
        opt.stream = static_cast<std::size_t>(std::atoll(v));
      } else if (arg == "--train" && (v = value()) != nullptr) {
        opt.train_count = static_cast<std::size_t>(std::atoll(v));
      } else if (arg == "--test" && (v = value()) != nullptr) {
        opt.test_count = static_cast<std::size_t>(std::atoll(v));
      } else if (arg == "--epochs" && (v = value()) != nullptr) {
        opt.epochs = std::atoi(v);
      } else if (arg == "--json") {
        opt.json = true;
      } else if (arg == "--metrics") {
        opt.metrics = true;
      } else if (arg == "--profile") {
        opt.profile = true;
      } else if (arg == "--prometheus") {
        opt.prometheus = true;
      } else if (arg == "--verbose") {
        opt.verbose = true;
      } else if (arg == "--no-preflight") {
        opt.preflight = false;
      } else if (arg == "--trace-json" && (v = value()) != nullptr) {
        opt.trace_json = v;
      } else {
        return usage();
      }
    }
    try {
      return cmd_eval(opt);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "eval: %s\n", e.what());
      return 1;
    }
  }

  if (cmd == "bench") {
    BenchCliOptions opt;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> const char* {
        return i + 1 < argc ? argv[++i] : nullptr;
      };
      const char* v = nullptr;
      if (arg == "--suite" && (v = value()) != nullptr) {
        opt.suites.emplace_back(v);
      } else if (arg == "--iters" && (v = value()) != nullptr) {
        opt.iters = std::atoi(v);
      } else if (arg == "--warmup" && (v = value()) != nullptr) {
        opt.warmup = std::atoi(v);
      } else if (arg == "--quick") {
        opt.quick = true;
      } else if (arg == "--stream" && (v = value()) != nullptr) {
        opt.stream = static_cast<std::size_t>(std::atoll(v));
      } else if (arg == "--threads-max" && (v = value()) != nullptr) {
        opt.threads_max = static_cast<unsigned>(std::atoi(v));
      } else if (arg == "--json" && (v = value()) != nullptr) {
        opt.json_path = v;
      } else if (arg == "--compare" && (v = value()) != nullptr) {
        opt.compare_path = v;
      } else if (arg == "--noise" && (v = value()) != nullptr) {
        opt.noise_mult = std::atof(v);
      } else if (arg == "--tolerance" && (v = value()) != nullptr) {
        opt.rel_floor = std::atof(v);
      } else if (arg == "--no-counters") {
        opt.counters = false;
      } else if (arg == "--strict") {
        opt.strict = true;
      } else if (arg == "--list") {
        opt.list = true;
      } else {
        return usage();
      }
    }
    try {
      return cmd_bench(opt);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench: %s\n", e.what());
      return 1;
    }
  }

  if (cmd == "lint") {
    perf::ArchConfig arch = perf::lp();
    std::string target;
    bool werror = false;
    bool json = false;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--arch") {
        if (i + 1 >= argc) {
          return usage();
        }
        const std::string v = argv[++i];
        if (v == "ulp") {
          arch = perf::ulp();
        } else if (v != "lp") {
          return usage();
        }
      } else if (arg == "--werror") {
        werror = true;
      } else if (arg == "--json") {
        json = true;
      } else if (target.empty()) {
        target = arg;
      } else {
        return usage();
      }
    }
    if (target.empty()) {
      return usage();
    }
    return cmd_lint(target, arch, werror, json);
  }

  if (cmd == "check") {
    CheckCliOptions opt;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> const char* {
        return i + 1 < argc ? argv[++i] : nullptr;
      };
      const char* v = nullptr;
      if (arg == "--target" && (v = value()) != nullptr) {
        if (std::strcmp(v, "perf") == 0) {
          opt.options.target = analysis::CheckTarget::kPerfSim;
        } else if (std::strcmp(v, "sc") != 0) {
          return usage();
        }
      } else if (arg == "--stream" && (v = value()) != nullptr) {
        opt.options.sc.stream_length =
            static_cast<std::size_t>(std::atoll(v));
      } else if (arg == "--width" && (v = value()) != nullptr) {
        opt.options.sc.sng_width = static_cast<unsigned>(std::atoi(v));
      } else if (arg == "--threshold" && (v = value()) != nullptr) {
        opt.options.saturation_threshold = std::atof(v);
      } else if (arg == "--no-probe") {
        opt.options.probe = false;
      } else if (arg == "--werror") {
        opt.werror = true;
      } else if (arg == "--json") {
        opt.json = true;
      } else if (opt.target_name.empty()) {
        opt.target_name = arg;
      } else {
        return usage();
      }
    }
    if (opt.target_name.empty()) {
      return usage();
    }
    try {
      return cmd_check(opt);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "check: %s\n", e.what());
      return 1;
    }
  }

  // Parse common options.
  perf::ArchConfig arch = perf::lp();
  std::optional<nn::NetworkDesc> net;
  bool trace = false;
  bool layers = false;
  bool metrics = false;
  bool json_out = false;
  bool prometheus = false;
  bool preflight = true;
  std::string trace_json;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--arch") {
      const char* v = next();
      if (v == nullptr) {
        return usage();
      }
      if (std::strcmp(v, "ulp") == 0) {
        arch = perf::ulp();
      } else if (std::strcmp(v, "lp") != 0) {
        return usage();
      }
    } else if (arg == "--batch") {
      const char* v = next();
      if (v == nullptr) {
        return usage();
      }
      arch.batch = std::atoi(v);
    } else if (arg == "--clock") {
      const char* v = next();
      if (v == nullptr) {
        return usage();
      }
      arch.clock_mhz = std::atof(v);
    } else if (arg == "--stream") {
      const char* v = next();
      if (v == nullptr) {
        return usage();
      }
      arch.stream_length = static_cast<std::uint64_t>(std::atoll(v));
    } else if (arg == "--dram") {
      const char* v = next();
      if (v == nullptr) {
        return usage();
      }
      const auto spec = find_dram(v);
      if (!spec) {
        return usage();
      }
      arch.dram = *spec;
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--layers") {
      layers = true;
    } else if (arg == "--metrics") {
      metrics = true;
    } else if (arg == "--json") {
      json_out = true;
    } else if (arg == "--prometheus") {
      prometheus = true;
    } else if (arg == "--no-preflight") {
      preflight = false;
    } else if (arg == "--trace-json") {
      const char* v = next();
      if (v == nullptr) {
        return usage();
      }
      trace_json = v;
    } else if (!net) {
      net = find_network(arg);
      if (!net) {
        std::fprintf(stderr, "unknown network '%s'\n", arg.c_str());
        return usage();
      }
    } else {
      return usage();
    }
  }

  if (cmd == "breakdown") {
    std::printf("%s\n", energy::format_breakdown(
                            energy::area_breakdown(arch)).c_str());
    std::printf("%s", energy::format_breakdown(
                          energy::power_breakdown(arch)).c_str());
    return 0;
  }

  if (!net) {
    std::fprintf(stderr, "%s requires a network\n", cmd.c_str());
    return usage();
  }

  if (cmd == "compile") {
    const core::Accelerator accel(arch);
    std::fputs(isa::format(accel.compile(*net)).c_str(), stdout);
    return 0;
  }
  if (cmd == "simulate") {
    // Warn-level structural preflight: the performance model lowers every
    // zoo descriptor, so only the graph/shape/geometry rules apply here.
    if (preflight) {
      analysis::CheckOptions check_opt;
      check_opt.target = analysis::CheckTarget::kPerfSim;
      print_preflight(analysis::check_descriptor(*net, check_opt),
                      "simulate");
    }
    const core::Accelerator accel(arch);
    const core::InferenceCost cost = accel.run(*net);

    // One traced run serves both the ASCII gantt and the Chrome export.
    std::optional<perf::TracedResult> traced;
    if (trace || !trace_json.empty()) {
      traced = perf::simulate_traced(accel.compile(*net), arch);
    }

    obs::Registry registry;
    if (metrics || prometheus) {
      perf::export_metrics(cost.perf, registry);
      energy::export_metrics(cost.energy, registry);
      energy::export_metrics(energy::area_breakdown(arch), "area", registry);
      energy::export_metrics(energy::power_breakdown(arch), "power",
                             registry);
      registry.set("perf.latency_s", cost.latency_s);
      registry.set("perf.frames_per_s", cost.frames_per_s);
      registry.set("perf.frames_per_j", cost.frames_per_j);
    }

    if (!trace_json.empty()) {
      obs::ChromeTraceWriter writer;
      perf::to_chrome_trace(*traced, arch, writer);
      writer.set_metadata("network", obs::json_quote(net->name));
      if (!write_text_file(trace_json, writer.to_string())) {
        return 1;
      }
      std::fprintf(json_out || prometheus ? stderr : stdout,
                   "trace: wrote %zu event(s) to %s\n", writer.event_count(),
                   trace_json.c_str());
      if (traced->dropped_events > 0) {
        std::fprintf(stderr,
                     "warning: trace truncated — %llu event(s) dropped "
                     "after the recording cap\n",
                     static_cast<unsigned long long>(
                         traced->dropped_events));
      }
    }

    if (prometheus) {
      std::fputs(registry.to_prometheus().c_str(), stdout);
      return 0;
    }

    if (json_out) {
      std::string doc = "{\n  \"command\": \"simulate\",\n  \"network\": ";
      doc += obs::json_quote(net->name);
      doc += ",\n  \"arch\": ";
      doc += obs::json_quote(arch.name);
      doc += ",\n  \"batch\": ";
      doc += obs::json_number(static_cast<std::uint64_t>(
          arch.batch > 0 ? arch.batch : 0));
      doc += ",\n  \"clock_mhz\": ";
      doc += obs::json_number(arch.clock_mhz);
      doc += ",\n  \"stream_length\": ";
      doc += obs::json_number(arch.stream_length);
      doc += ",\n  \"dram\": ";
      doc += arch.has_dram ? obs::json_quote(arch.dram.name)
                           : std::string("null");
      doc += ",\n  \"latency_s\": ";
      doc += obs::json_number(cost.latency_s);
      doc += ",\n  \"frames_per_s\": ";
      doc += obs::json_number(cost.frames_per_s);
      doc += ",\n  \"on_chip_energy_j\": ";
      doc += obs::json_number(cost.on_chip_energy_j);
      doc += ",\n  \"frames_per_j\": ";
      doc += obs::json_number(cost.frames_per_j);
      doc += ",\n  \"dram_energy_j\": ";
      doc += obs::json_number(cost.dram_energy_j);
      if (metrics) {
        doc += ",\n  \"metrics\": ";
        doc += registry.to_json(2);
      }
      doc += "\n}\n";
      std::fputs(doc.c_str(), stdout);
      return 0;
    }

    std::printf("%s on %s (batch %d, %.0f MHz, %llu-bit streams, %s)\n",
                net->name.c_str(), arch.name.c_str(), arch.batch,
                arch.clock_mhz,
                static_cast<unsigned long long>(arch.stream_length),
                arch.has_dram ? arch.dram.name.c_str() : "no DRAM");
    std::printf("  latency/frame: %.6g ms   (%.6g frames/s)\n",
                cost.latency_s * 1e3, cost.frames_per_s);
    std::printf("  energy/frame:  %.6g uJ on-chip (%.6g frames/J), "
                "%.6g uJ DRAM\n", cost.on_chip_energy_j * 1e6,
                cost.frames_per_j, cost.dram_energy_j * 1e6);
    if (metrics) {
      std::printf("\nmetrics:\n%s", metrics_table(registry).to_string()
                                        .c_str());
    }
    if (layers) {
      core::Table table({"layer", "latency [us]", "energy [uJ]",
                         "utilization", "weights"});
      for (const core::LayerCost& layer : accel.run_layers(*net)) {
        table.add_row({layer.label,
                       core::format_number(layer.latency_s * 1e6, 4),
                       core::format_number(layer.on_chip_energy_j * 1e6, 4),
                       core::format_number(100.0 * layer.utilization, 3) +
                           "%",
                       layer.weights_resident ? "resident" : "streamed"});
      }
      std::printf("\n%s", table.to_string().c_str());
    }
    if (trace) {
      std::printf("\n%s\n%s", perf::render_gantt(*traced).c_str(),
                  perf::render_utilization(*traced).c_str());
    }
    return 0;
  }
  return usage();
}
