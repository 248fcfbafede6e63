// acoustic — the command-line tool of the reproduction: the model zoo
// (list), the ACOUSTIC assembly and its static analyzer (compile, lint),
// the performance/energy simulator (simulate, breakdown), the
// network-level SC analyzer (check), dataset evaluation on the inference
// backends (eval) and the benchmark harness (bench). Running `acoustic`
// alone prints every subcommand's flags; tools/cli_options.cpp declares
// them, with their ranges and help.
//
// Exit codes: 0 success; 1 a failed run, analyzer findings (lint/check;
// with --werror any warning) or a bench regression; 2 a usage error — an
// unknown subcommand, flag or target, or a malformed flag value.
#include <chrono>
#include <cinttypes>
#include <cstdio>
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
#include "tools/cli_options.hpp"
#include "train/dataset.hpp"
#include "train/models.hpp"
#include "train/trainer.hpp"

using namespace acoustic;
using tools::BenchCliOptions;
using tools::CheckCliOptions;
using tools::EvalOptions;
using tools::LintCliOptions;
using tools::PerfCliOptions;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: acoustic <list|compile|simulate|breakdown|lint|check|"
               "eval|bench> ...\n"
               "  networks: lenet5 cifar10 svhn alexnet vgg16 resnet18; "
               "'-conv' = conv only\n");
  PerfCliOptions perf;
  LintCliOptions lint;
  CheckCliOptions check;
  EvalOptions eval;
  BenchCliOptions bench;
  for (const tools::FlagTable& table :
       {tools::perf_flags(perf, "compile|simulate|breakdown"),
        tools::lint_flags(lint), tools::check_flags(check),
        tools::eval_flags(eval), tools::bench_flags(bench)}) {
    std::fprintf(stderr, "%s", table.usage().c_str());
  }
  return 2;
}

/// The Table III model zoo under its CLI names.
const std::pair<const char*, nn::NetworkDesc (*)()> kZoo[] = {
    {"lenet5", nn::lenet5},   {"cifar10", nn::cifar10_cnn},
    {"svhn", nn::svhn_cnn},   {"alexnet", nn::alexnet},
    {"vgg16", nn::vgg16},     {"resnet18", nn::resnet18}};

/// A zoo network by name; the suffix "-conv" keeps its conv layers only.
std::optional<nn::NetworkDesc> find_network(std::string name) {
  const std::string suffix = "-conv";
  const bool conv_only =
      name.size() > suffix.size() && name.ends_with(suffix);
  if (conv_only) {
    name.resize(name.size() - suffix.size());
  }
  for (const auto& [zoo_name, make] : kZoo) {
    if (name == zoo_name) {
      return conv_only ? make().conv_only() : make();
    }
  }
  return std::nullopt;
}

/// Synthetic images: seven-segment digits (1 channel) or colored
/// textures (3 channels).
train::Dataset synth_dataset(int channels, std::size_t count,
                             std::uint32_t seed, int side) {
  return channels == 1 ? train::make_synth_digits(count, seed, side)
                       : train::make_synth_objects(count, seed, side);
}

/// The trainable small models `eval` trains and `check` scans, each with
/// a 16x16 input and its synthetic dataset.
struct SmallModel {
  const char* name;
  nn::Network (*build)(nn::AccumMode mode);
  int channels;
  std::uint32_t train_seed;
  std::uint32_t test_seed;

  [[nodiscard]] nn::Shape input() const { return {16, 16, channels}; }
};

const SmallModel kSmallModels[] = {
    {"lenet",
     [](nn::AccumMode m) { return train::build_lenet_small(m); }, 1, 42,
     999},
    {"cifar",
     [](nn::AccumMode m) { return train::build_cifar_small(m); }, 3, 11,
     777},
    {"cifar-max",
     [](nn::AccumMode m) { return train::build_cifar_small_maxpool(m); }, 3,
     11, 777},
    {"resnet-tiny",
     [](nn::AccumMode m) { return train::build_resnet_tiny(m); }, 3, 11,
     777},
};

const SmallModel* find_small_model(const std::string& name) {
  for (const SmallModel& model : kSmallModels) {
    if (name == model.name) {
      return &model;
    }
  }
  return nullptr;
}

int cmd_list() {
  core::Table table({"network", "layers", "MACs", "weights",
                     "conv MACs", "FC MACs"});
  for (const auto& [zoo_name, make] : kZoo) {
    const nn::NetworkDesc net = make();
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
int cmd_lint(const LintCliOptions& opt) {
  const std::string& target = opt.target;
  const perf::ArchConfig arch = tools::machine(opt.arch);
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
    std::ifstream file;
    if (target != "-" && (file.open(target), !file)) {
      std::fprintf(stderr, "lint: cannot open '%s' (not a file or a "
                   "known network)\n", target.c_str());
      return 2;
    }
    std::ostringstream text;
    text << (target == "-" ? std::cin.rdbuf() : file.rdbuf());
    try {
      program = isa::parse(text.str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", target.c_str(), e.what());
      return 1;
    }
  }
  const isa::analysis::Report report =
      isa::analysis::analyze(program, {perf::machine_limits(arch)});
  const int status = (!report.ok() || (opt.werror && !report.clean())) ? 1 : 0;
  if (opt.json) {
    // Machine-readable mode: stdout carries exactly the shared JSON report
    // format (the same core::to_json that `acoustic check --json` emits).
    std::printf("%s\n", core::to_json(report).c_str());
    return status;
  }
  for (const auto& diag : report.diagnostics()) {
    std::fprintf(stderr, "%s: %s\n", target.c_str(),
                 isa::analysis::to_string(diag, &program).c_str());
  }
  std::printf("%s: %zu instruction(s), %zu error(s), %zu warning(s)\n",
              target.c_str(), program.size(), report.error_count(),
              report.warning_count());
  return status;
}

/// `acoustic check`: the network-level SC static analyzer over a zoo
/// descriptor ('zoo' = all of them under one shared config), or a
/// trainable small model with weight scans and the executed
/// plan-invariant probe.
int cmd_check(const CheckCliOptions& opt) {
  core::Report report;
  const std::string& name = opt.name;
  analysis::CheckOptions options = opt.options;
  options.target = opt.target == "perf" ? analysis::CheckTarget::kPerfSim
                                        : analysis::CheckTarget::kScSim;
  if (name == "zoo") {
    // One config, many models: emit the config findings once up front.
    if (options.target == analysis::CheckTarget::kScSim) {
      report.merge(analysis::check_config(options.sc));
    }
    analysis::CheckOptions per_model = options;
    per_model.include_config = false;
    for (const nn::NetworkDesc& net : nn::table3_workloads()) {
      report.merge(analysis::check_descriptor(net, per_model));
    }
  } else if (const std::optional<nn::NetworkDesc> net = find_network(name)) {
    report = analysis::check_descriptor(*net, options);
  } else if (const SmallModel* model = find_small_model(name)) {
    // Built in the OR-approximate training mode the SC backends evaluate,
    // Kaiming-initialized (deterministic seeds).
    nn::Network net = model->build(nn::AccumMode::kOrApprox);
    report = analysis::check_network(net, name, model->input(), options);
  } else {
    std::fprintf(stderr,
                 "check: unknown target '%s' (expected a zoo network, "
                 "'zoo', or lenet/cifar/cifar-max/resnet-tiny)\n",
                 name.c_str());
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

/// The --trace-json writer of `eval` and `simulate`: writes @p writer to
/// @p path and says so on stdout (on stderr when stdout carries a JSON or
/// Prometheus document), warning when @p dropped @p unit fell past the
/// recording cap.
bool write_trace(const obs::ChromeTraceWriter& writer,
                 const std::string& path, bool document_on_stdout,
                 std::uint64_t dropped, const char* unit) {
  if (!write_text_file(path, writer.to_string())) {
    return false;
  }
  std::fprintf(document_on_stdout ? stderr : stdout,
               "trace: wrote %zu event(s) to %s\n", writer.event_count(),
               path.c_str());
  if (dropped > 0) {
    std::fprintf(stderr,
                 "warning: trace truncated — %" PRIu64 " %s dropped after "
                 "the recording cap\n", dropped, unit);
  }
  return true;
}

/// Prints @p registry in Prometheus text format, or as the "metrics:"
/// table of counters and gauges (histograms are JSON/Prometheus only).
void print_metrics(const obs::Registry& registry, bool prometheus) {
  if (prometheus) {
    std::fputs(registry.to_prometheus().c_str(), stdout);
    return;
  }
  core::Table table({"metric", "value"});
  for (const auto& [name, value] : registry.counters()) {
    table.add_row({name, std::to_string(value)});
  }
  for (const auto& [name, value] : registry.gauges()) {
    table.add_row({name, core::format_number(value, 6)});
  }
  std::printf("\nmetrics:\n%s", table.to_string().c_str());
}

// Hand-built JSON documents: byte layouts that consumers already parse.
using JsonFields = std::vector<std::pair<std::string, std::string>>;

/// Appends `"key": value` to the object @p doc, on its own line at
/// @p indent.
void field(std::string& doc, int indent, const char* key,
           const std::string& value) {
  doc += doc.back() == '{' ? "\n" : ",\n";
  doc.append(static_cast<std::size_t>(indent), ' ');
  doc += obs::json_quote(key) + ": " + value;
}

/// {"k": v, ...} on one line.
std::string inline_object(const JsonFields& fields) {
  std::string out = "{";
  for (const auto& [key, value] : fields) {
    out += (out.size() > 1 ? ", " : "") + obs::json_quote(key) + ": " + value;
  }
  return out + "}";
}

/// @p fields followed by @p row's counters.
JsonFields with_counters(JsonFields fields, const obs::ProfileRow& row) {
  for (const auto& [key, value] : row.counters) {
    fields.emplace_back(key, obs::json_number(value));
  }
  return fields;
}

/// The evaluator's scheduler telemetry as one line, after @p head.
void print_scheduler(std::FILE* out, const char* head,
                     const sim::EvalResult& result) {
  std::fprintf(out,
               "%s%" PRIu64 " task(s), %" PRIu64 " stolen, occupancy %.2f "
               "(%u/%u workers busy at peak)\n",
               head, result.sched.tasks, result.sched.steals,
               result.sched.occupancy(), result.sched.busy_peak,
               result.sched.workers);
}

/// What one `acoustic eval` run measured.
struct EvalRun {
  sim::EvalResult result;
  std::optional<obs::PerfSample> hw;  ///< whole-run hardware counters
  std::vector<obs::SpanRecord> spans;
  std::uint64_t dropped_spans = 0;
};

/// `acoustic eval`, first half: build (and train) the model, then run it
/// through the unified backend layer on the parallel batch evaluator with
/// the requested spans and counters attached.
EvalRun run_eval(const EvalOptions& opt) {
  // Bipolar-MUX computes a plain scaled sum, so its native training mode
  // is kSum (with the gentler schedule the unbounded logits need); every
  // other backend runs the OR-approximate-trained network the paper's
  // training enhancement produces.
  const bool bipolar = opt.backend == "bipolar";
  const nn::AccumMode mode =
      bipolar ? nn::AccumMode::kSum : nn::AccumMode::kOrApprox;
  const bool quiet = opt.json || opt.prometheus;

  train::Dataset te;
  nn::Shape input_shape;
  nn::Network net;
  if (const SmallModel* model = find_small_model(opt.model)) {
    net = model->build(mode);
    input_shape = model->input();
    te = synth_dataset(model->channels, opt.test_count, model->test_seed, 16);
    const train::Dataset tr = synth_dataset(
        model->channels, opt.train_count, model->train_seed, 16);
    train::TrainConfig cfg;
    cfg.epochs = opt.epochs;
    cfg.verbose = opt.verbose;
    if (bipolar) {
      cfg.learning_rate = 0.01f;
      cfg.lr_decay = 0.95f;
    }
    if (!quiet) {
      std::printf("training %s (%s mode, %d epochs, %zu samples)...\n",
                  opt.model.c_str(), bipolar ? "sum" : "or-approx",
                  cfg.epochs, tr.size());
    }
    (void)train::fit(net, tr, cfg);
  } else if (const std::optional<nn::NetworkDesc> desc =
                 find_network(opt.model)) {
    // Full zoo workload built from its shape descriptor at a reduced
    // input side (Kaiming-initialized, untrained): what `eval` verifies
    // here is the end-to-end executor — bit determinism across threads
    // and exec modes — not a trained accuracy figure.
    nn::ZooBuildOptions zopt;
    zopt.side = opt.side;
    zopt.mode = bipolar ? nn::AccumMode::kSum : nn::AccumMode::kOrExact;
    input_shape = nn::zoo_input_shape(*desc, zopt);
    te = synth_dataset(input_shape.c, opt.test_count, 999, input_shape.h);
    net = nn::build_from_descriptor(*desc, zopt);
    if (!quiet) {
      std::printf("built %s from the zoo descriptor at %dx%dx%d "
                  "(untrained, %zu layers)...\n", opt.model.c_str(),
                  input_shape.h, input_shape.w, input_shape.c,
                  net.layer_count());
    }
  } else {
    throw std::invalid_argument("unknown model '" + opt.model +
                                "' (expected lenet, cifar, cifar-max, "
                                "resnet-tiny, or a zoo network: lenet5/"
                                "cifar10/svhn/alexnet/vgg16/resnet18)");
  }

  sim::ScConfig sc_cfg;
  sc_cfg.stream_length = opt.stream;
  sc_cfg.intra_threads = opt.intra_threads;
  if (opt.exec == "scalar") {
    sc_cfg.exec = sim::ExecMode::kScalar;
  }
  if (opt.pool_mode == "sc") {
    sc_cfg.max_pool = sim::MaxPoolMode::kStochastic;
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
  std::optional<obs::PerfCounterGroup> hw;
  if (want_profiler || opt.metrics || opt.prometheus) {
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

  EvalRun run;
  if (hw) {
    hw->start();
  }
  run.result = evaluator.evaluate(*backend, te, hooks);
  if (hw) {
    run.hw = hw->stop();
  }
  // The dropped count must be read before take() resets it.
  run.dropped_spans = profiler.dropped();
  run.spans = profiler.take();
  if (opt.verbose) {
    // Scheduler telemetry (nondeterministic, so stderr/verbose only —
    // like the progress line above).
    print_scheduler(stderr, "\nscheduler: ", run.result);
    if (want_profiler) {
      std::fprintf(stderr, "trace: %zu span(s) recorded, %" PRIu64
                   " dropped\n", run.spans.size(), run.dropped_spans);
    }
  }
  return run;
}

/// hw.* and scheduler readings: scheduling-dependent, so they join the
/// Prometheus scrape and the text table but never the JSON "metrics"
/// section, which is byte-identical across thread counts.
void add_point_readings(const EvalRun& run, obs::Registry& registry) {
  if (run.hw) {
    obs::export_metrics(*run.hw, registry, "hw");
  }
  sim::export_scheduler_metrics(run.result, registry);
}

/// The unified `eval --json --metrics/--profile` document. Everything
/// outside "timing" is byte-identical for any --threads value (see
/// BatchEvaluator's determinism contract).
std::string eval_document(const EvalOptions& opt, const EvalRun& run,
                          const obs::Registry& registry,
                          const std::vector<obs::ProfileRow>& rows,
                          const std::vector<obs::ProfileRow>& phase_rows) {
  using obs::json_number;
  using obs::json_quote;
  const sim::EvalResult& result = run.result;
  std::string doc = "{";
  field(doc, 2, "command", json_quote("eval"));
  field(doc, 2, "backend", json_quote(result.backend));
  field(doc, 2, "model", json_quote(opt.model));
  field(doc, 2, "stream_length",
        json_number(static_cast<std::uint64_t>(opt.stream)));
  field(doc, 2, "samples",
        json_number(static_cast<std::uint64_t>(result.samples)));
  if (opt.metrics) {
    field(doc, 2, "metrics", registry.to_json(2));
  }
  if (opt.profile) {
    std::string list = "[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const obs::ProfileRow& row = rows[i];
      list += i == 0 ? "\n    " : ",\n    ";
      list += inline_object(with_counters(
          {{"layer", json_quote(row.name)},
           {"kind", json_quote(row.kind)},
           {"calls", json_number(row.calls)},
           {"wall_ms", json_number(row.wall_ms)}},
          row));
    }
    field(doc, 2, "profile", list + (rows.empty() ? "]" : "\n  ]"));
  }
  if (opt.profile || !opt.trace_json.empty()) {
    // Span accounting: dropped > 0 means every span-derived view above
    // (profile, trace file) is truncated.
    field(doc, 2, "trace",
          inline_object(
              {{"spans",
                json_number(static_cast<std::uint64_t>(run.spans.size()))},
               {"dropped", json_number(run.dropped_spans)}}));
  }
  std::string timing = "{";
  field(timing, 4, "threads",
        json_number(static_cast<std::uint64_t>(result.threads)));
  field(timing, 4, "wall_seconds", json_number(result.wall_seconds));
  field(timing, 4, "throughput_sps", json_number(result.throughput_sps));
  field(timing, 4, "latency_us",
        inline_object({{"mean", json_number(result.latency.mean_us)},
                       {"p50", json_number(result.latency.p50_us)},
                       {"p90", json_number(result.latency.p90_us)},
                       {"p99", json_number(result.latency.p99_us)},
                       {"max", json_number(result.latency.max_us)}}));
  // Scheduler telemetry is scheduling-dependent (steal counts vary run to
  // run), which is exactly why it lives under "timing" and not in the
  // byte-identical "metrics" section.
  field(timing, 4, "scheduler",
        inline_object(
            {{"workers",
              json_number(static_cast<std::uint64_t>(result.sched.workers))},
             {"tasks", json_number(result.sched.tasks)},
             {"steals", json_number(result.sched.steals)},
             {"busy_peak", json_number(static_cast<std::uint64_t>(
                               result.sched.busy_peak))},
             {"occupancy", json_number(result.sched.occupancy())}}));
  if (!phase_rows.empty()) {
    // Evaluator phases (setup/run/reduce), with hardware counter deltas
    // where the host provides them.
    std::string list = "[";
    for (const obs::ProfileRow& row : phase_rows) {
      list += list.size() == 1 ? "\n      " : ",\n      ";
      list += inline_object(with_counters(
          {{"phase", json_quote(row.name)},
           {"wall_ms", json_number(row.wall_ms)}},
          row));
    }
    field(timing, 4, "phases", list + "\n    ]");
  }
  if (run.hw) {
    // Whole-run hardware counters (inherit-scoped: all pool workers).
    const obs::PerfSample& hw = *run.hw;
    JsonFields counters{{"wall_ns", json_number(hw.wall_ns)}};
    for (unsigned i = 0; i < obs::kPerfEventCount; ++i) {
      const auto event = static_cast<obs::PerfEvent>(i);
      if (hw.has(event)) {
        counters.emplace_back(obs::perf_event_name(event),
                              json_number(hw[event]));
      }
    }
    if (const double ipc = hw.ipc(); ipc == ipc) {
      counters.emplace_back("ipc", json_number(ipc));
    }
    field(timing, 4, "hw", inline_object(counters));
  }
  field(doc, 2, "timing", timing + "\n  }");
  return doc + "\n}\n";
}

/// The human-readable --profile tables: per-layer rows, then the
/// evaluator phases.
void print_profile(const EvalRun& run,
                   const std::vector<obs::ProfileRow>& rows,
                   const std::vector<obs::ProfileRow>& phase_rows) {
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
  const double compute_ms = run.result.latency.mean_us *
                            static_cast<double>(run.result.samples) / 1e3;
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
  if (run.dropped_spans > 0) {
    std::printf("  warning: %" PRIu64 " span(s) dropped after the "
                "recording cap — profile and trace views are truncated\n",
                run.dropped_spans);
  }
}

/// `acoustic eval`, second half: the trace file, then the Prometheus
/// scrape, the JSON document or the text summary.
int report_eval(const EvalOptions& opt, const EvalRun& run) {
  const sim::EvalResult& result = run.result;
  const std::vector<obs::ProfileRow> rows =
      obs::aggregate_profile(run.spans, "layer");
  // Evaluator phases in order, each step inside setup (the up-front
  // table build) right after it as "setup/<step>".
  std::vector<obs::ProfileRow> phase_rows;
  const std::vector<obs::ProfileRow> setup_steps =
      obs::aggregate_profile(run.spans, "setup");
  for (obs::ProfileRow& row : obs::aggregate_profile(run.spans, "phase")) {
    const bool setup = row.name == "setup";
    phase_rows.push_back(std::move(row));
    if (setup) {
      for (const obs::ProfileRow& step : setup_steps) {
        phase_rows.push_back(step);
        phase_rows.back().name = "setup/" + step.name;
      }
    }
  }

  obs::Registry registry;
  if (opt.metrics || opt.prometheus) {
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
    for (const obs::SpanRecord& span : run.spans) {
      tracks.insert(span.track);
    }
    for (const std::uint32_t track : tracks) {
      writer.set_thread_name(0, static_cast<int>(track),
                             "worker " + std::to_string(track));
    }
    writer.add_spans(0, run.spans);
    writer.set_metadata("backend", obs::json_quote(result.backend));
    writer.set_metadata("model", obs::json_quote(opt.model));
    writer.set_metadata("samples", obs::json_number(
                            static_cast<std::uint64_t>(result.samples)));
    writer.set_metadata("threads", obs::json_number(
                            static_cast<std::uint64_t>(result.threads)));
    writer.set_metadata("dropped_events",
                        obs::json_number(run.dropped_spans));
    if (!write_trace(writer, opt.trace_json, opt.json || opt.prometheus,
                     run.dropped_spans, "span(s)")) {
      return 1;
    }
  }

  if (opt.prometheus) {
    add_point_readings(run, registry);
    print_metrics(registry, true);
    return 0;
  }

  if (opt.json) {
    // Without --metrics/--profile: the classic shape, kept stable for
    // existing consumers.
    const std::string doc =
        opt.metrics || opt.profile
            ? eval_document(opt, run, registry, rows, phase_rows)
            : core::to_json(result);
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
  const sim::RunStats& stats = result.stats;
  std::printf("  work:        %" PRIu64 " weighted layers", stats.layers_run);
  if (stats.product_bits > 0 || stats.skipped_operands > 0) {
    std::printf(", %" PRIu64 " product bits, %" PRIu64 " operands skipped",
                stats.product_bits, stats.skipped_operands);
  }
  std::printf("\n");
  if (stats.stream_bits_generated > 0 || stats.stream_bits_reused > 0) {
    std::printf("  streams:     %" PRIu64 " bits generated, %" PRIu64
                " reused (%" PRIu64 " plan hits, %" PRIu64 " misses)\n",
                stats.stream_bits_generated, stats.stream_bits_reused,
                stats.plan_hits, stats.plan_misses);
  }
  if (stats.scratch_bytes > 0) {
    std::printf("  scratch:     %" PRIu64 " bytes steady-state per forward\n",
                stats.scratch_bytes);
  }
  print_scheduler(stdout, "  scheduler:   ", result);
  if (opt.profile) {
    print_profile(run, rows, phase_rows);
  }
  if (opt.metrics) {
    add_point_readings(run, registry);
    print_metrics(registry, false);
  }
  return 0;
}

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
  const bool quick = opt.suite.quick;
  bopt.iters = opt.iters >= 0 ? opt.iters : (quick ? 5 : bopt.iters);
  bopt.warmup = opt.warmup >= 0 ? opt.warmup : (quick ? 1 : bopt.warmup);
  bopt.counters = opt.counters;

  obs::Bench bench("acoustic-bench", bopt);
  bench.meta().simd =
      sc::kernels::level_name(sc::kernels::active_level());

  for (const tools::BenchSuite* suite : selected) {
    std::fprintf(stderr, "bench: suite %s (%d warmup + %d iters)...\n",
                 suite->name, bopt.warmup, bopt.iters);
    suite->run(bench, opt.suite);
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

  const obs::CompareResult cmp = obs::compare(doc, baseline, opt.compare);

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

/// `acoustic simulate`: the performance + energy simulation of @p net.
int cmd_simulate(const PerfCliOptions& opt, const perf::ArchConfig& arch,
                 const nn::NetworkDesc& net) {
  // Warn-level structural preflight: the performance model lowers every
  // zoo descriptor, so only the graph/shape/geometry rules apply here.
  if (opt.preflight) {
    analysis::CheckOptions check_opt;
    check_opt.target = analysis::CheckTarget::kPerfSim;
    print_preflight(analysis::check_descriptor(net, check_opt), "simulate");
  }
  const core::Accelerator accel(arch);
  const core::InferenceCost cost = accel.run(net);

  // One traced run serves both the ASCII gantt and the Chrome export.
  std::optional<perf::TracedResult> traced;
  if (opt.trace || !opt.trace_json.empty()) {
    traced = perf::simulate_traced(accel.compile(net), arch);
  }

  obs::Registry registry;
  if (opt.metrics || opt.prometheus) {
    perf::export_metrics(cost.perf, registry);
    energy::export_metrics(cost.energy, registry);
    energy::export_metrics(energy::area_breakdown(arch), "area", registry);
    energy::export_metrics(energy::power_breakdown(arch), "power",
                           registry);
    registry.set("perf.latency_s", cost.latency_s);
    registry.set("perf.frames_per_s", cost.frames_per_s);
    registry.set("perf.frames_per_j", cost.frames_per_j);
  }

  if (!opt.trace_json.empty()) {
    obs::ChromeTraceWriter writer;
    perf::to_chrome_trace(*traced, arch, writer);
    writer.set_metadata("network", obs::json_quote(net.name));
    if (!write_trace(writer, opt.trace_json, opt.json || opt.prometheus,
                     traced->dropped_events, "event(s)")) {
      return 1;
    }
  }

  if (opt.prometheus) {
    print_metrics(registry, true);
    return 0;
  }

  if (opt.json) {
    using obs::json_number;
    std::string doc = "{";
    field(doc, 2, "command", obs::json_quote("simulate"));
    field(doc, 2, "network", obs::json_quote(net.name));
    field(doc, 2, "arch", obs::json_quote(arch.name));
    field(doc, 2, "batch", json_number(static_cast<std::uint64_t>(
                               arch.batch > 0 ? arch.batch : 0)));
    field(doc, 2, "clock_mhz", json_number(arch.clock_mhz));
    field(doc, 2, "stream_length", json_number(arch.stream_length));
    field(doc, 2, "dram", arch.has_dram ? obs::json_quote(arch.dram.name)
                                        : std::string("null"));
    field(doc, 2, "latency_s", json_number(cost.latency_s));
    field(doc, 2, "frames_per_s", json_number(cost.frames_per_s));
    field(doc, 2, "on_chip_energy_j", json_number(cost.on_chip_energy_j));
    field(doc, 2, "frames_per_j", json_number(cost.frames_per_j));
    field(doc, 2, "dram_energy_j", json_number(cost.dram_energy_j));
    if (opt.metrics) {
      field(doc, 2, "metrics", registry.to_json(2));
    }
    doc += "\n}\n";
    std::fputs(doc.c_str(), stdout);
    return 0;
  }

  std::printf("%s on %s (batch %d, %.0f MHz, %" PRIu64 "-bit streams, %s)\n",
              net.name.c_str(), arch.name.c_str(), arch.batch,
              arch.clock_mhz, arch.stream_length,
              arch.has_dram ? arch.dram.name.c_str() : "no DRAM");
  std::printf("  latency/frame: %.6g ms   (%.6g frames/s)\n",
              cost.latency_s * 1e3, cost.frames_per_s);
  std::printf("  energy/frame:  %.6g uJ on-chip (%.6g frames/J), "
              "%.6g uJ DRAM\n", cost.on_chip_energy_j * 1e6,
              cost.frames_per_j, cost.dram_energy_j * 1e6);
  if (opt.metrics) {
    print_metrics(registry, false);
  }
  if (opt.layers) {
    core::Table table({"layer", "latency [us]", "energy [uJ]",
                       "utilization", "weights"});
    for (const core::LayerCost& layer : accel.run_layers(net)) {
      table.add_row({layer.label,
                     core::format_number(layer.latency_s * 1e6, 4),
                     core::format_number(layer.on_chip_energy_j * 1e6, 4),
                     core::format_number(100.0 * layer.utilization, 3) +
                         "%",
                     layer.weights_resident ? "resident" : "streamed"});
    }
    std::printf("\n%s", table.to_string().c_str());
  }
  if (opt.trace) {
    std::printf("\n%s\n%s", perf::render_gantt(*traced).c_str(),
                perf::render_utilization(*traced).c_str());
  }
  return 0;
}

/// `acoustic compile|simulate|breakdown`, which share one flag table.
int cmd_perf(const std::string& cmd, const PerfCliOptions& opt) {
  std::optional<nn::NetworkDesc> net;
  if (!opt.network.empty()) {
    net = find_network(opt.network);
    if (!net) {
      std::fprintf(stderr, "unknown network '%s'\n", opt.network.c_str());
      return usage();
    }
  }
  const perf::ArchConfig arch = opt.machine();
  if (cmd == "breakdown") {
    std::printf("%s\n", energy::format_breakdown(
                            energy::area_breakdown(arch)).c_str());
    std::printf("%s", energy::format_breakdown(
                          energy::power_breakdown(arch)).c_str());
    return 0;
  }
  if (cmd == "compile") {
    const core::Accelerator accel(arch);
    std::fputs(isa::format(accel.compile(*net)).c_str(), stdout);
    return 0;
  }
  return cmd_simulate(opt, arch, *net);
}

/// Parses argv[2..] with the table @p flags declares over an Options,
/// then runs @p command on it; a malformed command line prints the
/// diagnostic and the command's usage and exits 2.
template <typename Options, typename Flags, typename Command>
int run_command(int argc, char** argv, Flags flags, Command command) {
  Options opt;
  const tools::FlagTable table = flags(opt);
  if (const std::string error = table.parse(argc, argv, 2); !error.empty()) {
    std::fprintf(stderr, "acoustic %s: %s\n%s", argv[1], error.c_str(),
                 table.usage().c_str());
    return 2;
  }
  return command(opt);
}

int dispatch(const std::string& cmd, int argc, char** argv) {
  if (cmd == "list") {
    return cmd_list();
  }
  if (cmd == "eval") {
    return run_command<EvalOptions>(
        argc, argv, tools::eval_flags,
        [](const EvalOptions& opt) { return report_eval(opt, run_eval(opt)); });
  }
  if (cmd == "bench") {
    return run_command<BenchCliOptions>(argc, argv, tools::bench_flags,
                                        cmd_bench);
  }
  if (cmd == "lint") {
    return run_command<LintCliOptions>(argc, argv, tools::lint_flags,
                                       cmd_lint);
  }
  if (cmd == "check") {
    return run_command<CheckCliOptions>(argc, argv, tools::check_flags,
                                        cmd_check);
  }
  if (cmd == "compile" || cmd == "simulate" || cmd == "breakdown") {
    return run_command<PerfCliOptions>(
        argc, argv,
        [&cmd](PerfCliOptions& opt) { return tools::perf_flags(opt, cmd); },
        [&cmd](const PerfCliOptions& opt) { return cmd_perf(cmd, opt); });
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage();
  }
  const std::string cmd = argv[1];
  try {
    return dispatch(cmd, argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
