#include "tools/cli_options.hpp"

#include <cctype>

#include "perf/dram.hpp"

namespace acoustic::tools {

namespace {

/// Largest synthetic dataset --train/--test admit.
constexpr std::uint64_t kMaxSamples = 1'000'000;

std::string lower(std::string name) {
  for (char& c : name) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return name;
}

}  // namespace

perf::ArchConfig machine(const std::string& arch) {
  return arch == "ulp" ? perf::ulp() : perf::lp();
}

perf::ArchConfig PerfCliOptions::machine() const {
  perf::ArchConfig m = tools::machine(arch);
  m.batch = batch;
  m.clock_mhz = clock_mhz;
  m.stream_length = stream != 0 ? stream : m.stream_length;
  for (const perf::DramSpec& spec : perf::figure4_interfaces()) {
    if (lower(spec.name) == dram) {
      m.dram = spec;
    }
  }
  return m;
}

FlagTable eval_flags(EvalOptions& opt) {
  FlagTable t("acoustic eval");
  t.text("--backend", opt.backend, "NAME", "float, sc, sc-mux or bipolar")
      .text("--model", opt.model, "NAME",
            "lenet, cifar, cifar-max (max pooling), resnet-tiny (one "
            "residual block), trained on a synthetic dataset; or a zoo "
            "network (lenet5, cifar10, svhn, alexnet, vgg16, resnet18) "
            "built untrained at --side")
      .count("--threads", opt.threads, 0, kMaxThreads,
             "batch-evaluator workers, 0 = all hardware threads; results "
             "are bit-identical for any count")
      .count("--intra-threads", opt.intra_threads, 0, kMaxThreads,
             "SC row/output sharding inside one image: 0 = auto (large "
             "layers join the evaluator's pool), 1 = serial, N = force")
      .choice("--exec", opt.exec, {"planned", "scalar"},
              "SC execution: packed stream plans or the bit-identical "
              "scalar reference")
      .choice("--pool-mode", opt.pool_mode, {"exact", "sc"},
              "MaxPool2D: binary max or the bit-serial stochastic max FSM")
      .count("--side", opt.side, 0, 1024,
             "input side of a zoo model, 0 = its native side")
      .count("--stream", opt.stream, 0, kMaxStream, "SC stream length")
      .count("--train", opt.train_count, 0, kMaxSamples, "training samples")
      .count("--test", opt.test_count, 0, kMaxSamples, "test samples")
      .count("--epochs", opt.epochs, 0, 10'000, "training epochs")
      .toggle("--json", opt.json, true,
              "print the EvalResult as JSON; with --metrics/--profile, one "
              "document whose non-\"timing\" sections are byte-identical "
              "for any --threads")
      .toggle("--metrics", opt.metrics, true,
              "route the run counters through the metrics registry")
      .toggle("--profile", opt.profile, true,
              "per-layer wall-time/counter table and evaluator phases")
      .toggle("--prometheus", opt.prometheus, true,
              "print the registry in Prometheus text format")
      .text("--trace-json", opt.trace_json, "FILE",
            "write the evaluator's spans (one track per worker) as Chrome "
            "trace-event JSON")
      .toggle("--verbose", opt.verbose, true,
              "training log, progress, scheduler and span counts on stderr")
      .toggle("--no-preflight", opt.preflight, false,
              "skip the warn-level `acoustic check` of the SC config");
  return t;
}

FlagTable bench_flags(BenchCliOptions& opt) {
  FlagTable t("acoustic bench");
  t.list("--suite", opt.suites, "NAME",
         "suite to run (see --list); default every suite")
      .toggle("--quick", opt.suite.quick, true,
              "smaller problems, 5 iters and 1 warmup")
      .count("--iters", opt.iters, 0, 1'000'000,
             "timed iterations, default 10 (5 with --quick)")
      .count("--warmup", opt.warmup, 0, 1'000'000,
             "untimed iterations, default 2 (1 with --quick)")
      .count("--stream", opt.suite.stream, 0, kMaxStream,
             "SC stream length of forward/plan/throughput")
      .count("--threads-max", opt.suite.threads_max, 0, kMaxThreads,
             "throughput sweep ceiling, 0 = all hardware threads")
      .text("--json", opt.json_path, "FILE",
            "write the bench.v1 trajectory document")
      .text("--compare", opt.compare_path, "FILE",
            "print improved/unchanged/regressed verdicts against a "
            "baseline document; exit 1 on a regression")
      .real("--noise", opt.compare.noise_mult, 0.0, 1e6,
            "regression threshold in MADs")
      .real("--tolerance", opt.compare.rel_floor, 0.0, 1e6,
            "regression threshold floor, a fraction of the baseline median")
      .toggle("--strict", opt.strict, true,
              "gate even on a baseline from other hardware or another "
              "build")
      .toggle("--no-counters", opt.counters, false,
              "skip hardware performance counters")
      .toggle("--list", opt.list, true, "list the registered suites");
  return t;
}

FlagTable check_flags(CheckCliOptions& opt) {
  FlagTable t("acoustic check");
  t.operand(opt.name, "<network|zoo|lenet|cifar|cifar-max|resnet-tiny>",
            true)
      .choice("--target", opt.target, {"sc", "perf"},
              "the SC executor's rules, or only the structural ones the "
              "performance simulator needs")
      .count("--stream", opt.options.sc.stream_length, 0, kMaxStream,
             "SC stream length")
      .count("--width", opt.options.sc.sng_width, 0, 64,
             "SNG/LFSR width in bits")
      .real("--threshold", opt.options.saturation_threshold, 0.0, 1.0,
            "OR line level above which a phase counts as saturated")
      .toggle("--no-probe", opt.options.probe, false,
              "skip the executed probe forward of a trainable model")
      .toggle("--werror", opt.werror, true, "exit 1 on any warning")
      .toggle("--json", opt.json, true,
              "print the diagnostics as JSON on stdout");
  return t;
}

FlagTable lint_flags(LintCliOptions& opt) {
  FlagTable t("acoustic lint");
  t.operand(opt.target, "<program.acasm|-|network>", true)
      .choice("--arch", opt.arch, {"lp", "ulp"},
              "machine whose bounds apply")
      .toggle("--werror", opt.werror, true, "exit 1 on any warning")
      .toggle("--json", opt.json, true,
              "print the diagnostics as JSON on stdout");
  return t;
}

FlagTable perf_flags(PerfCliOptions& opt, const std::string& command) {
  std::vector<std::string> drams;
  for (const perf::DramSpec& spec : perf::figure4_interfaces()) {
    drams.push_back(lower(spec.name));
  }
  FlagTable t("acoustic " + command);
  t.operand(opt.network, "<network>", command != "breakdown")
      .choice("--arch", opt.arch, {"lp", "ulp"},
              "machine; the flags below override its values")
      .count("--batch", opt.batch, 1, 65'536, "inference batch")
      .real("--clock", opt.clock_mhz, 1e-3, 1e6, "clock in MHz")
      .count("--stream", opt.stream, 1, kMaxStream,
             "SC stream length, default the machine's (lp 256, ulp 128)")
      .choice("--dram", opt.dram, drams,
              "off-chip interface, default the machine's")
      .toggle("--trace", opt.trace, true,
              "per-unit Gantt chart of the dispatcher overlap")
      .toggle("--layers", opt.layers, true, "per-layer bottleneck table")
      .toggle("--metrics", opt.metrics, true,
              "cycle/unit/DRAM/energy counters via the metrics registry")
      .toggle("--json", opt.json, true, "print one JSON document")
      .toggle("--prometheus", opt.prometheus, true,
              "print the registry in Prometheus text format")
      .text("--trace-json", opt.trace_json, "FILE",
            "write the instruction trace as Chrome trace-event JSON (one "
            "track per control unit, cycle timebase)")
      .toggle("--no-preflight", opt.preflight, false,
              "skip the warn-level structural `acoustic check`");
  return t;
}

}  // namespace acoustic::tools
