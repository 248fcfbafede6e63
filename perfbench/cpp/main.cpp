// ACOUSTIC benchmark program.
//
//   acoustic_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                      [--trace-file PATH] [--git-sha SHA]
//                      [--source-digest HEX]
//
// Runs one workload (see perfbench/README.md), prints provenance, sample
// counts and check verdicts, then, as the last line of standard output,
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// and writes the run's spans as a Chrome trace.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "measure.hpp"
#include "obs/bench_harness.hpp"
#include "obs/json.hpp"
#include "sc/kernels/kernels.hpp"

namespace {

using perfbench::Options;
using perfbench::Outcome;

constexpr unsigned kWorkloadThreads = 4;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "acoustic_perfbench: " << why
            << "\nusage: acoustic_perfbench --workload "
               "resnet18-cold-eval|cifar-warm-eval|cifar-stream-train "
               "--seed N --seconds S --trace 0|1 [--trace-file PATH] "
               "[--git-sha SHA] [--source-digest HEX]\n";
  std::exit(2);
}

unsigned online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    return 1;
  }
  return static_cast<unsigned>(CPU_COUNT(&set));
}

/// Why this binary must not report timings, or empty when it may.
std::string build_refusal() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release") {
    return "build type '" + type + "' is not Release";
  }
#ifndef NDEBUG
  return "assertions are enabled (NDEBUG is not defined)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#endif
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = static_cast<std::uint32_t>(std::stoul(value));
        have_seed = true;
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") {
          usage("--trace takes 0 or 1");
        }
        options.trace = value == "1";
      } else if (flag == "--trace-file") {
        options.trace_path = value;
      } else if (flag == "--git-sha") {
        git_sha = value;
      } else if (flag == "--source-digest") {
        source_digest = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (options.workload.empty() || !have_seed) {
    usage("--workload and --seed are required");
  }
  if (!(options.seconds > 0.0 && options.seconds <= 600.0)) {
    usage("--seconds must be in (0, 600]");
  }
  if (options.trace && options.trace_path.empty()) {
    options.trace_path = "trace-" + options.workload + ".json";
  }
  if (const std::string refusal = build_refusal(); !refusal.empty()) {
    std::cerr << "acoustic_perfbench: refusing to report: " << refusal
              << "\n";
    return 3;
  }

  const unsigned nproc = online_cpus();
  options.threads = std::min(kWorkloadThreads, nproc);
  namespace kernels = acoustic::sc::kernels;
  const char* simd_override = kernels::env_override();
  const acoustic::obs::BenchMeta meta = acoustic::obs::collect_meta();
  std::cout << "provenance: {\"workload\": "
            << acoustic::obs::json_quote(options.workload)
            << ", \"seed\": " << options.seed
            << ", \"seconds\": " << options.seconds
            << ", \"trace\": " << (options.trace ? 1 : 0)
            << ", \"nproc\": " << nproc << ", \"threads\": " << options.threads
            << ", \"simd\": "
            << acoustic::obs::json_quote(
                   kernels::level_name(kernels::active_level()))
            << ", \"simd_override\": "
            << acoustic::obs::json_quote(simd_override != nullptr
                                             ? simd_override
                                             : "")
            << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"compiler\": " << acoustic::obs::json_quote(meta.compiler)
            << ", \"cpu\": " << acoustic::obs::json_quote(meta.cpu)
            << ", \"git_sha\": " << acoustic::obs::json_quote(git_sha)
            << ", \"source_digest\": "
            << acoustic::obs::json_quote(source_digest) << "}\n";

  Outcome out;
  try {
    if (options.workload == "resnet18-cold-eval") {
      out = perfbench::run_resnet18_cold_eval(options);
    } else if (options.workload == "cifar-warm-eval") {
      out = perfbench::run_cifar_warm_eval(options);
    } else if (options.workload == "cifar-stream-train") {
      out = perfbench::run_cifar_stream_train(options);
    } else {
      usage("unknown workload " + options.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "acoustic_perfbench: " << options.workload
              << " failed: " << e.what() << "\n";
    return 1;
  }

  bool finite = true;
  for (const Outcome::Metric& m : out.metrics) {
    finite = finite && std::isfinite(m.value);
  }
  if (!finite) {
    out.fail(1, "a metric is not a finite number");
  }
  for (const std::string& line : out.notes) {
    std::cout << line << "\n";
  }
  for (const Outcome::Metric& m : out.metrics) {
    std::printf("%-40s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("failed_share %.6g (%llu of %llu operations)\n",
              out.attempted > 0 ? static_cast<double>(out.failed) /
                                      static_cast<double>(out.attempted)
                                : 1.0,
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));

  std::string json = "{\"correct\": ";
  json += (out.failed == 0 && out.attempted > 0) ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Outcome::Metric& m = out.metrics[i];
    json += (i == 0 ? "" : ", ") + acoustic::obs::json_quote(m.name) +
            ": {\"value\": " + acoustic::obs::json_number(m.value) +
            ", \"unit\": " + acoustic::obs::json_quote(m.unit) + "}";
  }
  json += "}}";
  std::fflush(stdout);
  std::cout << json << std::endl;
  return 0;
}
