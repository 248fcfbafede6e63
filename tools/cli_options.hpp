// Options of the `acoustic` subcommands and the flag table that fills
// each one; the help strings in cli_options.cpp are the CLI's reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/check.hpp"
#include "perf/arch_config.hpp"
#include "tools/bench_suites.hpp"
#include "tools/cli_flags.hpp"

namespace acoustic::tools {

/// Longest stream any --stream flag admits (16 Mi bits).
inline constexpr std::uint64_t kMaxStream = std::uint64_t{1} << 24;

struct EvalOptions {
  std::string backend = "sc";
  std::string model = "lenet";
  unsigned threads = 0;
  unsigned intra_threads = 0;
  std::string exec = "planned";
  std::string pool_mode = "exact";
  int side = 16;
  std::size_t stream = 128;
  std::size_t train_count = 300;
  std::size_t test_count = 120;
  int epochs = 3;
  bool json = false;
  bool metrics = false;
  bool profile = false;
  bool prometheus = false;
  bool verbose = false;
  bool preflight = true;
  std::string trace_json;
};

struct BenchCliOptions {
  std::vector<std::string> suites;  ///< empty = every suite
  int iters = -1;                   ///< -1 = default (10, or 5 with --quick)
  int warmup = -1;                  ///< -1 = default (2, or 1 with --quick)
  BenchSuiteOptions suite;
  std::string json_path;
  std::vector<std::string> compare_paths;  ///< baseline runs, pooled
  std::vector<std::string> current_paths;  ///< saved runs, pooled
  obs::CompareOptions compare;
  bool counters = true;
  bool strict = false;
  bool list = false;
};

struct CheckCliOptions {
  std::string name;             ///< a zoo network, "zoo" or a small model
  std::string target = "sc";    ///< "sc" or "perf": CheckOptions::target
  analysis::CheckOptions options;
  bool werror = false;
  bool json = false;
};

struct LintCliOptions {
  std::string target;
  std::string arch = "lp";
  bool werror = false;
  bool json = false;
};

/// Options of `acoustic compile`, `simulate` and `breakdown`, which share
/// one table.
struct PerfCliOptions {
  std::string network;
  std::string arch = "lp";
  int batch = 1;             ///< both machines' default
  double clock_mhz = 200.0;  ///< both machines' default
  std::size_t stream = 0;    ///< 0 = the machine's own
  std::string dram;          ///< lower-cased spec name; "" = the machine's
  bool trace = false;
  bool layers = false;
  bool metrics = false;
  bool json = false;
  bool prometheus = false;
  bool preflight = true;
  std::string trace_json;  ///< "" = off

  /// The --arch machine with --batch/--clock/--stream/--dram applied.
  [[nodiscard]] perf::ArchConfig machine() const;
};

/// "lp" or "ulp" as its machine config.
[[nodiscard]] perf::ArchConfig machine(const std::string& arch);

[[nodiscard]] FlagTable eval_flags(EvalOptions& opt);
[[nodiscard]] FlagTable bench_flags(BenchCliOptions& opt);
[[nodiscard]] FlagTable check_flags(CheckCliOptions& opt);
[[nodiscard]] FlagTable lint_flags(LintCliOptions& opt);
/// @p command: "compile", "simulate" or "breakdown".
[[nodiscard]] FlagTable perf_flags(PerfCliOptions& opt,
                                   const std::string& command);

}  // namespace acoustic::tools
