// Declarative command-line flags. A command declares each flag once —
// name, target, value kind, admitted range and help — and both the parser
// and the usage text read that one table.
//
// Numbers convert whole-string with std::from_chars: trailing characters,
// a sign on a count, overflow, NaN/inf and a value outside the declared
// range are refused with a diagnostic naming the flag. Parsing writes only
// the declared targets, in command-line order, and throws for no argv.
#pragma once

#include <charconv>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace acoustic::tools {

/// Ceiling of every thread-count flag (--threads, --intra-threads,
/// --threads-max); 0 keeps meaning "all hardware threads".
inline constexpr std::uint64_t kMaxThreads = 1024;

class FlagTable {
 public:
  /// @p command heads the usage text, e.g. "acoustic eval".
  explicit FlagTable(std::string command) : command_(std::move(command)) {}

  /// A switch: stores @p value into @p target.
  FlagTable& toggle(const char* name, bool& target, bool value,
                    const char* help);

  /// A decimal integer in [lo, hi], stored into the integral @p target
  /// (whose value, when in range, is the default usage shows).
  template <typename T>
  FlagTable& count(const char* name, T& target, std::uint64_t lo,
                   std::uint64_t hi, const char* help) {
    const std::string range = std::to_string(lo) + ".." + std::to_string(hi);
    const bool shown =
        std::cmp_greater_equal(target, lo) && std::cmp_less_equal(target, hi);
    return add(name, "N", help,
               shown ? range + ", default " + std::to_string(target) : range,
               "an integer in " + range,
               [&target, lo, hi](std::string_view text) {
                 std::uint64_t value = 0;
                 if (!read_number(text, lo, hi, value)) {
                   return false;
                 }
                 target = static_cast<T>(value);
                 return true;
               });
  }

  /// A finite real in [lo, hi].
  FlagTable& real(const char* name, double& target, double lo, double hi,
                  const char* help);

  /// Any text: a path, or a name checked where it is used.
  FlagTable& text(const char* name, std::string& target, const char* metavar,
                  const char* help);

  /// Repeatable text: each occurrence appends to @p target.
  FlagTable& list(const char* name, std::vector<std::string>& target,
                  const char* metavar, const char* help);

  /// One of @p choices, stored into @p target (whose value is the default).
  FlagTable& choice(const char* name, std::string& target,
                    std::vector<std::string> choices, const char* help);

  /// The command's one operand, shown in usage as @p metavar.
  FlagTable& operand(std::string& target, const char* metavar,
                     bool required);

  /// Parses argv[first, argc). Returns "" on success, else a diagnostic
  /// naming the offending flag or argument.
  [[nodiscard]] std::string parse(int argc, const char* const* argv,
                                  int first) const;

  /// "usage: <command> [operand] [options]" and one line per flag.
  [[nodiscard]] std::string usage() const;

 private:
  struct Flag {
    std::string name;
    std::string metavar;   ///< "" for a switch
    std::string help;      ///< with the admitted values and default
    std::string expected;  ///< what a refused value should have been
    std::function<bool(std::string_view)> set;  ///< false: refused
  };

  /// Reads all of @p text as a V in [lo, hi] into @p out. NaN fails both
  /// comparisons and the finite bounds refuse inf.
  template <typename V>
  static bool read_number(std::string_view text, V lo, V hi, V& out) {
    V value{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc{} || ptr != end || !(value >= lo && value <= hi)) {
      return false;
    }
    out = value;
    return true;
  }

  /// Appends a flag; @p values (range, default) is shown after the help.
  FlagTable& add(const char* name, std::string metavar, const char* help,
                 const std::string& values, std::string expected,
                 std::function<bool(std::string_view)> set);

  std::string command_;
  std::vector<Flag> flags_;
  std::string* operand_ = nullptr;
  std::string operand_metavar_;
  bool operand_required_ = false;
};

}  // namespace acoustic::tools
