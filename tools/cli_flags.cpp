#include "tools/cli_flags.hpp"

#include <algorithm>
#include <cstdio>

namespace acoustic::tools {

namespace {

std::string format_real(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", value);
  return buf;
}

}  // namespace

FlagTable& FlagTable::add(const char* name, std::string metavar,
                          const char* help, const std::string& values,
                          std::string expected,
                          std::function<bool(std::string_view)> set) {
  flags_.push_back(
      {name, std::move(metavar),
       values.empty() ? help : std::string(help) + " [" + values + "]",
       std::move(expected), std::move(set)});
  return *this;
}

FlagTable& FlagTable::toggle(const char* name, bool& target, bool value,
                             const char* help) {
  return add(name, "", help, "", "", [&target, value](std::string_view) {
    target = value;
    return true;
  });
}

FlagTable& FlagTable::real(const char* name, double& target, double lo,
                           double hi, const char* help) {
  const std::string range = format_real(lo) + ".." + format_real(hi);
  return add(name, "F", help, range + ", default " + format_real(target),
             "a number in " + range, [&target, lo, hi](std::string_view text) {
               return read_number(text, lo, hi, target);
             });
}

FlagTable& FlagTable::text(const char* name, std::string& target,
                           const char* metavar, const char* help) {
  return add(name, metavar, help, target.empty() ? "" : "default " + target,
             "", [&target](std::string_view text) {
               target = text;
               return true;
             });
}

FlagTable& FlagTable::list(const char* name, std::vector<std::string>& target,
                           const char* metavar, const char* help) {
  return add(name, metavar, help, "repeatable", "",
             [&target](std::string_view text) {
               target.emplace_back(text);
               return true;
             });
}

FlagTable& FlagTable::choice(const char* name, std::string& target,
                             std::vector<std::string> choices,
                             const char* help) {
  std::string values;
  for (const std::string& c : choices) {
    values += (values.empty() ? "" : "|") + c;
  }
  return add(name, values, help, target.empty() ? "" : "default " + target,
             "one of " + values,
             [&target, choices = std::move(choices)](std::string_view text) {
               const auto it = std::find(choices.begin(), choices.end(), text);
               if (it != choices.end()) {
                 target = *it;
               }
               return it != choices.end();
             });
}

FlagTable& FlagTable::operand(std::string& target, const char* metavar,
                              bool required) {
  operand_ = &target;
  operand_metavar_ = metavar;
  operand_required_ = required;
  return *this;
}

std::string FlagTable::parse(int argc, const char* const* argv,
                             int first) const {
  bool have_operand = false;
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto flag = std::find_if(
        flags_.begin(), flags_.end(),
        [arg](const Flag& f) { return f.name == arg; });
    if (flag == flags_.end()) {
      // "-" (stdin) and other words not starting "--" are operands.
      if (arg.size() > 2 && arg.starts_with("--")) {
        return "unknown option '" + std::string(arg) + "'";
      }
      if (operand_ == nullptr || have_operand || arg.empty()) {
        return "unexpected argument '" + std::string(arg) + "'";
      }
      *operand_ = arg;
      have_operand = true;
      continue;
    }
    std::string_view value;
    if (!flag->metavar.empty()) {
      if (i + 1 >= argc) {
        return flag->name + ": missing value " + flag->metavar;
      }
      value = argv[++i];
    }
    if (!flag->set(value)) {
      return flag->name + ": expected " + flag->expected + ", got '" +
             std::string(value) + "'";
    }
  }
  if (operand_required_ && !have_operand) {
    return "missing operand " + operand_metavar_;
  }
  return {};
}

std::string FlagTable::usage() const {
  std::string out = "usage: " + command_;
  if (operand_ != nullptr) {
    out += operand_required_ ? " " + operand_metavar_
                             : " [" + operand_metavar_ + "]";
  }
  out += " [options]\n";
  for (const Flag& flag : flags_) {
    std::string line = "  " + flag.name;
    line += flag.metavar.empty() ? "" : " " + flag.metavar;
    line.resize(std::max<std::size_t>(line.size() + 2, 24), ' ');
    out += line + flag.help + "\n";
  }
  return out;
}

}  // namespace acoustic::tools
