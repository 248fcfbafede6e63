#include "measure.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "obs/chrome_trace.hpp"
#include "obs/json.hpp"
#include "sc/rng.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  // VmHWM rather than getrusage's ru_maxrss: Linux carries ru_maxrss
  // across execve, so it would include the launching process's image.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double resident_mb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size_pages = 0;
  std::uint64_t resident_pages = 0;
  if (!(statm >> size_pages >> resident_pages)) {
    throw std::runtime_error("cannot read /proc/self/statm");
  }
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// --- Trace -----------------------------------------------------------------

Trace::Scope::Scope(Trace& trace, const char* name)
    : trace_(trace),
      span_(trace.profiler_, trace.profiler_ != nullptr ? name : "",
            trace.profiler_ != nullptr ? kCategory : "", kTrack,
            static_cast<std::uint32_t>(trace.next_id_ + 1)) {
  if (trace_.profiler_ == nullptr) {
    return;
  }
  const std::uint64_t id = ++trace_.next_id_;
  span_.counter("span_id", id);
  span_.counter("parent_id", trace_.open_.empty() ? 0 : trace_.open_.back());
  trace_.open_.push_back(id);
}

Trace::Scope::~Scope() {
  if (trace_.profiler_ != nullptr) {
    span_.close();
    trace_.open_.pop_back();
  }
}

std::vector<double> Trace::durations(const std::string& name) const {
  std::vector<double> out;
  if (profiler_ == nullptr) {
    return out;
  }
  for (const obs::SpanRecord& rec : profiler_->snapshot()) {
    if (rec.category == kCategory && rec.name == name) {
      out.push_back(static_cast<double>(rec.dur_ns) * 1e-9);
    }
  }
  return out;
}

double Trace::total(const std::string& name) const {
  double sum = 0.0;
  for (const double d : durations(name)) {
    sum += d;
  }
  return sum;
}

void write_chrome_trace(const obs::Profiler& profiler, const std::string& path,
                        const std::string& workload, std::uint32_t seed) {
  obs::ChromeTraceWriter writer;
  writer.set_process_name(1, "perfbench " + workload);
  writer.set_thread_name(1, static_cast<int>(Trace::kTrack), "benchmark");
  writer.add_spans(1, profiler.snapshot());
  writer.set_metadata("workload", obs::json_quote(workload));
  writer.set_metadata("seed", obs::json_number(std::uint64_t{seed}));
  writer.set_metadata("dropped_spans", obs::json_number(profiler.dropped()));
  std::ofstream file(path);
  file << writer.to_string();
  if (!file) {
    throw std::runtime_error("cannot write trace " + path);
  }
}

// --- inputs and checks -----------------------------------------------------

train::Dataset random_images(nn::Shape shape, std::size_t count, int classes,
                             std::uint32_t seed) {
  acoustic::sc::XorShift32 rng(seed * 2654435761U + 1U);
  train::Dataset data;
  data.samples.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    train::Sample sample;
    sample.image = nn::Tensor(shape);
    for (std::size_t p = 0; p < sample.image.size(); ++p) {
      sample.image[p] = static_cast<float>(rng.next_double());
    }
    sample.label =
        static_cast<int>(rng.next() % static_cast<unsigned>(classes));
    data.samples.push_back(std::move(sample));
  }
  return data;
}

train::Dataset head_of(const train::Dataset& data, std::size_t count) {
  train::Dataset head;
  head.samples.assign(
      data.samples.begin(),
      data.samples.begin() +
          static_cast<std::ptrdiff_t>(std::min(count, data.size())));
  return head;
}

std::uint64_t weights_digest(nn::Network& net) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const nn::ParamView& view : net.parameters()) {
    for (const float v : view.values) {
      std::uint32_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      for (int b = 0; b < 4; ++b) {
        h ^= (bits >> (8 * b)) & 0xFFU;
        h *= 1099511628211ULL;
      }
    }
  }
  return h;
}

bool same_bits(const nn::Tensor& a, const nn::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(float)) == 0;
}

std::vector<std::string> eval_mismatches(const sim::EvalResult& got,
                                         std::size_t want_correct,
                                         const sim::RunStats& want_stats) {
  std::vector<std::string> out;
  if (got.correct != want_correct) {
    out.push_back("top-1 count " + std::to_string(got.correct) +
                  " != reference " + std::to_string(want_correct));
  }
  const std::pair<const char*, std::uint64_t sim::RunStats::*> fields[] = {
      {"samples", &sim::RunStats::samples},
      {"layers_run", &sim::RunStats::layers_run},
      {"product_bits", &sim::RunStats::product_bits},
      {"skipped_operands", &sim::RunStats::skipped_operands},
      {"stream_bits_generated", &sim::RunStats::stream_bits_generated},
      {"stream_bits_reused", &sim::RunStats::stream_bits_reused},
      {"plan_hits", &sim::RunStats::plan_hits},
      {"plan_misses", &sim::RunStats::plan_misses},
      {"scratch_bytes", &sim::RunStats::scratch_bytes}};
  for (const auto& [name, field] : fields) {
    if (got.stats.*field != want_stats.*field) {
      out.push_back(std::string("merged RunStats.") + name + " " +
                    std::to_string(got.stats.*field) + " != reference " +
                    std::to_string(want_stats.*field));
    }
  }
  if (out.empty() && !(got.stats == want_stats)) {
    out.push_back("merged RunStats differ from the reference");
  }
  return out;
}

void add_evaluator_metrics(const sim::EvalResult& result, Outcome& out) {
  const sim::RunStats& s = result.stats;
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  out.add("sim.product_bits_per_image",
          ratio(static_cast<double>(s.product_bits),
                static_cast<double>(result.samples)),
          "bits");
  out.add("sim.stream_reuse_ratio",
          ratio(static_cast<double>(s.stream_bits_reused),
                static_cast<double>(s.stream_bits_reused +
                                    s.stream_bits_generated)),
          "fraction");
  out.add("sim.plan_hit_ratio",
          ratio(static_cast<double>(s.plan_hits),
                static_cast<double>(s.plan_hits + s.plan_misses)),
          "fraction");
  out.add("sim.eval_busy_share",
          ratio(result.latency.mean_us * static_cast<double>(result.samples),
                static_cast<double>(result.threads) * result.wall_seconds *
                    1e6),
          "fraction");
  out.add("runtime.tasks", static_cast<double>(result.sched.tasks), "count");
  out.add("runtime.steals", static_cast<double>(result.sched.steals), "count");
  out.add("runtime.steal_ratio",
          ratio(static_cast<double>(result.sched.steals),
                static_cast<double>(result.sched.tasks)),
          "fraction");
  out.add("runtime.occupancy", result.sched.occupancy(), "fraction");
}

}  // namespace perfbench
