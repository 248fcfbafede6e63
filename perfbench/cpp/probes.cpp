// Per-layer probes: each times calls into one layer's public functions on
// the workload's own network and stream length, inside a benchmark span,
// and reports the median (or a rate over the spans).
#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "measure.hpp"
#include "runtime/thread_pool.hpp"
#include "sc/kernels/kernels.hpp"
#include "sc/rng.hpp"
#include "sim/op_graph.hpp"
#include "sim/stream_bank.hpp"
#include "sim/stream_plan.hpp"

namespace perfbench {

namespace {

namespace kernels = acoustic::sc::kernels;

volatile std::uint64_t g_sink = 0;

std::vector<std::uint64_t> random_words(std::size_t n, std::uint32_t seed) {
  acoustic::sc::XorShift32 rng(seed);
  std::vector<std::uint64_t> words(n);
  for (std::uint64_t& w : words) {
    w = (static_cast<std::uint64_t>(rng.next()) << 32U) | rng.next();
  }
  return words;
}

constexpr int kRepeats = 9;

void probe_nn_and_sim(const Subject& s, nn::Network& net, Trace& trace,
                      Outcome& out) {
  const train::Dataset& data = *s.data;
  for (int k = 0; k < kRepeats; ++k) {
    nn::Network copy;
    {
      Trace::Scope scope(trace, "nn.clone");
      copy = net.clone();
    }
  }
  for (int k = 0; k < 3; ++k) {
    std::unique_ptr<sim::InferenceBackend> backend;
    {
      Trace::Scope scope(trace, "sim.backend_make");
      backend = sim::make_backend("sc", net, s.cfg);
    }
  }

  // A fresh backend owns a fresh WeightPlanStore: its first forward builds
  // every stage's plans.
  const std::unique_ptr<sim::InferenceBackend> proto =
      sim::make_backend("sc", net, s.cfg);
  nn::Tensor logits;
  {
    Trace::Scope scope(trace, "sim.cold_forward");
    proto->forward_into(data.samples[0].image, logits);
  }

  // Clones share the now-primed store; what each still pays on its first
  // forward, and the memory it adds, is the per-worker cost.
  std::vector<std::unique_ptr<sim::InferenceBackend>> clones;
  std::vector<double> growth_mb;
  for (std::size_t k = 0; k < 3; ++k) {
    const double before = resident_mb();
    {
      Trace::Scope scope(trace, "sim.backend_clone");
      clones.push_back(proto->clone());
    }
    {
      Trace::Scope scope(trace, "sim.clone_cold");
      clones.back()->forward_into(data.samples[(k + 1) % data.size()].image,
                                  logits);
    }
    growth_mb.push_back(resident_mb() - before);
  }

  sim::InferenceBackend& warm = *clones.front();
  (void)warm.take_stats();
  for (std::size_t i = 0; i < s.warm_images; ++i) {
    Trace::Scope scope(trace, "sim.warm_forward");
    warm.forward_into(data.samples[i % data.size()].image, logits);
  }
  const sim::RunStats warm_stats = warm.take_stats();

  out.add("nn.clone_ms", median(trace.durations("nn.clone")) * 1e3, "ms");
  out.add("sim.backend_make_ms",
          median(trace.durations("sim.backend_make")) * 1e3, "ms");
  out.add("sim.backend_clone_ms",
          median(trace.durations("sim.backend_clone")) * 1e3, "ms");
  out.add("sim.cold_forward_s", median(trace.durations("sim.cold_forward")),
          "s");
  out.add("sim.clone_cold_ms", median(trace.durations("sim.clone_cold")) * 1e3,
          "ms");
  out.add("sim.clone_rss_mb", median(growth_mb), "MB");
  out.add("sim.warm_forward_ms",
          median(trace.durations("sim.warm_forward")) * 1e3, "ms");
  out.add("sim.product_bits_per_ns",
          static_cast<double>(warm_stats.product_bits) /
              (trace.total("sim.warm_forward") * 1e9),
          "bits/ns");
}

void probe_runtime(const Subject& s, Trace& trace, Outcome& out) {
  runtime::ThreadPool pool(s.threads);
  for (int k = 0; k < 500; ++k) {
    Trace::Scope scope(trace, "runtime.parallel_for");
    pool.parallel_for(s.threads, [](std::size_t, unsigned) {});
  }
  out.add("runtime.parallel_for_us",
          median(trace.durations("runtime.parallel_for")) * 1e6, "us");
}

/// The weight-plan input of the network's largest conv stage, as
/// ScNetwork lowers and quantizes it: its lane count, its weight levels
/// (BatchNorm scale folded in) and the segment schedule of its fused pool.
struct ConvStage {
  std::vector<std::uint32_t> levels;
  sim::SegmentSchedule sched;
};

ConvStage largest_conv_stage(nn::Network& net, const sim::ScConfig& cfg,
                             const sim::StreamBank& bank) {
  sim::LowerOptions lopt;
  lopt.fuse_avg_pool = cfg.pooling == sim::PoolingMode::kSkipping;
  lopt.fold_batch_norm = true;
  const sim::LoweredOp* pick = nullptr;
  const std::vector<sim::LoweredOp> ops =
      sim::lower_graph(net, lopt, "perfbench");
  for (const sim::LoweredOp& op : ops) {
    if (op.conv != nullptr &&
        (pick == nullptr ||
         op.conv->weights().size() > pick->conv->weights().size())) {
      pick = &op;
    }
  }
  if (pick == nullptr) {
    throw std::runtime_error("stream-plan probe: the network has no conv");
  }
  ConvStage stage;
  const std::span<const float> w = pick->conv->weights();
  const std::size_t per_oc = w.size() / static_cast<std::size_t>(
                                            pick->conv->spec().out_channels);
  stage.levels.resize(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    const float scale =
        pick->bn != nullptr ? pick->bn->scale(static_cast<int>(i / per_oc))
                            : 1.0F;
    stage.levels[i] = bank.quantize(std::fabs(w[i] * scale));
  }
  const std::size_t window =
      pick->fused_pool != nullptr
          ? static_cast<std::size_t>(pick->fused_pool->window())
          : 1;
  stage.sched.phase = cfg.phase_length();
  stage.sched.positions = window * window;
  stage.sched.seg = stage.sched.phase / stage.sched.positions;
  return stage;
}

void probe_streams(const Subject& s, nn::Network& net, Trace& trace,
                   Outcome& out) {
  const std::size_t length = s.cfg.stream_length;
  const sim::StreamBank bank(s.cfg.sng_width, s.cfg.activation_seed, length,
                             s.cfg.decorrelate_lanes);
  std::vector<std::uint64_t> words((length + 63) / 64);
  constexpr std::uint32_t kFills = 4096;
  const std::uint32_t levels = 1U << s.cfg.sng_width;
  for (int k = 0; k < kRepeats; ++k) {
    Trace::Scope scope(trace, "stream_bank.fill");
    for (std::uint32_t j = 0; j < kFills; ++j) {
      bank.fill(j % levels, j, 0, length, words);
      g_sink = g_sink + words[0];
    }
  }
  out.add("stream_bank.fill_bits_per_ns",
          static_cast<double>(kFills) * static_cast<double>(length) /
              (median(trace.durations("stream_bank.fill")) * 1e9),
          "bits/ns");

  // The weight plan of the network's largest conv stage, built as a fresh
  // backend's first forward builds it (the executor's weight bank, budget
  // and single-threaded here).
  const sim::StreamBank plan_bank(s.cfg.sng_width, s.cfg.weight_seed,
                                  2 * s.cfg.phase_length(),
                                  s.cfg.decorrelate_lanes);
  const ConvStage stage = largest_conv_stage(net, s.cfg, plan_bank);
  for (int k = 0; k < kRepeats; ++k) {
    Trace::Scope scope(trace, "stream_plan.build");
    sim::LayerStreamPlan plan(plan_bank, stage.sched, stage.levels.size(),
                              s.cfg.plan_budget_bytes);
    sim::StreamPlanCounters counters;
    plan.build(stage.levels, counters);
    g_sink = g_sink + counters.bits_generated;
  }
  out.add("stream_plan.build_us",
          median(trace.durations("stream_plan.build")) * 1e6, "us");
}

void probe_kernels(Trace& trace, Outcome& out) {
  const kernels::KernelTable& kt = kernels::table();
  constexpr std::size_t kWords = 4096;
  constexpr int kCalls = 64;
  const std::vector<std::uint64_t> a = random_words(kWords, 11);
  const std::vector<std::uint64_t> b = random_words(kWords, 22);
  std::vector<std::uint64_t> acc = random_words(kWords, 33);
  for (int k = 0; k < kRepeats; ++k) {
    Trace::Scope scope(trace, "kernels.and_or_popcount");
    for (int j = 0; j < kCalls; ++j) {
      g_sink = g_sink + kt.and_or_popcount(acc.data(), a.data(), b.data(),
                                           kWords);
    }
  }
  out.add("kernels.and_or_popcount_words_per_ns",
          static_cast<double>(kCalls) * static_cast<double>(kWords) /
              (median(trace.durations("kernels.and_or_popcount")) * 1e9),
          "words/ns");

  constexpr std::size_t kStates = std::size_t{1} << 16U;
  std::vector<std::uint32_t> states(kStates);
  acoustic::sc::XorShift32 rng(44);
  for (std::uint32_t& st : states) {
    st = rng.next() & 0xFFU;
  }
  kernels::CompareWiring wiring;
  wiring.pre_xor = 0x5A;
  wiring.post_xor = 0x33;
  wiring.mask = 0xFF;
  wiring.rot = 3;
  wiring.width = 8;
  std::vector<std::uint64_t> packed(kStates / 64);
  constexpr int kPacks = 16;
  for (int k = 0; k < kRepeats; ++k) {
    Trace::Scope scope(trace, "kernels.compare_pack");
    for (int j = 0; j < kPacks; ++j) {
      std::memset(packed.data(), 0, packed.size() * sizeof(std::uint64_t));
      kt.compare_pack(wiring, states.data(), kStates,
                      static_cast<std::uint32_t>(j * 16), packed.data(), 0);
      g_sink = g_sink + packed[0];
    }
  }
  out.add("kernels.compare_pack_bits_per_ns",
          static_cast<double>(kPacks) * static_cast<double>(kStates) /
              (median(trace.durations("kernels.compare_pack")) * 1e9),
          "bits/ns");
}

}  // namespace

void probe_layers(const Subject& subject, Trace& trace, Outcome& out) {
  for (int k = 0; k < 3; ++k) {
    Trace::Scope scope(trace, "nn.build");
    (void)subject.build();
  }
  out.add("nn.build_s", median(trace.durations("nn.build")), "s");
  nn::Network net = subject.build();
  probe_nn_and_sim(subject, net, trace, out);
  probe_runtime(subject, trace, out);
  probe_streams(subject, net, trace, out);
  probe_kernels(trace, out);
}

}  // namespace perfbench
