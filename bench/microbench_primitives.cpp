// Google-benchmark microbenchmarks of the reproduction's hot primitives:
// stream generation, single-gate arithmetic, the split-unipolar MAC, the
// bit-level network executor and the performance simulator. These guard
// the simulator's own throughput (the paper notes SC is "extremely slow to
// accurately simulate in software" — IV-A — which is why the word-parallel
// functional simulator exists).
#include <benchmark/benchmark.h>

#include "nn/activation.hpp"
#include "nn/model_zoo.hpp"
#include "nn/pool.hpp"
#include "obs/span.hpp"
#include "perf/codegen.hpp"
#include "perf/perf_sim.hpp"
#include "sc/gates.hpp"
#include "sc/kernels/kernels.hpp"
#include "sc/rng.hpp"
#include "sc/sng.hpp"
#include "sim/evaluate.hpp"
#include "sim/sc_mac.hpp"
#include "sim/stream_bank.hpp"
#include "sim/stream_plan.hpp"
#include "train/models.hpp"

using namespace acoustic;

namespace {

void BM_SngGenerate(benchmark::State& state) {
  sc::Sng sng(8, 1);
  const auto length = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sng.generate(0.37, length));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(length));
}
BENCHMARK(BM_SngGenerate)->Arg(128)->Arg(1024)->Arg(8192);

void BM_AndMultiply(benchmark::State& state) {
  sc::Sng sng(16, 3);
  const auto length = static_cast<std::size_t>(state.range(0));
  const sc::BitStream a = sng.generate(0.5, length);
  const sc::BitStream b = sng.generate(0.3, length);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sc::and_multiply(a, b));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(length));
}
BENCHMARK(BM_AndMultiply)->Arg(1024)->Arg(65536);

void BM_OrAccumulateWide(benchmark::State& state) {
  sc::Sng sng(16, 5);
  const int width = static_cast<int>(state.range(0));
  std::vector<sc::BitStream> streams;
  for (int i = 0; i < width; ++i) {
    streams.push_back(sng.generate(0.01, 1024));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sc::or_accumulate(std::span<const sc::BitStream>(streams)));
  }
  state.SetItemsProcessed(state.iterations() * width * 1024);
}
BENCHMARK(BM_OrAccumulateWide)->Arg(96)->Arg(2304);

void BM_SplitUnipolarMac(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  std::vector<double> acts(static_cast<std::size_t>(width), 0.4);
  std::vector<double> wgts(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) {
    wgts[static_cast<std::size_t>(i)] = (i % 2 ? 0.2 : -0.2);
  }
  sim::ScConfig cfg;
  cfg.stream_length = 256;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::split_unipolar_mac(acts, wgts, cfg));
  }
}
BENCHMARK(BM_SplitUnipolarMac)->Arg(96);

void BM_StreamBankFill(benchmark::State& state) {
  // The word-parallel SNG kernel: 64 comparator outputs per word
  // iteration with the per-lane wiring hoisted out of the bit loop.
  const auto length = static_cast<std::size_t>(state.range(0));
  sim::StreamBank bank(8, 0xBEEF, length, true);
  std::vector<std::uint64_t> words((length + 63) / 64);
  std::uint32_t lane = 0;
  for (auto _ : state) {
    bank.fill(128, lane++, 0, length, words);
    benchmark::DoNotOptimize(words.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(length));
}
BENCHMARK(BM_StreamBankFill)->Arg(128)->Arg(1024)->Arg(8192);

// --- SIMD kernel layer: scalar reference vs the active dispatch level.
// Run with --benchmark_filter=BM_Kernel. The gated kernel baseline is the
// `kernels` suite of `acoustic bench` in bench/BENCH_baseline.json.

void BM_KernelComparePack(benchmark::State& state,
                          sc::kernels::Level level) {
  const sc::kernels::KernelTable& kt = sc::kernels::table_for(level);
  const auto count = static_cast<std::size_t>(state.range(0));
  sc::kernels::CompareWiring wiring;
  wiring.mask = 0xFFu;
  wiring.width = 8;
  wiring.pre_xor = 0x5Au;
  wiring.post_xor = 0xC3u;
  wiring.rot = 3;
  sc::XorShift32 rng(42);
  std::vector<std::uint32_t> lfsr_states(count);
  for (auto& s : lfsr_states) {
    s = rng.next() & wiring.mask;
  }
  std::vector<std::uint64_t> out((count + 63) / 64, 0);
  for (auto _ : state) {
    std::fill(out.begin(), out.end(), std::uint64_t{0});
    kt.compare_pack(wiring, lfsr_states.data(), count, 128, out.data(), 0);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(count));
}
BENCHMARK_CAPTURE(BM_KernelComparePack, scalar, sc::kernels::Level::kScalar)
    ->Arg(256)
    ->Arg(8192);
BENCHMARK_CAPTURE(BM_KernelComparePack, active, sc::kernels::active_level())
    ->Arg(256)
    ->Arg(8192);

void BM_KernelAndOrPopcount(benchmark::State& state,
                            sc::kernels::Level level) {
  const sc::kernels::KernelTable& kt = sc::kernels::table_for(level);
  const auto n = static_cast<std::size_t>(state.range(0));
  sc::XorShift32 rng(7);
  std::vector<std::uint64_t> a(n), b(n), acc(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = (static_cast<std::uint64_t>(rng.next()) << 32) | rng.next();
    b[i] = (static_cast<std::uint64_t>(rng.next()) << 32) | rng.next();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kt.and_or_popcount(acc.data(), a.data(), b.data(), n));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * 64));
}
BENCHMARK_CAPTURE(BM_KernelAndOrPopcount, scalar, sc::kernels::Level::kScalar)
    ->Arg(4)
    ->Arg(64);
BENCHMARK_CAPTURE(BM_KernelAndOrPopcount, active,
                  sc::kernels::active_level())
    ->Arg(4)
    ->Arg(64);

void BM_KernelPopcountWords(benchmark::State& state,
                            sc::kernels::Level level) {
  const sc::kernels::KernelTable& kt = sc::kernels::table_for(level);
  const auto n = static_cast<std::size_t>(state.range(0));
  sc::XorShift32 rng(11);
  std::vector<std::uint64_t> words(n);
  for (auto& w : words) {
    w = (static_cast<std::uint64_t>(rng.next()) << 32) | rng.next();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(kt.popcount_words(words.data(), n));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * 64));
}
BENCHMARK_CAPTURE(BM_KernelPopcountWords, scalar, sc::kernels::Level::kScalar)
    ->Arg(16)
    ->Arg(1024);
BENCHMARK_CAPTURE(BM_KernelPopcountWords, active,
                  sc::kernels::active_level())
    ->Arg(16)
    ->Arg(1024);

void BM_StreamPlanBuild(benchmark::State& state) {
  // Packed layer-plan build for a conv2-sized lane space (one full-window
  // kernel sweep per lane, sliced into pooling-window slots).
  const auto lanes = static_cast<std::size_t>(state.range(0));
  const sim::SegmentSchedule sched{64, 4, 16};
  sim::StreamBank bank(8, 0xBEEF, 2 * sched.phase, true);
  std::vector<std::uint32_t> levels(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    levels[i] = static_cast<std::uint32_t>(1 + (i % 255));
  }
  for (auto _ : state) {
    sim::LayerStreamPlan plan(bank, sched, lanes, 0);
    sim::StreamPlanCounters counters;
    plan.build(levels, counters, nullptr);
    benchmark::DoNotOptimize(plan.enabled());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(lanes * 2 * sched.phase));
}
BENCHMARK(BM_StreamPlanBuild)->Arg(384)->Arg(2400);

void sc_forward_bench(benchmark::State& state, sim::ExecMode exec) {
  nn::Network net = train::build_lenet_small(nn::AccumMode::kOrApprox, 16);
  sim::ScConfig cfg;
  cfg.stream_length = static_cast<std::size_t>(state.range(0));
  cfg.exec = exec;
  sim::ScNetwork executor(net, cfg);
  nn::Tensor x(nn::Shape{16, 16, 1});
  x.fill(0.5f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.forward(x));
  }
}

void BM_ScNetworkForward(benchmark::State& state) {
  sc_forward_bench(state, sim::ExecMode::kPlanned);
}
BENCHMARK(BM_ScNetworkForward)->Arg(64)->Arg(256);

void BM_ScNetworkForwardScalar(benchmark::State& state) {
  sc_forward_bench(state, sim::ExecMode::kScalar);
}
BENCHMARK(BM_ScNetworkForwardScalar)->Arg(64)->Arg(256);

void sc_conv_stage_bench(benchmark::State& state, sim::ExecMode exec) {
  // One conv + fused avg-pool stage, the hot shape of the executor.
  nn::Network net;
  auto& conv = net.add<nn::Conv2D>(nn::ConvSpec{
      .in_channels = 6, .out_channels = 16, .kernel = 5,
      .mode = nn::AccumMode::kOrApprox});
  net.add<nn::ReLU>();
  net.add<nn::AvgPool2D>(2);
  conv.initialize(61);
  sim::ScConfig cfg;
  cfg.stream_length = 128;
  cfg.exec = exec;
  sim::ScNetwork executor(net, cfg);
  nn::Tensor x(nn::Shape{8, 8, 6});
  x.fill(0.4f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.forward(x));
  }
}

void BM_ScConvStagePlanned(benchmark::State& state) {
  sc_conv_stage_bench(state, sim::ExecMode::kPlanned);
}
BENCHMARK(BM_ScConvStagePlanned);

void BM_ScConvStageScalar(benchmark::State& state) {
  sc_conv_stage_bench(state, sim::ExecMode::kScalar);
}
BENCHMARK(BM_ScConvStageScalar);

// --- profiling span overhead: the hooks stay compiled into the hot
// paths permanently, so the disabled path (null profiler) must cost a
// few pointer writes — no clock reads, no string work, no allocation.
// BM_SpanDisabled tracks that budget; BM_SpanEnabled shows what turning
// profiling on costs (two clock reads + one mutex-guarded record).

void BM_SpanDisabled(benchmark::State& state) {
  for (auto _ : state) {
    obs::Span span(nullptr, std::string(), std::string());
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_SpanDisabled);

void BM_SpanEnabled(benchmark::State& state) {
  obs::Profiler profiler;
  for (auto _ : state) {
    obs::Span span(&profiler, "bench", "layer");
    benchmark::DoNotOptimize(&span);
  }
  benchmark::DoNotOptimize(profiler.size());
}
BENCHMARK(BM_SpanEnabled);

void BM_PerfSimAlexNet(benchmark::State& state) {
  const nn::NetworkDesc net = nn::alexnet();
  const perf::ArchConfig arch = perf::lp();
  const perf::CodegenResult compiled = perf::generate_program(net, arch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(perf::simulate(compiled.program, arch));
  }
}
BENCHMARK(BM_PerfSimAlexNet);

void BM_CodegenVgg(benchmark::State& state) {
  const nn::NetworkDesc net = nn::vgg16();
  const perf::ArchConfig arch = perf::lp();
  for (auto _ : state) {
    benchmark::DoNotOptimize(perf::generate_program(net, arch));
  }
}
BENCHMARK(BM_CodegenVgg);

}  // namespace
