// Google-benchmark microbenchmarks of the reproduction's primitives that
// the `acoustic bench` suites do not cover: stream generation,
// single-gate arithmetic, the split-unipolar MAC, profiling-span overhead
// and the performance simulator. The SIMD kernels, the stream-plan build
// and the bit-level network executor are measured (and gated) by
// `acoustic bench --suite kernels|plan|forward`.
#include <benchmark/benchmark.h>

#include "nn/model_zoo.hpp"
#include "obs/span.hpp"
#include "perf/codegen.hpp"
#include "perf/perf_sim.hpp"
#include "sc/gates.hpp"
#include "sc/sng.hpp"
#include "sim/sc_mac.hpp"

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
