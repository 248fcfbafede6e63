// Steady-state allocation audit for the SC hot path.
//
// This binary replaces global operator new/delete with counting versions
// (which is why it is its own test executable) and asserts the central
// ScratchArena promise: after warm-up, a planned-mode forward performs
// ZERO heap allocations, and a BatchEvaluator run's allocation COUNT is
// independent of how many images it evaluates — every per-image buffer
// (logits, arena scratch, stream plans, product tables) is reused. It also
// counts heap bytes, to show that inference snapshots hold no gradients.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "nn/network.hpp"
#include "sc/rng.hpp"
#include "sim/backend.hpp"
#include "sim/batch_evaluator.hpp"
#include "sim/sc_network.hpp"
#include "train/dataset.hpp"
#include "train/models.hpp"

namespace {

std::atomic<std::uint64_t> g_news{0};
std::atomic<std::uint64_t> g_bytes{0};

void* counted_alloc(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::size_t alignment) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, alignment < sizeof(void*) ? sizeof(void*) : alignment,
                     size == 0 ? alignment : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace acoustic;

nn::Tensor random_image(std::uint32_t seed) {
  nn::Tensor t(nn::Shape{16, 16, 1});
  sc::XorShift32 rng(seed);
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.next_double());
  }
  return t;
}

TEST(AllocFree, ClonesAndBackendsHoldNoGradients) {
  // Gradients are allocated on first use, so a network clone, and every
  // backend snapshot built from one, copies the parameters and nothing as
  // large beside them. Asking a clone for its optimizer views then
  // allocates the gradients: the control that the byte count sees them.
  nn::Network net = train::build_cifar_small(nn::AccumMode::kOrApprox, 16);
  const std::uint64_t param_bytes = net.parameter_count() * sizeof(float);
  ASSERT_GT(param_bytes, 0u);
  const auto bytes_of = [](const auto& fn) {
    const std::uint64_t before = g_bytes.load(std::memory_order_relaxed);
    fn();
    return g_bytes.load(std::memory_order_relaxed) - before;
  };
  nn::Network copy;
  const std::uint64_t clone_bytes = bytes_of([&] { copy = net.clone(); });
  EXPECT_GE(clone_bytes, param_bytes);
  EXPECT_LT(clone_bytes, param_bytes + param_bytes / 2);
  EXPECT_GE(bytes_of([&] { (void)copy.parameters(); }), param_bytes);

  sim::ScConfig cfg;
  cfg.stream_length = 64;
  const std::uint64_t backend_bytes = bytes_of([&] {
    const auto backend = sim::make_sc_backend(net, cfg);
    const auto sibling = backend->clone();
  });
  // The backend's snapshot and its clone's: two parameter copies.
  EXPECT_LT(backend_bytes, 3 * param_bytes);
}

TEST(AllocFree, PlannedForwardAllocatesNothingAfterWarmup) {
  nn::Network net = train::build_lenet_small(nn::AccumMode::kOrApprox, 16);
  sim::ScConfig cfg;
  cfg.stream_length = 128;
  cfg.exec = sim::ExecMode::kPlanned;
  cfg.intra_threads = 1;
  sim::ScNetwork exec(net, cfg);
  const nn::Tensor input = random_image(2024);
  nn::Tensor out;
  // Warm-up: builds weight plans and product tables, sizes the arena, the
  // retained activation plan and the ping-pong buffers.
  exec.forward_into(input, out);
  exec.forward_into(input, out);

  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  for (int i = 0; i < 10; ++i) {
    exec.forward_into(input, out);
  }
  const std::uint64_t after = g_news.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before)
      << "steady-state planned forwards must not touch the heap";
  EXPECT_GT(exec.stats().scratch_bytes, 0u);
}

TEST(AllocFree, SecondImageWithSameShapeAllocatesNothing) {
  // Different pixel values exercise per-image plan rebuilds and liveness;
  // only the FIRST image of a shape may size buffers.
  nn::Network net = train::build_lenet_small(nn::AccumMode::kOrApprox, 16);
  sim::ScConfig cfg;
  cfg.stream_length = 128;
  cfg.exec = sim::ExecMode::kPlanned;
  cfg.intra_threads = 1;
  sim::ScNetwork exec(net, cfg);
  nn::Tensor out;
  exec.forward_into(random_image(1), out);
  exec.forward_into(random_image(2), out);
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  for (std::uint32_t seed = 3; seed < 13; ++seed) {
    exec.forward_into(random_image(seed), out);
  }
  // random_image itself allocates one tensor per call; everything else
  // must be reuse. 10 images -> exactly 10 tensor data blocks.
  const std::uint64_t per_call_tensor_allocs = 10;
  EXPECT_LE(g_news.load(std::memory_order_relaxed) - before,
            per_call_tensor_allocs)
      << "per-image forward work leaked heap allocations";
}

TEST(AllocFree, EvaluatorAllocationCountIsIndependentOfImageCount) {
  nn::Network net = train::build_lenet_small(nn::AccumMode::kOrApprox, 16);
  sim::ScConfig cfg;
  cfg.stream_length = 64;
  cfg.exec = sim::ExecMode::kPlanned;
  cfg.intra_threads = 1;

  const auto make_data = [](std::size_t n) {
    train::Dataset data;
    for (std::size_t i = 0; i < n; ++i) {
      train::Sample s;
      s.image = random_image(static_cast<std::uint32_t>(1000 + i));
      s.label = static_cast<int>(i % 10);
      data.samples.push_back(std::move(s));
    }
    return data;
  };
  const train::Dataset small = make_data(8);
  const train::Dataset large = make_data(24);

  const auto count_run = [&](const train::Dataset& data) {
    const auto backend = sim::make_sc_backend(net, cfg);
    sim::BatchEvaluator evaluator(1);
    const std::uint64_t before = g_news.load(std::memory_order_relaxed);
    const sim::EvalResult result = evaluator.evaluate(*backend, data, {});
    const std::uint64_t after = g_news.load(std::memory_order_relaxed);
    EXPECT_EQ(result.samples, data.size());
    return after - before;
  };
  const std::uint64_t allocs_small = count_run(small);
  const std::uint64_t allocs_large = count_run(large);
  // Per-run setup (clone, result vectors, first-image warm-up) allocates;
  // the per-image loop must not, so tripling the image count cannot move
  // the allocation count.
  EXPECT_EQ(allocs_large, allocs_small)
      << "evaluator per-image loop is allocating per sample";
}

}  // namespace
