// Work counters of one functional execution path: what ScNetwork counts
// per forward and what every InferenceBackend reports.
#pragma once

#include <cstdint>

namespace acoustic::sim {

/// Statistics accumulated across forward() calls. Every field but
/// scratch_bytes is additive, so merging per-thread stats is
/// order-insensitive.
struct RunStats {
  /// forward() calls (samples executed).
  std::uint64_t samples = 0;
  /// Weighted layers executed.
  std::uint64_t layers_run = 0;
  /// AND-gate product bits evaluated (the unit computation skipping saves;
  /// SC backend only).
  std::uint64_t product_bits = 0;
  /// Product candidates skipped by operand gating: a zero (or padding)
  /// activation or a zero-quantized weight in the phase the product was
  /// scheduled for (paper II-C's "skip computation on zero operands").
  std::uint64_t skipped_operands = 0;
  /// Comparator bits the SNG kernel actually produced for this run
  /// (scalar-path fills, per-image activation-plan builds, fallback
  /// fills). Cached weight-plan builds are amortized across images and
  /// clones and deliberately excluded, keeping stats a pure function of
  /// the sample set.
  std::uint64_t stream_bits_generated = 0;
  /// Segment bits served from a packed stream plan instead of being
  /// regenerated — the fast path's reuse headroom (see
  /// sim/stream_plan.hpp).
  std::uint64_t stream_bits_reused = 0;
  /// Segment fetches served from a plan / generated on the fly because
  /// the plan exceeded its byte budget.
  std::uint64_t plan_hits = 0;
  std::uint64_t plan_misses = 0;
  /// High-water mark of the per-forward scratch arena in bytes — the
  /// steady-state working set one executor needs beyond the plan tables.
  /// A pure function of (network, config, input shape): identical for
  /// every clone, so merge() takes the max, not the sum, and the figure
  /// stays invariant across thread counts and repeated runs.
  std::uint64_t scratch_bytes = 0;

  void merge(const RunStats& other) noexcept {
    samples += other.samples;
    layers_run += other.layers_run;
    product_bits += other.product_bits;
    skipped_operands += other.skipped_operands;
    stream_bits_generated += other.stream_bits_generated;
    stream_bits_reused += other.stream_bits_reused;
    plan_hits += other.plan_hits;
    plan_misses += other.plan_misses;
    scratch_bytes =
        scratch_bytes > other.scratch_bytes ? scratch_bytes
                                            : other.scratch_bytes;
  }

  bool operator==(const RunStats&) const = default;
};

}  // namespace acoustic::sim
