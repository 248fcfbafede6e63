// Plan-invariant verification for the packed stream plans.
//
// The planned fast path is only trustworthy because its tables are pure
// functions of (bank, schedule, levels); these validators re-derive the
// invariants independently and report violations through the shared
// diagnostics engine (rule "plan-invariant"):
//
//   check_schedule — the segment timetable covers every (sign, slot) pair
//     exactly once, slot windows are disjoint within a phase, and every
//     packed word offset stays inside the bank window.
//   check_product_table — a stage's shared ProductTable agrees with the
//     weights it was built for: extents, group prefix sums, gated counts,
//     slot and lane lists in oc-major order, group bitmaps, and entry
//     words bit-identical to regenerating the same (lane, level, offset)
//     window from the bank (sampled entries; the golden suite sweeps whole
//     networks on top of this).
//
// ScNetwork::validate_plans() runs both over every stage that has
// executed; debug builds also run check_product_table on every table the
// WeightPlanStore builds and assert it clean.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "core/diagnostics.hpp"
#include "sim/stream_bank.hpp"
#include "sim/stream_plan.hpp"

namespace acoustic::sim {

/// Validates @p sched against a bank window of @p bank_length bits with
/// sign phases of @p phase_length bits. Findings anchor at @p path.
[[nodiscard]] core::Report check_schedule(const SegmentSchedule& sched,
                                          std::size_t phase_length,
                                          std::size_t bank_length,
                                          std::string_view path);

/// Re-derives every invariant of @p table from the codes of @p weights
/// (the weights the caller expects it to encode, quantized by @p bank) and
/// its own map and schedule; cross-checks the words of up to
/// @p max_entries entries, evenly spaced, against fresh regeneration from
/// @p bank. Findings anchor at @p path.
[[nodiscard]] core::Report check_product_table(
    const ProductTable& table, const StreamBank& bank,
    std::span<const float> weights, std::string_view path,
    std::size_t max_entries = 64);

}  // namespace acoustic::sim
