#include "sim/plan_check.hpp"

#include <bit>
#include <cstring>
#include <string>
#include <vector>

namespace acoustic::sim {

namespace {

using core::Severity;

std::string at(std::string_view path) { return std::string(path); }

}  // namespace

core::Report check_schedule(const SegmentSchedule& sched,
                            std::size_t phase_length, std::size_t bank_length,
                            std::string_view path) {
  core::Report report;
  if (sched.positions == 0 || sched.seg == 0) {
    report.add("plan-invariant", Severity::kError, at(path),
               "degenerate segment schedule: positions=" +
                   std::to_string(sched.positions) +
                   " seg=" + std::to_string(sched.seg));
    return report;
  }
  if (sched.phase != phase_length) {
    report.add("plan-invariant", Severity::kError, at(path),
               "schedule phase " + std::to_string(sched.phase) +
                   " does not match the configured phase length " +
                   std::to_string(phase_length));
  }
  if (sched.seg != sched.phase / sched.positions) {
    report.add("plan-invariant", Severity::kError, at(path),
               "segment length " + std::to_string(sched.seg) +
                   " is not phase/positions = " +
                   std::to_string(sched.phase / sched.positions));
  }
  // Slot coverage: every (sign, k) must map to a distinct dense index in
  // [0, slots()), and its bank window must stay inside the bank.
  std::vector<char> seen(sched.slots(), 0);
  for (int sign = 0; sign < 2; ++sign) {
    const bool positive = sign == 0;
    for (std::size_t k = 0; k < sched.positions; ++k) {
      const std::size_t idx = sched.slot_index(positive, k);
      if (idx >= sched.slots()) {
        report.add("plan-invariant", Severity::kError, at(path),
                   "slot index " + std::to_string(idx) + " for (sign=" +
                       (positive ? std::string("+") : std::string("-")) +
                       ", k=" + std::to_string(k) + ") exceeds " +
                       std::to_string(sched.slots()) + " slots");
        continue;
      }
      if (seen[idx] != 0) {
        report.add("plan-invariant", Severity::kError, at(path),
                   "slot index " + std::to_string(idx) +
                       " is covered more than once");
      }
      seen[idx] = 1;
      const std::size_t offset = sched.offset(positive, k);
      if (offset + sched.seg > bank_length) {
        report.add("plan-invariant", Severity::kError, at(path),
                   "slot (sign=" +
                       (positive ? std::string("+") : std::string("-")) +
                       ", k=" + std::to_string(k) + ") window [" +
                       std::to_string(offset) + ", " +
                       std::to_string(offset + sched.seg) +
                       ") exceeds the bank length " +
                       std::to_string(bank_length));
      }
      // Within one sign phase, slot windows must not overlap (phase- is
      // the same layout shifted by a full phase, so checking the k-extent
      // covers both signs).
      if (positive && offset + sched.seg > phase_length &&
          sched.positions > 1) {
        report.add("plan-invariant", Severity::kError, at(path),
                   "positive-phase slot k=" + std::to_string(k) +
                       " spills past the phase boundary");
      }
    }
  }
  for (std::size_t idx = 0; idx < seen.size(); ++idx) {
    if (seen[idx] == 0) {
      report.add("plan-invariant", Severity::kError, at(path),
                 "slot index " + std::to_string(idx) + " is never covered");
    }
  }
  return report;
}

core::Report check_product_table(const ProductTable& table,
                                 const StreamBank& bank,
                                 std::span<const float> weights,
                                 std::string_view path,
                                 std::size_t max_entries) {
  core::Report report;
  std::vector<WeightCode> codes(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    codes[i] = weight_code(bank, weights[i]);
  }
  const WeightMap& map = table.map;
  const std::size_t groups = table.groups();
  const std::size_t seg_words = table.sched.seg_words();
  if (table.group_off.size() != groups + 1 || table.group_off[0] != 0 ||
      table.group_off[groups] != table.total ||
      table.gated.size() != groups || table.slot_of.size() != table.total ||
      table.lane_of.size() != table.total ||
      table.bm_words != (map.slots + 63) / 64 ||
      table.group_bm.size() != groups * table.bm_words ||
      table.words.size() !=
          (table.has_words ? table.sched.slots() * table.total * seg_words
                           : 0) ||
      table.weights.size() != codes.size()) {
    report.add("plan-invariant", Severity::kError, at(path),
               "table extents are inconsistent with the layer geometry (" +
                   std::to_string(groups) + " groups, " +
                   std::to_string(map.slots) + " slots, " +
                   std::to_string(codes.size()) + " weights)");
    return report;
  }
  std::size_t mismatches = 0;
  const auto flag = [&](const std::string& msg) {
    if (++mismatches <= 4) {  // cap per-layer noise; the count is summarized
      report.add("plan-invariant", Severity::kError, at(path), msg);
    }
  };
  const auto in_bm = [&](std::size_t g, std::size_t slot) {
    return ((table.group_bm[g * table.bm_words + slot / 64] >> (slot % 64)) &
            1u) != 0;
  };
  for (std::size_t g = 0; g < groups; ++g) {
    if (table.group_off[g + 1] < table.group_off[g]) {
      flag("group " + std::to_string(g) + " has a negative extent");
      return report;
    }
  }
  std::vector<std::uint32_t> cursor(table.group_off.begin(),
                                    table.group_off.end() - 1);
  std::vector<std::uint32_t> gated(groups, 0);
  for (std::size_t oc = 0; oc < map.outputs; ++oc) {
    for (std::size_t slot = 0; slot < map.slots; ++slot) {
      const std::size_t wi = map.weight(oc, slot);
      const WeightCode c =
          wi == WeightMap::kNone ? WeightCode{} : codes[wi];
      const bool live = c.sign != 0 && c.level != 0;
      const std::size_t pos = oc;
      const std::size_t neg = map.outputs + oc;
      const std::size_t own = c.sign > 0 ? pos : neg;
      if (c.sign != 0 && c.level == 0) {
        ++gated[own];
      }
      // A slot sets at most its own group's bit, and only when live;
      // cross-group slots and dead weights appear in neither bitmap.
      if (in_bm(pos, slot) != (live && own == pos) ||
          in_bm(neg, slot) != (live && own == neg)) {
        flag("slot " + std::to_string(slot) + " of output " +
             std::to_string(oc) +
             (live ? " is live but not in exactly its own group's bitmap"
                   : " is dead but present in a group bitmap"));
        continue;
      }
      if (!live) {
        continue;
      }
      const std::uint32_t e = cursor[own]++;
      if (e >= table.group_off[own + 1] || table.slot_of[e] != slot ||
          table.lane_of[e] != wi) {
        flag("entry order for output " + std::to_string(oc) + " slot " +
             std::to_string(slot) + " disagrees with the oc-major fill order");
      }
    }
  }
  for (std::size_t g = 0; g < groups; ++g) {
    if (cursor[g] != table.group_off[g + 1]) {
      flag("group " + std::to_string(g) + " holds " +
           std::to_string(table.group_off[g + 1] - table.group_off[g]) +
           " entries but the weights produce " +
           std::to_string(cursor[g] - table.group_off[g]));
    }
    std::size_t bits = 0;
    for (std::size_t w = 0; w < table.bm_words; ++w) {
      bits += static_cast<std::size_t>(
          std::popcount(table.group_bm[g * table.bm_words + w]));
    }
    if (bits != table.group_off[g + 1] - table.group_off[g]) {
      flag("group " + std::to_string(g) + " bitmap holds " +
           std::to_string(bits) + " slots for " +
           std::to_string(table.group_off[g + 1] - table.group_off[g]) +
           " entries");
    }
    if (gated[g] != table.gated[g]) {
      flag("group " + std::to_string(g) + " counts " +
           std::to_string(table.gated[g]) + " gated weights but the weights "
           "produce " + std::to_string(gated[g]));
    }
  }
  for (std::size_t i = 0; mismatches == 0 && i < codes.size(); ++i) {
    if (!(weight_code(bank, table.weights[i]) == codes[i])) {
      flag("weight " + std::to_string(i) +
           " of the table's cache key differs from the weights it encodes");
    }
  }
  if (mismatches > 4) {
    report.add("plan-invariant", Severity::kError, at(path),
               std::to_string(mismatches) +
                   " total mismatches against the weights (first 4 shown)");
  }
  if (mismatches != 0 || !table.has_words || table.total == 0 ||
      max_entries == 0) {
    return report;
  }
  // Sample entries evenly so both ends of the shared sequence's lane-phase
  // taps are exercised.
  const std::size_t stride =
      table.total > max_entries ? table.total / max_entries : 1;
  std::vector<std::uint64_t> fresh(seg_words);
  for (std::size_t e = 0; e < table.total; e += stride) {
    const std::uint32_t lane = table.lane_of[e];
    for (std::size_t si = 0; si < table.sched.slots(); ++si) {
      const bool positive = si < table.sched.positions;
      const std::size_t k = positive ? si : si - table.sched.positions;
      bank.fill(codes[lane].level, lane, table.sched.offset(positive, k),
                table.sched.seg, fresh);
      const std::uint64_t* served =
          table.words.data() + (si * table.total + e) * seg_words;
      if (std::memcmp(served, fresh.data(),
                      seg_words * sizeof(std::uint64_t)) != 0) {
        report.add("plan-invariant", Severity::kError, at(path),
                   "entry " + std::to_string(e) + " (lane " +
                       std::to_string(lane) + ") slot " + std::to_string(si) +
                       " differs from regeneration — the table is not a "
                       "pure function of (bank, schedule, level)");
        return report;
      }
    }
  }
  return report;
}

}  // namespace acoustic::sim
