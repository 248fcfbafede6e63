#include "sim/stream_plan.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "runtime/thread_pool.hpp"
#include "sim/plan_check.hpp"

namespace acoustic::sim {

namespace {

/// Words of the lane buffer slice_lane() needs: both sign phases plus a
/// zero pad word (the shift-extract may read one word past the end).
std::size_t lane_buf_words(const SegmentSchedule& sched) {
  return (2 * sched.phase + 63) / 64 + 1;
}

/// Generates (level, lane)'s stream over both sign phases into @p buf and
/// slices every slot of @p sched out of it: slot s lands at
/// dst + s * stride. One kernel run covers the whole lane; fill() maps
/// output bit j of (offset, count) to shared sequence position offset + j,
/// so slicing the [0, 2*phase) run at offset(positive, k) is bit-identical
/// to a per-slot fill, at one wiring hoist and one state sweep per lane
/// instead of one per slot.
void slice_lane(const StreamBank& bank, const SegmentSchedule& sched,
                std::uint32_t level, std::uint32_t lane, std::uint64_t* buf,
                std::uint64_t* dst, std::size_t stride) {
  const std::size_t seg_words = sched.seg_words();
  const std::size_t run_words = lane_buf_words(sched) - 1;
  const unsigned tail = static_cast<unsigned>(sched.seg % 64);
  const std::uint64_t tail_mask =
      tail != 0 ? (std::uint64_t{1} << tail) - 1 : ~std::uint64_t{0};
  bank.fill(level, lane, 0, 2 * sched.phase, {buf, run_words});
  buf[run_words] = 0;
  for (std::size_t slot = 0; slot < sched.slots(); ++slot) {
    const bool positive = slot < sched.positions;
    const std::size_t k = positive ? slot : slot - sched.positions;
    const std::size_t bit0 = sched.offset(positive, k);
    std::uint64_t* out = dst + slot * stride;
    for (std::size_t w = 0; w < seg_words; ++w) {
      const std::size_t bit = bit0 + w * 64;
      const std::size_t i = bit / 64;
      const unsigned r = static_cast<unsigned>(bit % 64);
      std::uint64_t v = buf[i] >> r;
      if (r != 0) {
        v |= buf[i + 1] << (64u - r);
      }
      // Bits past the segment end must be zero, exactly as a direct
      // fill() of `seg` bits leaves them.
      out[w] = w + 1 == seg_words ? v & tail_mask : v;
    }
  }
}

/// Builds one stage's product table. Two passes go over output channels,
/// codes and counts, then entry lists, around a prefix sum over groups.
/// Then each entry's stream segments are sliced into the
/// [slot][entry][word] layout. On
/// @p pool the channel passes are sharded over channel chunks (channel oc
/// writes only its own weights' codes and groups oc and outputs + oc) and
/// the fill over entries. Every write is disjoint and every value a pure
/// function of its index, so the table is independent of the worker count.
std::shared_ptr<const ProductTable> build_product_table(
    const StreamBank& bank, const SegmentSchedule& sched, const WeightMap& map,
    std::span<const float> weights, std::size_t budget_bytes,
    runtime::ThreadPool* pool) {
  auto tbl = std::make_shared<ProductTable>();
  tbl->sched = sched;
  tbl->map = map;
  tbl->weights.assign(weights.begin(), weights.end());
  std::vector<WeightCode> codes(weights.size());
  const std::size_t outputs = map.outputs;
  const std::size_t groups = tbl->groups();
  tbl->bm_words = (map.slots + 63) / 64;
  tbl->group_off.assign(groups + 1, 0);
  tbl->gated.assign(groups, 0);
  tbl->group_bm.assign(groups * tbl->bm_words, 0);

  // Channels per chunk: about kPairGrain (channel, slot) pairs, so small
  // tables (one chunk) stay serial and large ones queue a few hundred
  // tasks rather than one per channel.
  constexpr std::size_t kPairGrain = std::size_t{1} << 14;
  const std::size_t channel_grain = std::max<std::size_t>(
      1, kPairGrain / std::max<std::size_t>(1, map.slots));
  const auto for_channels = [&](const auto& body) {
    if (pool != nullptr && outputs > channel_grain) {
      pool->parallel_for(
          outputs, [&](std::size_t oc, unsigned /*worker*/) { body(oc); },
          channel_grain);
    } else {
      for (std::size_t oc = 0; oc < outputs; ++oc) {
        body(oc);
      }
    }
  };
  // Codes and counts: group_off[g + 1] collects group g's live entries.
  // Channel oc's weights are [oc * w_per_oc, (oc + 1) * w_per_oc).
  for_channels([&](std::size_t oc) {
    const std::size_t end =
        std::min(weights.size(), (oc + 1) * map.w_per_oc);
    for (std::size_t i = oc * map.w_per_oc; i < end; ++i) {
      codes[i] = weight_code(bank, weights[i]);
    }
    for (std::size_t s = 0; s < map.slots; ++s) {
      const std::size_t wi = map.weight(oc, s);
      if (wi == WeightMap::kNone || codes[wi].sign == 0) {
        continue;  // unconnected, or active in neither phase
      }
      const std::size_t g = (codes[wi].sign > 0 ? 0 : outputs) + oc;
      ++(codes[wi].level != 0 ? tbl->group_off[g + 1] : tbl->gated[g]);
    }
  });
  for (std::size_t g = 0; g < groups; ++g) {
    tbl->group_off[g + 1] += tbl->group_off[g];
  }
  tbl->total = tbl->group_off[groups];
  tbl->slot_of.resize(tbl->total);
  tbl->lane_of.resize(tbl->total);
  // Entry lists: a channel fills its two groups from their offsets on.
  for_channels([&](std::size_t oc) {
    std::uint32_t cursor[2] = {tbl->group_off[oc],
                               tbl->group_off[outputs + oc]};
    for (std::size_t s = 0; s < map.slots; ++s) {
      const std::size_t wi = map.weight(oc, s);
      if (wi == WeightMap::kNone || codes[wi].sign == 0 ||
          codes[wi].level == 0) {
        continue;
      }
      const std::size_t ph = codes[wi].sign > 0 ? 0 : 1;
      const std::size_t g = ph * outputs + oc;
      const std::uint32_t e = cursor[ph]++;
      tbl->slot_of[e] = static_cast<std::uint32_t>(s);
      tbl->lane_of[e] = static_cast<std::uint32_t>(wi);
      tbl->group_bm[g * tbl->bm_words + s / 64] |= std::uint64_t{1}
                                                   << (s % 64);
    }
  });

  tbl->has_words =
      within_plan_budget(plan_table_bytes(codes.size(), sched), budget_bytes);
  if (tbl->has_words) {
    const std::size_t seg_words = sched.seg_words();
    const std::size_t stride = tbl->total * seg_words;
    // Uninitialised: the fill writes every word of every entry's slots.
    tbl->words.resize(sched.slots() * stride);
    const auto fill_entry = [&](std::size_t e, std::uint64_t* buf) {
      const std::uint32_t lane = tbl->lane_of[e];
      slice_lane(bank, sched, codes[lane].level, lane, buf,
                 tbl->words.data() + e * seg_words, stride);
    };
    const std::size_t buf_words = lane_buf_words(sched);
    if (pool != nullptr && tbl->total > 1) {
      std::vector<std::vector<std::uint64_t>> bufs(
          pool->size(), std::vector<std::uint64_t>(buf_words));
      // Entries are cheap (one lane fill each): chunk them so a
      // multi-million-entry stage does not queue one task per weight.
      constexpr std::size_t kGrain = 256;
      pool->parallel_for(
          tbl->total,
          [&](std::size_t e, unsigned worker) {
            fill_entry(e, bufs[worker].data());
          },
          kGrain);
    } else {
      std::vector<std::uint64_t> buf(buf_words);
      for (std::size_t e = 0; e < tbl->total; ++e) {
        fill_entry(e, buf.data());
      }
    }
  }
  return tbl;
}

}  // namespace

LayerStreamPlan::LayerStreamPlan(const StreamBank& bank,
                                 const SegmentSchedule& sched,
                                 std::size_t lanes, std::size_t budget_bytes)
    : bank_(&bank), sched_(sched), lanes_(lanes), enabled_(true) {
  if (!within_plan_budget(plan_table_bytes(lanes, sched), budget_bytes)) {
    enabled_ = false;
    return;
  }
  words_.resize(lanes * sched.words_per_lane());
  built_.assign(lanes, 0);
}

void LayerStreamPlan::build(std::span<const std::uint32_t> levels,
                            StreamPlanCounters& counters,
                            runtime::ThreadPool* pool) {
  if (!enabled_) {
    return;
  }
  const std::size_t buf_words = lane_buf_words(sched_);
  const std::size_t row_words = sched_.words_per_lane();
  const auto build_lane = [&](std::size_t lane, std::uint64_t* buf) {
    const std::uint32_t level = levels[lane];
    if (level == 0) {
      built_[lane] = 0;  // operand-gated: never fetched
      return;
    }
    slice_lane(*bank_, sched_, level, static_cast<std::uint32_t>(lane), buf,
               words_.data() + lane * row_words, sched_.seg_words());
    built_[lane] = 1;
  };
  if (pool != nullptr && lanes_ > 1) {
    // Disjoint writes per lane and pure per-lane content: the sharded
    // build is bit-identical to the serial one for any worker count.
    std::vector<std::vector<std::uint64_t>> bufs(
        pool->size(), std::vector<std::uint64_t>(buf_words));
    pool->parallel_for(lanes_, [&](std::size_t lane, unsigned worker) {
      build_lane(lane, bufs[worker].data());
    });
  } else {
    build_buf_.resize(buf_words);
    for (std::size_t lane = 0; lane < lanes_; ++lane) {
      build_lane(lane, build_buf_.data());
    }
  }
  std::uint64_t built = 0;
  for (const char b : built_) {
    built += static_cast<std::uint64_t>(b);
  }
  // Honest accounting: the kernel swept the full 2*phase window per built
  // lane (>= slots * seg when phase does not divide evenly).
  counters.bits_generated += built * 2 * sched_.phase;
}

WeightPlanStore::WeightPlanStore(const ScConfig& cfg, std::size_t stages)
    : bank_(cfg.sng_width, cfg.weight_seed, 2 * cfg.phase_length(),
            cfg.decorrelate_lanes) {
  entries_.reserve(stages);
  for (std::size_t s = 0; s < stages; ++s) {
    entries_.push_back(std::make_unique<Entry>());
  }
}

std::shared_ptr<const ProductTable> WeightPlanStore::get(
    std::size_t stage, const SegmentSchedule& sched, const WeightMap& map,
    std::span<const float> weights, std::size_t budget_bytes,
    runtime::ThreadPool* pool) {
  const auto encodes = [&](const ProductTable& t) {
    if (!(t.sched == sched) || !(t.map == map) ||
        t.weights.size() != weights.size()) {
      return false;
    }
    if (weights.empty() ||
        std::memcmp(t.weights.data(), weights.data(),
                    weights.size() * sizeof(float)) == 0) {
      return true;  // sibling clones of one network: bitwise-equal weights
    }
    for (std::size_t i = 0; i < weights.size(); ++i) {
      if (!(weight_code(bank_, t.weights[i]) ==
            weight_code(bank_, weights[i]))) {
        return false;
      }
    }
    return true;
  };
  Entry& entry = *entries_[stage];
  std::unique_lock<std::mutex> lock(entry.mu);
  for (;;) {
    // Compare outside the lock, so clones that wait out one build then
    // check the result in parallel; build only if nobody swapped the
    // table in the meantime.
    const std::shared_ptr<const ProductTable> held = entry.table;
    lock.unlock();
    if (held != nullptr && encodes(*held)) {
      return held;
    }
    lock.lock();
    if (entry.table == held) {
      break;
    }
  }
  entry.table =
      build_product_table(bank_, sched, map, weights, budget_bytes, pool);
  builds_.fetch_add(1, std::memory_order_relaxed);
#ifndef NDEBUG
  // A fresh table must satisfy every invariant validate_plans() checks.
  assert(check_product_table(*entry.table, bank_, weights, "weight-plan-store")
             .clean());
#endif
  return entry.table;
}

}  // namespace acoustic::sim
