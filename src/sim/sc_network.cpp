#include "sim/sc_network.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "nn/activation.hpp"
#include "nn/pool.hpp"
#include "sc/bitstream.hpp"
#include "sc/kernels/kernels.hpp"
#include "sim/plan_check.hpp"

namespace acoustic::sim {

namespace {

/// Packed-word scratch for one stream segment.
using Words = std::vector<std::uint64_t>;

std::size_t word_count(std::size_t bits) { return (bits + 63) / 64; }

std::int64_t popcount_acc(const std::uint64_t* words, std::size_t count) {
  return static_cast<std::int64_t>(sc::popcount_words({words, count}));
}

/// Geometry of one conv(+fused pool) stage: output shapes, the pooling
/// window's segment timetable, the receptive-field extent and the grouped
/// weight mapping. Shared by the scalar and planned executors so the two
/// paths cannot drift.
struct ConvGeometry {
  nn::Shape in;
  nn::Shape conv_out;
  nn::Shape out_shape;
  int pool = 1;
  /// False when the node carries a fused pool whose window does not tile
  /// this input's conv output: the conv then runs unfused and the caller
  /// applies the pool in the binary domain (floor-cropping, exactly what
  /// AvgPool2D::forward computes).
  bool fused = true;
  std::size_t window_positions = 1;
  std::size_t seg = 0;
  std::size_t seg_words = 0;
  /// Bits actually counted per phase per pooled output (phase may not
  /// divide evenly by the window size; hardware rounds the slice down the
  /// same way).
  double counted_bits = 0.0;
  /// (output channel, receptive-field slot) -> weight index. Its slot
  /// count is kernel^2 * in_channels, the full gather extent regardless
  /// of grouping (cross-group slots simply map to no weight).
  WeightMap map;
};

ConvGeometry conv_geometry(const LoweredOp& op, nn::Shape in,
                           std::size_t phase) {
  const nn::Conv2D& conv = *op.conv;
  const auto& spec = conv.spec();
  ConvGeometry g;
  g.in = in;
  g.conv_out = conv.output_shape(g.in);
  g.pool = op.fused_pool != nullptr ? op.fused_pool->window() : 1;
  if (g.pool > 1 &&
      (g.conv_out.h % g.pool != 0 || g.conv_out.w % g.pool != 0)) {
    // Untiled window (e.g. AlexNet's 55x55 -> pool 2): fall back to
    // binary-domain cropped pooling instead of refusing the network.
    g.pool = 1;
    g.fused = false;
  }
  g.window_positions = static_cast<std::size_t>(g.pool) * g.pool;
  g.seg = phase / g.window_positions;
  if (g.seg == 0) {
    throw std::invalid_argument(
        "ScNetwork: stream too short for the pooling window");
  }
  g.seg_words = word_count(g.seg);
  g.counted_bits = static_cast<double>(g.seg * g.window_positions);
  g.out_shape =
      nn::Shape{g.conv_out.h / g.pool, g.conv_out.w / g.pool, g.conv_out.c};
  const auto kk = static_cast<std::size_t>(spec.kernel) * spec.kernel;
  const auto cpg = static_cast<std::size_t>(spec.in_channels / spec.groups);
  g.map.outputs = static_cast<std::size_t>(spec.out_channels);
  g.map.in_c = static_cast<std::size_t>(spec.in_channels);
  g.map.slots = kk * g.map.in_c;
  g.map.cpg = cpg;
  g.map.oc_per_group =
      static_cast<std::size_t>(spec.out_channels / spec.groups);
  g.map.w_per_oc = kk * cpg;
  return g;
}

/// Weights per output channel of @p spec (one BatchNorm scale each).
std::size_t weights_per_oc(const nn::ConvSpec& spec) {
  return static_cast<std::size_t>(spec.kernel) * spec.kernel *
         static_cast<std::size_t>(spec.in_channels / spec.groups);
}

/// Folds an absorbed BatchNorm's per-channel scale into the conv weights
/// (w' = w * scale(oc)); the shift is applied post-counter instead. The
/// folded floats feed quantization AND sign classification, so a negative
/// scale flips the product's phase exactly as the algebra demands.
void fold_bn_weights(const nn::Conv2D& conv, const nn::BatchNorm& bn,
                     std::vector<float>& out) {
  const auto w = conv.weights();
  const auto& spec = conv.spec();
  const std::size_t per_oc = weights_per_oc(spec);
  out.resize(w.size());
  for (int oc = 0; oc < spec.out_channels; ++oc) {
    const float s = bn.scale(oc);
    const std::size_t base = static_cast<std::size_t>(oc) * per_oc;
    for (std::size_t j = 0; j < per_oc; ++j) {
      out[base + j] = w[base + j] * s;
    }
  }
}

/// The float weights a conv node's stochastic datapath sees: the live conv
/// weights, or the BN-folded copy staged in @p scratch.
std::span<const float> node_weights(const LoweredOp& op,
                                    std::vector<float>& scratch) {
  if (op.bn == nullptr) {
    return op.conv->weights();
  }
  fold_bn_weights(*op.conv, *op.bn, scratch);
  return scratch;
}

/// The float weights a weighted node's stochastic datapath sees.
std::span<const float> stage_weights(const LoweredOp& op,
                                     std::vector<float>& scratch) {
  return op.dense != nullptr ? op.dense->weights() : node_weights(op, scratch);
}

/// True when the float weights @p op's datapath sees (BN-folded where a
/// BatchNorm is absorbed) equal @p encoded bit for bit, as a memcmp of a
/// folded copy would find. One read-only pass: the fold is computed on
/// the fly, with fold_bn_weights()'s expression, and never stored.
bool same_weights(const LoweredOp& op, std::span<const float> encoded) {
  const std::span<const float> w =
      op.dense != nullptr ? op.dense->weights() : op.conv->weights();
  if (w.size() != encoded.size()) {
    return false;
  }
  if (op.bn == nullptr) {
    return w.empty() || std::memcmp(w.data(), encoded.data(),
                                    w.size() * sizeof(float)) == 0;
  }
  const auto& spec = op.conv->spec();
  const std::size_t per_oc = weights_per_oc(spec);
  for (int oc = 0; oc < spec.out_channels; ++oc) {
    const float s = op.bn->scale(oc);
    const std::size_t base = static_cast<std::size_t>(oc) * per_oc;
    // Branch-free within a channel so the pass vectorizes.
    std::uint32_t diff = 0;
    for (std::size_t j = 0; j < per_oc; ++j) {
      diff |= std::bit_cast<std::uint32_t>(w[base + j] * s) ^
              std::bit_cast<std::uint32_t>(encoded[base + j]);
    }
    if (diff != 0) {
      return false;
    }
  }
  return true;
}

#ifndef NDEBUG
/// Whether @p held still encodes @p op's weights: bit for bit, or code for
/// code when the store served a table built from a sibling's code-equal
/// weights. The owning form's fast path asserts it every forward.
bool table_encodes(const LoweredOp& op, const ProductTable& held,
                   const StreamBank& bank) {
  if (same_weights(op, held.weights)) {
    return true;
  }
  std::vector<float> folded;
  const std::span<const float> w = stage_weights(op, folded);
  if (w.size() != held.weights.size()) {
    return false;
  }
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (!(weight_code(bank, w[i]) == weight_code(bank, held.weights[i]))) {
      return false;
    }
  }
  return true;
}
#endif

/// Gathers the receptive field of conv output (oy, ox): slot s maps to an
/// input pixel and to the weight offset (ky, kx, ic) shared by all output
/// channels. Returns the slot count; dead slots (zero padding or a
/// zero-quantized activation) are marked not-live.
std::size_t gather_rf(const nn::ConvSpec& spec, const nn::Tensor& input,
                      const std::uint32_t* act_levels, int oy, int ox,
                      std::uint32_t* rf_weight_lane,
                      std::size_t* rf_act_index, char* rf_live) {
  const nn::Shape in = input.shape();
  std::size_t rf_size = 0;
  for (int ky = 0; ky < spec.kernel; ++ky) {
    const int iy = oy * spec.stride + ky - spec.padding;
    for (int kx = 0; kx < spec.kernel; ++kx) {
      const int ix = ox * spec.stride + kx - spec.padding;
      for (int ic = 0; ic < spec.in_channels; ++ic) {
        const std::size_t slot = rf_size++;
        rf_weight_lane[slot] = static_cast<std::uint32_t>(
            (static_cast<std::size_t>(ky) * spec.kernel + kx) *
                spec.in_channels +
            ic);
        if (iy < 0 || iy >= in.h || ix < 0 || ix >= in.w) {
          rf_live[slot] = 0;  // zero padding: operand-gated
          continue;
        }
        const std::size_t ai = input.index(iy, ix, ic);
        rf_act_index[slot] = ai;
        rf_live[slot] = act_levels[ai] != 0 ? 1 : 0;
      }
    }
  }
  return rf_size;
}

/// Quantizes all activations to SNG comparator levels once per layer.
void quantize_activations_into(const StreamBank& bank, const nn::Tensor& input,
                               std::span<std::uint32_t> levels) {
  for (std::size_t i = 0; i < input.size(); ++i) {
    levels[i] = bank.quantize(input[i]);
  }
}

std::vector<std::uint32_t> quantize_activations(const StreamBank& bank,
                                                const nn::Tensor& input) {
  std::vector<std::uint32_t> levels(input.size());
  quantize_activations_into(bank, input, levels);
  return levels;
}

/// Quantizes all weight magnitudes once per layer (the sign schedules the
/// product into the + or - phase instead).
std::vector<std::uint32_t> quantize_weights(const StreamBank& bank,
                                            std::span<const float> weights) {
  std::vector<std::uint32_t> levels(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    levels[i] = bank.quantize(std::fabs(weights[i]));
  }
  return levels;
}

/// The datapath's one operation for one (sign phase, output) group: ORs
/// act[slot[e]] AND wgt[e] over the group's @p n entries into one segment
/// and returns the segment's ones count — what the up/down counter adds.
/// Activation segments sit @p stride words apart, the weight segments are
/// packed. W is the segment width in words when known at compile time, 0
/// for a runtime width of @p words (then @p acc holds the segment).
template <std::size_t W>
std::int64_t or_chain(const std::uint64_t* act, std::size_t stride,
                      const std::uint32_t* slot, const std::uint64_t* wgt,
                      std::size_t n, std::size_t words, std::uint64_t* acc) {
  if constexpr (W == 1) {
    // Four independent accumulators break the OR dependency chain.
    std::uint64_t a0 = 0;
    std::uint64_t a1 = 0;
    std::uint64_t a2 = 0;
    std::uint64_t a3 = 0;
    std::size_t e = 0;
    for (; e + 4 <= n; e += 4) {
      a0 |= act[slot[e] * stride] & wgt[e];
      a1 |= act[slot[e + 1] * stride] & wgt[e + 1];
      a2 |= act[slot[e + 2] * stride] & wgt[e + 2];
      a3 |= act[slot[e + 3] * stride] & wgt[e + 3];
    }
    for (; e < n; ++e) {
      a0 |= act[slot[e] * stride] & wgt[e];
    }
    return std::popcount((a0 | a1) | (a2 | a3));
  } else {
    std::fill_n(acc, words, std::uint64_t{0});
    for (std::size_t e = 0; e < n; ++e) {
      const std::uint64_t* a = act + slot[e] * stride;
      const std::uint64_t* b = wgt + e * words;
      for (std::size_t w = 0; w < words; ++w) {
        acc[w] |= a[w] & b[w];
      }
    }
    std::int64_t ones = 0;
    for (std::size_t w = 0; w < words; ++w) {
      ones += std::popcount(acc[w]);
    }
    return ones;
  }
}

/// Fills the live entries of @p group (those whose slot satisfies
/// @p live) with their segment at window slot @p k of the group's phase,
/// straight from the bank — the over-budget stand-in for
/// ProductTable::group_words(). Dead entries keep stale words: their
/// activation words are zero, so the chain's AND drops them anyway.
template <typename Live>
const std::uint64_t* fill_group_words(const ProductTable& tbl,
                                      const StreamBank& bank, std::size_t k,
                                      std::size_t group, Live live,
                                      std::uint64_t* tile) {
  const SegmentSchedule& sched = tbl.sched;
  const std::size_t words = sched.seg_words();
  const std::size_t offset = sched.offset(tbl.positive_group(group), k);
  const std::size_t off = tbl.group_off[group];
  const std::size_t n = tbl.group_off[group + 1] - off;
  for (std::size_t e = 0; e < n; ++e) {
    if (live(tbl.slot_of[off + e])) {
      const std::uint32_t lane = tbl.lane_of[off + e];
      bank.fill(weight_code(bank, tbl.weights[lane]).level, lane, offset,
                sched.seg, {tile + e * words, words});
    }
  }
  return tile;
}

/// Everything one planned conv stage's row body reads: prepared before the
/// row loop and read-only while workers run.
struct ConvRows {
  const ConvGeometry& g;
  const nn::ConvSpec& spec;
  const nn::Tensor& input;
  std::span<const std::uint32_t> act_levels;
  const LayerStreamPlan& act_plan;
  const StreamBank& act_bank;
  const ProductTable& tbl;
  const StreamBank& wgt_bank;
  std::span<const float> bias;
  nn::Tensor& out;
};

/// One row worker's scratch and additive accounting (merged after the
/// row loop; the sums are order-insensitive).
struct ConvWorker {
  std::span<std::uint64_t> act;       ///< [phase][slot][word] gathered words
  std::span<std::uint64_t> live_bm;   ///< live receptive-field slots
  std::span<std::uint64_t> acc;       ///< OR accumulator, one segment
  std::span<std::uint64_t> wgt_tile;  ///< over-budget weight words, one group
  std::span<std::int64_t> counters;   ///< per output channel
  std::uint64_t product_bits = 0;
  std::uint64_t skipped = 0;
  StreamPlanCounters plan;
};

/// The planned conv row body, templated on the segment width W (1, or 0
/// for a runtime width). Per window position it gathers the receptive
/// field as plain activation words — zero for padding and dead
/// activations, since OR-ing a zero AND is the identity, gating needs no
/// branch — then runs every (sign phase, output) group of the product
/// table through or_chain(). Live-product counts come from the group and
/// live-slot bitmaps. Over-budget plans change only where the words come
/// from: the gather fills activation words from the bank, and the weight
/// words of each group are filled into the worker's tile.
template <std::size_t W>
void conv_row(const ConvRows& c, std::size_t row, ConvWorker& ws) {
  const ConvGeometry& g = c.g;
  const ProductTable& tbl = c.tbl;
  const SegmentSchedule& sched = tbl.sched;
  const std::size_t words = W != 0 ? W : g.seg_words;
  const std::size_t rf = g.map.slots;
  const std::size_t oc_count = g.map.outputs;
  const std::size_t bm_words = tbl.bm_words;
  const bool act_planned = c.act_plan.enabled();
  const bool wgt_planned = tbl.has_words;
  const auto seg = static_cast<std::uint64_t>(g.seg);
  const int py = static_cast<int>(row);
  std::uint64_t skipped = 0;  // kept local: ws fields may alias counters
  for (int px = 0; px < g.out_shape.w; ++px) {
    std::fill(ws.counters.begin(), ws.counters.end(), 0);
    for (std::size_t k = 0; k < g.window_positions; ++k) {
      const int oy = py * g.pool + static_cast<int>(k) / g.pool;
      const int ox = px * g.pool + static_cast<int>(k) % g.pool;
      const std::size_t sp = sched.slot_index(true, k);
      const std::size_t sn = sched.slot_index(false, k);
      std::fill(ws.act.begin(), ws.act.end(), std::uint64_t{0});
      std::fill(ws.live_bm.begin(), ws.live_bm.end(), std::uint64_t{0});
      std::uint64_t live = 0;
      std::size_t slot = 0;
      for (int ky = 0; ky < c.spec.kernel; ++ky) {
        const int iy = oy * c.spec.stride + ky - c.spec.padding;
        for (int kx = 0; kx < c.spec.kernel; ++kx) {
          const int ix = ox * c.spec.stride + kx - c.spec.padding;
          if (iy < 0 || iy >= g.in.h || ix < 0 || ix >= g.in.w) {
            slot += g.map.in_c;
            continue;
          }
          for (int ic = 0; ic < c.spec.in_channels; ++ic, ++slot) {
            const std::size_t ai = c.input.index(iy, ix, ic);
            const std::uint32_t level = c.act_levels[ai];
            if (level == 0) {
              continue;
            }
            std::uint64_t* pos = ws.act.data() + slot * words;
            std::uint64_t* neg = pos + rf * words;
            if (act_planned) {
              const std::uint64_t* lane = c.act_plan.lane_words(ai);
              std::copy_n(lane + sp * words, words, pos);
              std::copy_n(lane + sn * words, words, neg);
            } else {
              const auto lane_id = static_cast<std::uint32_t>(ai);
              c.act_bank.fill(level, lane_id, sched.offset(true, k), g.seg,
                              {pos, words});
              c.act_bank.fill(level, lane_id, sched.offset(false, k), g.seg,
                              {neg, words});
            }
            ws.live_bm[slot / 64] |= std::uint64_t{1} << (slot % 64);
            ++live;
          }
        }
      }
      for (int ph = 0; ph < 2; ++ph) {
        const bool positive = ph == 0;
        const std::uint64_t* act = ws.act.data() + (positive ? 0 : rf * words);
        // One activation segment per live slot per phase, served from the
        // plan or generated on the fly.
        if (act_planned) {
          ws.plan.plan_hits += live;
          ws.plan.bits_reused += live * seg;
        } else {
          ws.plan.plan_misses += live;
          ws.plan.bits_generated += live * seg;
        }
        std::uint64_t products_here = 0;
        for (std::size_t oc = 0; oc < oc_count; ++oc) {
          const std::size_t group =
              static_cast<std::size_t>(ph) * oc_count + oc;
          const std::size_t off = tbl.group_off[group];
          const std::size_t n = tbl.group_off[group + 1] - off;
          const std::uint64_t* gbm = tbl.group_bm.data() + group * bm_words;
          std::uint64_t products = 0;
          for (std::size_t w = 0; w < bm_words; ++w) {
            products += static_cast<std::uint64_t>(
                std::popcount(gbm[w] & ws.live_bm[w]));
          }
          skipped += tbl.gated[group] + (n - products);
          if (products == 0) {
            continue;
          }
          const auto live_slot = [&](std::uint32_t s) {
            return ((ws.live_bm[s / 64] >> (s % 64)) & 1u) != 0;
          };
          const std::uint64_t* wgt =
              wgt_planned ? tbl.group_words(k, group)
                          : fill_group_words(tbl, c.wgt_bank, k, group,
                                             live_slot, ws.wgt_tile.data());
          const std::int64_t ones =
              or_chain<W>(act, words, tbl.slot_of.data() + off, wgt, n,
                          words, ws.acc.data());
          ws.counters[oc] += positive ? ones : -ones;
          products_here += products;
        }
        // One weight segment per live product, likewise.
        ws.product_bits += products_here * seg;
        if (wgt_planned) {
          ws.plan.plan_hits += products_here;
          ws.plan.bits_reused += products_here * seg;
        } else {
          ws.plan.plan_misses += products_here;
          ws.plan.bits_generated += products_here * seg;
        }
      }
    }
    for (std::size_t oc = 0; oc < oc_count; ++oc) {
      c.out.at(py, px, static_cast<int>(oc)) =
          static_cast<float>(static_cast<double>(ws.counters[oc]) /
                             g.counted_bits) +
          c.bias[oc];
    }
  }
  ws.skipped += skipped;
}

}  // namespace

ScNetwork::ScNetwork(nn::Network& net, ScConfig cfg,
                     std::shared_ptr<WeightPlanStore> shared) {
  init(net, cfg, std::move(shared));
}

ScNetwork::ScNetwork(nn::Network&& snapshot, ScConfig cfg,
                     std::shared_ptr<WeightPlanStore> shared)
    : owned_(std::make_unique<nn::Network>(std::move(snapshot))) {
  init(*owned_, cfg, std::move(shared));
}

ScNetwork ScNetwork::clone() const {
  return ScNetwork(net_->clone(), cfg_, wgt_plans_);
}

void ScNetwork::init(nn::Network& net, ScConfig cfg,
                     std::shared_ptr<WeightPlanStore> shared) {
  net_ = &net;
  cfg_ = cfg;
  if (cfg_.phase_length() == 0) {
    throw std::invalid_argument("ScNetwork: stream_length must be >= 2");
  }
  LowerOptions lopt;
  lopt.fuse_avg_pool = cfg_.pooling == PoolingMode::kSkipping;
  // Both exec modes fold: the scalar oracle quantizes the same folded
  // weights, so planned == scalar stays byte-exact with BatchNorm present.
  lopt.fold_batch_norm = true;
  ops_ = lower_graph(net, lopt, "ScNetwork");
  stage_scratch_.resize(ops_.size());
  wgt_plans_ = shared != nullptr
                   ? std::move(shared)
                   : std::make_shared<WeightPlanStore>(cfg_, ops_.size());
}

runtime::ThreadPool* ScNetwork::intra_pool(std::size_t work_words) {
  if (cfg_.exec != ExecMode::kPlanned || cfg_.intra_threads == 1) {
    return nullptr;
  }
  // Auto mode (0) gates per layer: below the work threshold the fork/join
  // overhead exceeds the sharding win (the forward bench recorded 330 us
  // at 4 forced threads vs 211 us serial on LeNet-small), so small layers
  // stay serial. An explicit thread count always engages the pool.
  if (cfg_.intra_threads == 0 && work_words < cfg_.intra_work_threshold) {
    return nullptr;
  }
  // Inside a work-stealing pool worker (a batch-evaluator image task),
  // row subtasks join the SAME pool as nested jobs: idle workers steal
  // them, busy workers keep their own images. Spawning a private pool per
  // clone here — the pre-unified-scheduler behavior — oversubscribed the
  // machine with threads x intra_threads workers fighting for cores.
  if (runtime::ThreadPool* enclosing = runtime::ThreadPool::current()) {
    return enclosing->size() > 1 ? enclosing : nullptr;
  }
  if (pool_ == nullptr) {
    pool_ = std::make_unique<runtime::ThreadPool>(cfg_.intra_threads);
  }
  return pool_.get();
}

StreamBank& ScNetwork::activation_bank() {
  if (act_bank_ == nullptr) {
    act_bank_ = std::make_unique<StreamBank>(
        cfg_.sng_width, cfg_.activation_seed, 2 * cfg_.phase_length(),
        cfg_.decorrelate_lanes);
  }
  return *act_bank_;
}

const ProductTable& ScNetwork::weight_table(std::size_t stage_idx,
                                            const SegmentSchedule& sched,
                                            const WeightMap& map,
                                            runtime::ThreadPool* pool) {
  const LoweredOp& op = ops_[stage_idx];
  StageScratch& stage = stage_scratch_[stage_idx];
  const ProductTable* held = stage.table.get();
  if (held != nullptr && held->sched == sched) {
    if (owned_ != nullptr) {
      // Nothing outside can reach the snapshot, so the weights the store
      // checked when it handed out this table are still the weights.
      assert(table_encodes(op, *held, wgt_plans_->bank()));
      return *held;
    }
    if (same_weights(op, held->weights)) {
      return *held;
    }
  }
  std::vector<float> folded;
  stage.table = wgt_plans_->get(stage_idx, sched, map,
                                stage_weights(op, folded),
                                cfg_.plan_budget_bytes, pool);
  return *stage.table;
}

std::uint64_t ScNetwork::prepare(const nn::Shape& input,
                                 runtime::ThreadPool& pool) {
  if (cfg_.exec != ExecMode::kPlanned) {
    return 0;  // the scalar oracle reads no tables
  }
  // Walk the graph on shapes alone, as forward_into() moves tensors, and
  // key every weighted stage exactly as its first forward would.
  struct StageKey {
    std::size_t stage;
    SegmentSchedule sched;
    WeightMap map;
  };
  const std::size_t phase = cfg_.phase_length();
  std::vector<StageKey> keys;
  const auto conv_stage = [&](std::size_t s, nn::Shape in) {
    const ConvGeometry g = conv_geometry(ops_[s], in, phase);
    keys.push_back({s, SegmentSchedule{phase, g.window_positions, g.seg},
                    g.map});
    // An untiled fused pool runs unfused, then pools in the binary domain.
    return g.fused ? g.out_shape
                   : ops_[s].fused_pool->output_shape(g.out_shape);
  };
  const auto walk = [&] {
    std::unordered_map<const nn::SkipState*, nn::Shape> saved;
    nn::Shape cur = input;
    for (std::size_t s = 0; s < ops_.size(); ++s) {
      const LoweredOp& op = ops_[s];
      switch (op.kind) {
        case nn::OpKind::kConv2D:
          cur = conv_stage(s, cur);
          break;
        case nn::OpKind::kDense: {
          const auto& spec = op.dense->spec();
          if (cur.size() != static_cast<std::size_t>(spec.in_features)) {
            return;  // forward_into() reports the mismatch
          }
          keys.push_back({s, SegmentSchedule{phase, 1, phase},
                          WeightMap::dense(
                              static_cast<std::size_t>(spec.out_features),
                              static_cast<std::size_t>(spec.in_features))});
          cur = op.dense->output_shape(cur);
          break;
        }
        case nn::OpKind::kSkipSave:
          saved[op.skip] = cur;
          break;
        case nn::OpKind::kSkipProject: {
          const auto it = saved.find(op.skip);
          if (it == saved.end()) {
            return;  // forward_into() reports the missing skip-save
          }
          it->second = conv_stage(s, it->second);
          break;
        }
        case nn::OpKind::kSkipAdd:
          break;  // block + saved keeps the block's shape
        default:  // max pools and binary-domain fallbacks
          cur = op.layer->output_shape(cur);
          break;
      }
      for (const nn::Layer* post : op.post_ops) {
        cur = post->output_shape(cur);
      }
    }
  };
  walk();

  // One task per stage; each build's passes and fill become nested jobs
  // that idle workers steal. The folded weights live only for the build:
  // the table's copy is the one kept.
  const std::uint64_t before = wgt_plans_->builds();
  pool.parallel_for(keys.size(), [&](std::size_t k, unsigned /*worker*/) {
    const StageKey& key = keys[k];
    std::vector<float> folded;
    (void)wgt_plans_->get(key.stage, key.sched, key.map,
                          stage_weights(ops_[key.stage], folded),
                          cfg_.plan_budget_bytes, &pool);
  });
  return wgt_plans_->builds() - before;
}

void ScNetwork::forward_into(const nn::Tensor& input, nn::Tensor& out) {
  // Per-run accounting: the hot loops below write into `run` (and locals),
  // never into stats_, so evaluator clones share nothing mutable.
  Stats run;
  run.samples = 1;
  // One scratch epoch per forward: the first call grows the arena to the
  // network's high-water mark, every later call only bumps pointers.
  arena_.reset();
  // Stages ping-pong between the two member buffers; the external input is
  // read-only, so the first stage writes buf_a_.
  const nn::Tensor* cur = &input;
  nn::Tensor* cur_buf = nullptr;
  const auto flip = [&]() -> nn::Tensor& {
    return cur_buf == &buf_a_ ? buf_b_ : buf_a_;
  };
  // A node that mutates the activation in place (skip-add) needs a
  // writable buffer; the external input is read-only, so copy-on-first-
  // write into the ping-pong pair.
  const auto writable = [&]() -> nn::Tensor& {
    if (cur_buf == nullptr) {
      nn::Tensor& dst = flip();
      dst = *cur;
      cur_buf = &dst;
      cur = cur_buf;
    }
    return *cur_buf;
  };
  const bool profiled = profiler_ != nullptr;
  for (std::size_t s = 0; s < ops_.size(); ++s) {
    const LoweredOp& op = ops_[s];
    // The span covers the node AND its binary-domain post-ops, so the
    // per-layer profile sums to (almost exactly) the forward wall time;
    // counters carry the node's contribution alone. Name/counter strings
    // are only built when a profiler is attached — the unprofiled hot
    // path must not allocate.
    obs::Span span(profiler_, profiled ? op.layer->name() : std::string(),
                   profiled ? std::string("layer") : std::string(), track_,
                   static_cast<std::uint32_t>(s));
    if (profiled) {
      switch (op.kind) {
        case nn::OpKind::kConv2D:
          span.kind(op.fused_pool != nullptr ? "conv+pool" : "conv");
          break;
        case nn::OpKind::kDense:
          span.kind("dense");
          break;
        case nn::OpKind::kSkipProject:
          span.kind("skip-project");
          break;
        case nn::OpKind::kSkipSave:
          span.kind("skip-save");
          break;
        case nn::OpKind::kSkipAdd:
          span.kind("skip-add");
          break;
        case nn::OpKind::kMaxPool2D:
          span.kind("max-pool");
          break;
        default:
          span.kind(::acoustic::nn::to_string(op.kind));
          break;
      }
    }
    const Stats before = run;
    switch (op.kind) {
      case nn::OpKind::kConv2D: {
        nn::Tensor& dst = flip();
        run_conv(op, s, *cur, dst, run);
        cur_buf = &dst;
        cur = cur_buf;
        ++run.layers_run;
        break;
      }
      case nn::OpKind::kDense: {
        nn::Tensor& dst = flip();
        run_dense(op, s, *cur, dst, run);
        cur_buf = &dst;
        cur = cur_buf;
        ++run.layers_run;
        break;
      }
      case nn::OpKind::kSkipProject:
        // Transforms the saved skip tensor; the main path passes through.
        run_skip_project(op, s, run);
        ++run.layers_run;
        break;
      case nn::OpKind::kSkipSave:
        op.skip->saved = *cur;
        break;
      case nn::OpKind::kSkipAdd: {
        nn::Tensor& acc = writable();
        const nn::Tensor& saved = op.skip->saved;
        if (!(saved.shape() == acc.shape())) {
          throw std::invalid_argument(
              "ScNetwork: skip-add shape mismatch (is the skip-path "
              "projection missing?)");
        }
        // Counter-preload semantics in the binary domain: out = block + x.
        for (std::size_t i = 0; i < acc.size(); ++i) {
          acc[i] += saved[i];
        }
        break;
      }
      case nn::OpKind::kMaxPool2D: {
        nn::Tensor& dst = flip();
        if (cfg_.max_pool == MaxPoolMode::kStochastic) {
          run_max_pool_sc(op, *cur, dst, run);
        } else {
          dst = op.max_pool->forward(*cur);
        }
        cur_buf = &dst;
        cur = cur_buf;
        break;
      }
      default:
        // Lowering emits no other node kinds (binary-domain layers become
        // post-ops); run the layer as a defensive fallback.
        {
          nn::Tensor& dst = flip();
          dst = op.layer->forward(*cur);
          cur_buf = &dst;
          cur = cur_buf;
        }
        break;
    }
    for (nn::Layer* post : op.post_ops) {
      // Shape-preserving post-ops (ReLU) run in place; the rest (e.g. a
      // non-fused pooling layer) take the allocating fallback.
      nn::Tensor& acc = writable();
      if (post->forward_in_place(acc)) {
        continue;
      }
      nn::Tensor& next = flip();
      next = post->forward(acc);
      cur_buf = &next;
      cur = cur_buf;
    }
    if (profiled) {
      span.counter("product_bits", run.product_bits - before.product_bits);
      span.counter("skipped_operands",
                   run.skipped_operands - before.skipped_operands);
      span.counter("stream_bits_generated",
                   run.stream_bits_generated - before.stream_bits_generated);
      span.counter("stream_bits_reused",
                   run.stream_bits_reused - before.stream_bits_reused);
    }
  }
  run.scratch_bytes = arena_.high_water_bytes();
  stats_.merge(run);
  out = *cur;
}

void ScNetwork::run_conv(const LoweredOp& op, std::size_t op_idx,
                         const nn::Tensor& input, nn::Tensor& out,
                         Stats& run) {
  if (cfg_.exec == ExecMode::kScalar) {
    run_conv_scalar(op, input, out, run);
  } else {
    run_conv_planned(op, op_idx, input, out, run);
  }
  // A fused pool whose window does not tile this conv output ran unfused
  // (ConvGeometry::fused == false); finish it in the binary domain, where
  // AvgPool2D floor-crops the ragged border exactly like the descriptor
  // arithmetic does.
  if (op.fused_pool != nullptr) {
    const nn::Shape co = op.conv->output_shape(input.shape());
    const int p = op.fused_pool->window();
    if (co.h % p != 0 || co.w % p != 0) {
      out = op.fused_pool->forward(out);
    }
  }
}

void ScNetwork::run_skip_project(const LoweredOp& op, std::size_t op_idx,
                                 Stats& run) {
  nn::SkipState& state = *op.skip;
  if (state.saved.size() == 0) {
    throw std::logic_error(
        "ScNetwork: skip-project before any skip-save recorded a tensor");
  }
  run_conv(op, op_idx, state.saved, skip_buf_, run);
  // Swap rather than copy: saved takes the projected tensor, skip_buf_
  // keeps the old capacity for the next block.
  std::swap(state.saved, skip_buf_);
}

// Reference scalar path (the seed implementation): regenerates every
// stream segment at its point of use. Kept verbatim as the equivalence
// oracle for the planned path below.
void ScNetwork::run_conv_scalar(const LoweredOp& op, const nn::Tensor& input,
                                nn::Tensor& out, Stats& run) {
  const nn::Conv2D& conv = *op.conv;
  const auto& spec = conv.spec();
  const std::size_t phase = cfg_.phase_length();
  const ConvGeometry g = conv_geometry(op, input.shape(), phase);

  StreamBank act_bank(cfg_.sng_width, cfg_.activation_seed, 2 * phase,
                      cfg_.decorrelate_lanes);
  StreamBank wgt_bank(cfg_.sng_width, cfg_.weight_seed, 2 * phase,
                      cfg_.decorrelate_lanes);

  const std::vector<std::uint32_t> act_levels =
      quantize_activations(act_bank, input);
  std::vector<float> folded;
  const std::span<const float> weights = node_weights(op, folded);
  const std::vector<std::uint32_t> wgt_levels =
      quantize_weights(wgt_bank, weights);
  // Folded BatchNorm's per-channel shift, added post-counter (zeros when
  // no BN is absorbed so every output write shares one expression).
  std::vector<float> bias(static_cast<std::size_t>(g.conv_out.c), 0.0f);
  if (op.bn != nullptr) {
    for (int oc = 0; oc < g.conv_out.c; ++oc) {
      bias[static_cast<std::size_t>(oc)] = op.bn->shift(oc);
    }
  }

  out.resize(g.out_shape);
  std::uint64_t product_bits = 0;
  std::uint64_t skipped = 0;
  std::uint64_t bits_generated = 0;

  // Receptive-field scratch: activation segment streams for one (output
  // position, window slot, phase), plus reusable weight/OR buffers.
  const std::size_t rf_max = g.map.slots;
  std::vector<Words> act_streams(rf_max, Words(g.seg_words));
  std::vector<std::uint32_t> rf_weight_lane(rf_max);
  std::vector<std::size_t> rf_act_index(rf_max);
  std::vector<char> rf_live(rf_max);
  Words wgt_stream(g.seg_words);
  Words or_acc(g.seg_words);
  std::vector<std::int64_t> counters(static_cast<std::size_t>(g.conv_out.c));

  for (int py = 0; py < g.out_shape.h; ++py) {
    for (int px = 0; px < g.out_shape.w; ++px) {
      for (auto& c : counters) {
        c = 0;
      }
      for (int k = 0; k < static_cast<int>(g.window_positions); ++k) {
        const int oy = py * g.pool + k / g.pool;
        const int ox = px * g.pool + k % g.pool;
        const std::size_t rf_size =
            gather_rf(spec, input, act_levels.data(), oy, ox,
                      rf_weight_lane.data(), rf_act_index.data(),
                      rf_live.data());
        // Two phases: + (counts up), - (counts down). The activation SNGs
        // run continuously: phase+ uses cycles [k*seg, ...), phase- the
        // same slice offset by a full phase.
        for (int ph = 0; ph < 2; ++ph) {
          const bool positive = ph == 0;
          const std::size_t offset =
              (positive ? 0 : phase) + static_cast<std::size_t>(k) * g.seg;
          for (std::size_t s = 0; s < rf_size; ++s) {
            if (rf_live[s]) {
              act_bank.fill(act_levels[rf_act_index[s]],
                            static_cast<std::uint32_t>(rf_act_index[s]),
                            offset, g.seg, act_streams[s]);
              bits_generated += g.seg;
            }
          }
          for (int oc = 0; oc < g.conv_out.c; ++oc) {
            for (std::size_t w = 0; w < g.seg_words; ++w) {
              or_acc[w] = 0;
            }
            bool any = false;
            for (std::size_t s = 0; s < rf_size; ++s) {
              const std::size_t wi = g.map.weight(
                  static_cast<std::size_t>(oc), rf_weight_lane[s]);
              if (wi == WeightMap::kNone) {
                continue;  // grouped conv: no weight connects this pair
              }
              const float wv = weights[wi];
              const bool active_here = positive ? (wv > 0.0f) : (wv < 0.0f);
              if (!active_here) {
                continue;  // scheduled in the other sign phase
              }
              if (!rf_live[s] || wgt_levels[wi] == 0) {
                ++skipped;  // operand-gated: zero/padding input, zero weight
                continue;
              }
              wgt_bank.fill(wgt_levels[wi], static_cast<std::uint32_t>(wi),
                            offset, g.seg, wgt_stream);
              bits_generated += g.seg;
              for (std::size_t w = 0; w < g.seg_words; ++w) {
                or_acc[w] |= act_streams[s][w] & wgt_stream[w];
              }
              any = true;
              product_bits += g.seg;
            }
            if (any) {
              const std::int64_t ones =
                  popcount_acc(or_acc.data(), g.seg_words);
              counters[static_cast<std::size_t>(oc)] +=
                  positive ? ones : -ones;
            }
          }
        }
      }
      for (int oc = 0; oc < g.conv_out.c; ++oc) {
        out.at(py, px, oc) =
            static_cast<float>(
                static_cast<double>(counters[static_cast<std::size_t>(oc)]) /
                g.counted_bits) +
            bias[static_cast<std::size_t>(oc)];
      }
    }
  }
  run.product_bits += product_bits;
  run.skipped_operands += skipped;
  run.stream_bits_generated += bits_generated;
}

// Planned path: the stage's shared product table, a per-image activation
// plan and optional row parallelism. Bit-identical to run_conv_scalar —
// every served segment is the same pure function of (bank, lane, level,
// offset), counter accumulation stays integer-exact, and output rows are
// disjoint, so the row-shard merge is independent of worker count and
// scheduling order. All per-forward scratch comes from the arena (carved
// BEFORE the row loop — the arena is single-owner), so a steady-state call
// allocates nothing.
void ScNetwork::run_conv_planned(const LoweredOp& op, std::size_t op_idx,
                                 const nn::Tensor& input, nn::Tensor& out,
                                 Stats& run) {
  const std::size_t phase = cfg_.phase_length();
  const ConvGeometry g = conv_geometry(op, input.shape(), phase);

  StreamBank& act_bank = activation_bank();
  const std::span<std::uint32_t> act_levels =
      arena_.alloc<std::uint32_t>(input.size());
  quantize_activations_into(act_bank, input, act_levels);
  StageScratch& stage = stage_scratch_[op_idx];
  // Folded BatchNorm shift per output channel (zeros without a BN), added
  // after the counter divide.
  const std::span<float> bias =
      arena_.alloc<float>(static_cast<std::size_t>(g.conv_out.c));
  for (int oc = 0; oc < g.conv_out.c; ++oc) {
    bias[static_cast<std::size_t>(oc)] =
        op.bn != nullptr ? op.bn->shift(oc) : 0.0f;
  }

  // Estimated word-level AND/OR work: output positions x window slots x
  // receptive field x output channels x segment words — the quantity the
  // auto-mode gate compares against intra_work_threshold.
  const std::size_t rf = g.map.slots;
  const std::size_t work_words = static_cast<std::size_t>(g.out_shape.h) *
                                 static_cast<std::size_t>(g.out_shape.w) *
                                 g.window_positions * g.map.outputs * rf *
                                 g.seg_words;
  runtime::ThreadPool* pool = intra_pool(work_words);

  // Both tables are ready before the row loop, so they stay read-only
  // while workers run. The product table is shared across images and
  // clones; the activation plan is rebuilt per image into the stage's
  // retained plan object, allocation-free across an evaluation.
  const SegmentSchedule sched{phase, g.window_positions, g.seg};
  const ProductTable& tbl = weight_table(op_idx, sched, g.map, pool);
  if (stage.act_plan == nullptr || stage.act_plan->lanes() != input.size() ||
      !(stage.act_plan->schedule() == sched)) {
    stage.act_plan = std::make_unique<LayerStreamPlan>(
        act_bank, sched, input.size(), cfg_.plan_budget_bytes);
  }
  StreamPlanCounters build_counters;
  stage.act_plan->build(act_levels, build_counters, pool);

  out.resize(g.out_shape);
  const unsigned workers = pool != nullptr ? pool->size() : 1u;
  const std::size_t words = g.seg_words;
  const std::span<ConvWorker> states = arena_.alloc<ConvWorker>(workers);
  for (ConvWorker& ws : states) {
    ws.acc = arena_.alloc<std::uint64_t>(words);
    ws.counters = arena_.alloc<std::int64_t>(g.map.outputs);
    ws.act = arena_.alloc<std::uint64_t>(2 * rf * words);
    ws.live_bm = arena_.alloc<std::uint64_t>(tbl.bm_words);
    if (!tbl.has_words) {
      ws.wgt_tile = arena_.alloc<std::uint64_t>(rf * words);
    }
  }

  const ConvRows rows{g,     op.conv->spec(), input,    act_levels,
                      *stage.act_plan, act_bank, tbl, wgt_plans_->bank(),
                      bias,  out};
  const auto run_row = [&](std::size_t row, unsigned worker) {
    if (words == 1) {
      conv_row<1>(rows, row, states[worker]);
    } else {
      conv_row<0>(rows, row, states[worker]);
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(static_cast<std::size_t>(g.out_shape.h), run_row);
  } else {
    for (int py = 0; py < g.out_shape.h; ++py) {
      run_row(static_cast<std::size_t>(py), 0);
    }
  }

  run.stream_bits_generated += build_counters.bits_generated;
  for (const ConvWorker& ws : states) {
    run.product_bits += ws.product_bits;
    run.skipped_operands += ws.skipped;
    run.stream_bits_generated += ws.plan.bits_generated;
    run.stream_bits_reused += ws.plan.bits_reused;
    run.plan_hits += ws.plan.plan_hits;
    run.plan_misses += ws.plan.plan_misses;
  }
}

void ScNetwork::run_max_pool_sc(const LoweredOp& op, const nn::Tensor& input,
                                nn::Tensor& out, Stats& run) {
  const int p = op.max_pool->window();
  const nn::Shape in = input.shape();
  const nn::Shape os = op.max_pool->output_shape(in);
  const std::size_t phase = cfg_.phase_length();
  const std::size_t words = word_count(phase);
  const sc::kernels::KernelTable& kt = sc::kernels::table();
  StreamBank& bank = activation_bank();

  // Quantize once per layer; negative inputs clamp to level 0 (a unipolar
  // stream cannot go below zero, and the following ReLU would discard the
  // sign anyway), so the stochastic max saturates at 0 for all-negative
  // windows.
  const std::span<std::uint32_t> levels =
      arena_.alloc<std::uint32_t>(input.size());
  quantize_activations_into(bank, input, levels);
  const std::span<std::uint64_t> acc = arena_.alloc<std::uint64_t>(words);
  const std::span<std::uint64_t> cand = arena_.alloc<std::uint64_t>(words);

  out.resize(os);
  std::uint64_t bits_generated = 0;
  for (int oy = 0; oy < os.h; ++oy) {
    for (int ox = 0; ox < os.w; ++ox) {
      for (int c = 0; c < os.c; ++c) {
        // Tournament over the window: acc starts as the first candidate's
        // phase stream, then the bit-serial max FSM folds in the rest.
        // One scalar FSM serves every exec mode, thread count and SIMD
        // level, so bit-determinism is structural.
        bool first = true;
        for (int ky = 0; ky < p; ++ky) {
          for (int kx = 0; kx < p; ++kx) {
            const std::size_t ai =
                input.index(oy * p + ky, ox * p + kx, c);
            std::uint64_t* dst = first ? acc.data() : cand.data();
            std::fill_n(dst, words, std::uint64_t{0});
            if (levels[ai] != 0) {
              bank.fill(levels[ai], static_cast<std::uint32_t>(ai), 0,
                        phase, {dst, words});
              bits_generated += phase;
            }
            if (!first) {
              kt.max_stream(acc.data(), acc.data(), cand.data(), phase);
            }
            first = false;
          }
        }
        out.at(oy, ox, c) = static_cast<float>(
            static_cast<double>(kt.popcount_words(acc.data(), words)) /
            static_cast<double>(phase));
      }
    }
  }
  run.stream_bits_generated += bits_generated;
}

void ScNetwork::run_dense(const LoweredOp& op, std::size_t op_idx,
                          const nn::Tensor& input, nn::Tensor& out,
                          Stats& run) {
  const nn::Dense& dense = *op.dense;
  const auto& spec = dense.spec();
  if (static_cast<int>(input.size()) != spec.in_features) {
    throw std::invalid_argument("ScNetwork: dense feature mismatch");
  }
  const std::size_t phase = cfg_.phase_length();
  const std::size_t words = word_count(phase);
  const sc::kernels::KernelTable& kt = sc::kernels::table();

  // The shared banks serve both exec modes: bank content is a pure
  // function of (width, seed, length, wiring), so they are bit-identical
  // to per-call locals.
  StreamBank& act_bank = activation_bank();
  const StreamBank& wgt_bank = wgt_plans_->bank();

  const auto n_in = static_cast<std::size_t>(spec.in_features);
  const auto n_out = static_cast<std::size_t>(spec.out_features);
  const std::span<std::uint32_t> act_levels =
      arena_.alloc<std::uint32_t>(input.size());
  quantize_activations_into(act_bank, input, act_levels);
  const auto weights = dense.weights();

  // Activation streams are shared by every output: generate once per
  // phase, into one arena block laid out [lane][sign][words] (zero words
  // for dead inputs).
  std::uint64_t act_bits_generated = 0;
  const std::span<std::uint64_t> act_streams =
      arena_.alloc<std::uint64_t>(n_in * 2 * words);
  for (std::size_t i = 0; i < n_in; ++i) {
    if (act_levels[i] != 0) {
      std::uint64_t* lane = act_streams.data() + i * 2 * words;
      act_bank.fill(act_levels[i], static_cast<std::uint32_t>(i), 0, phase,
                    {lane, words});
      act_bank.fill(act_levels[i], static_cast<std::uint32_t>(i), phase,
                    phase, {lane + words, words});
      act_bits_generated += 2 * phase;
    }
  }

  out.resize(nn::Shape{1, 1, spec.out_features});
  runtime::ThreadPool* pool = intra_pool(n_out * n_in * words);
  const unsigned workers = pool != nullptr ? pool->size() : 1u;

  // Planned mode reads the stage's product table (positions == 1: one
  // full-phase slot per sign). Each dense weight is used once per image,
  // so the reuse is across images; the served bits equal a fill.
  const bool planned = cfg_.exec == ExecMode::kPlanned;
  const ProductTable* tbl =
      planned ? &weight_table(op_idx, SegmentSchedule{phase, 1, phase},
                              WeightMap::dense(n_out, n_in), pool)
              : nullptr;
  // The scalar oracle regenerates every weight segment at its use.
  const std::vector<std::uint32_t> wgt_levels =
      planned ? std::vector<std::uint32_t>{}
              : quantize_weights(wgt_bank, weights);

  // Per-worker scratch + additive accounting; out[o] writes are disjoint,
  // so sharding output neurons is bit-identical to the serial loop.
  struct WorkerState {
    std::span<std::uint64_t> wgt_stream;  ///< scalar fill / over-budget tile
    std::span<std::uint64_t> or_acc;
    std::uint64_t product_bits = 0;
    std::uint64_t skipped = 0;
    StreamPlanCounters plan;
  };
  const std::span<WorkerState> states = arena_.alloc<WorkerState>(workers);
  // The scalar oracle fills one weight segment at a time; an over-budget
  // table fills a whole group (up to n_in entries) before each chain.
  std::size_t wgt_words = 0;
  if (!planned) {
    wgt_words = words;
  } else if (!tbl->has_words) {
    wgt_words = n_in * words;
  }
  for (WorkerState& ws : states) {
    ws.wgt_stream = arena_.alloc<std::uint64_t>(wgt_words);
    ws.or_acc = arena_.alloc<std::uint64_t>(words);
  }

  const auto run_output_planned = [&](std::size_t o, unsigned worker) {
    WorkerState& ws = states[worker];
    std::int64_t counter = 0;
    for (std::size_t ph = 0; ph < 2; ++ph) {
      const std::size_t group = ph * n_out + o;
      const std::size_t off = tbl->group_off[group];
      const std::size_t n = tbl->group_off[group + 1] - off;
      const std::uint32_t* inputs = tbl->slot_of.data() + off;
      std::uint64_t products = 0;
      for (std::size_t e = 0; e < n; ++e) {
        products += act_levels[inputs[e]] != 0 ? 1u : 0u;
      }
      ws.skipped += tbl->gated[group] + (n - products);
      if (products == 0) {
        continue;
      }
      const std::uint64_t* wgt;
      if (tbl->has_words) {
        wgt = tbl->group_words(0, group);
        ws.plan.plan_hits += products;
        ws.plan.bits_reused += products * phase;
      } else {
        wgt = fill_group_words(
            *tbl, wgt_bank, 0, group,
            [&](std::uint32_t i) { return act_levels[i] != 0; },
            ws.wgt_stream.data());
        ws.plan.plan_misses += products;
        ws.plan.bits_generated += products * phase;
      }
      const std::uint64_t* act = act_streams.data() + ph * words;
      const std::int64_t ones =
          words == 1 ? or_chain<1>(act, 2, inputs, wgt, n, 1, nullptr)
                     : or_chain<0>(act, 2 * words, inputs, wgt, n, words,
                                   ws.or_acc.data());
      ws.product_bits += products * phase;
      counter += ph == 0 ? ones : -ones;
    }
    out[o] = static_cast<float>(static_cast<double>(counter) /
                                static_cast<double>(phase));
  };

  const auto run_output_scalar = [&](std::size_t o, unsigned worker) {
    WorkerState& ws = states[worker];
    std::int64_t counter = 0;
    for (int ph = 0; ph < 2; ++ph) {
      const bool positive = ph == 0;
      std::fill_n(ws.or_acc.data(), words, std::uint64_t{0});
      bool any = false;
      for (std::size_t i = 0; i < n_in; ++i) {
        const std::size_t wi =
            dense.weight_index(static_cast<int>(o), static_cast<int>(i));
        const float wv = weights[wi];
        const bool active_here = positive ? (wv > 0.0f) : (wv < 0.0f);
        if (!active_here) {
          continue;  // scheduled in the other sign phase
        }
        if (act_levels[i] == 0 || wgt_levels[wi] == 0) {
          ++ws.skipped;  // operand-gated: zero input or zero weight
          continue;
        }
        wgt_bank.fill(wgt_levels[wi], static_cast<std::uint32_t>(wi),
                      positive ? 0 : phase, phase, ws.wgt_stream);
        ws.plan.bits_generated += phase;
        kt.and_or(ws.or_acc.data(),
                  act_streams.data() + i * 2 * words + (positive ? 0 : words),
                  ws.wgt_stream.data(), words);
        any = true;
        ws.product_bits += phase;
      }
      if (any) {
        const auto ones = static_cast<std::int64_t>(
            kt.popcount_words(ws.or_acc.data(), words));
        counter += positive ? ones : -ones;
      }
    }
    out[o] = static_cast<float>(static_cast<double>(counter) /
                                static_cast<double>(phase));
  };

  const auto run_output = [&](std::size_t o, unsigned worker) {
    if (planned) {
      run_output_planned(o, worker);
    } else {
      run_output_scalar(o, worker);
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(n_out, run_output);
  } else {
    for (std::size_t o = 0; o < n_out; ++o) {
      run_output(o, 0);
    }
  }

  run.stream_bits_generated += act_bits_generated;
  for (const WorkerState& ws : states) {
    run.product_bits += ws.product_bits;
    run.skipped_operands += ws.skipped;
    run.stream_bits_generated += ws.plan.bits_generated;
    run.stream_bits_reused += ws.plan.bits_reused;
    run.plan_hits += ws.plan.plan_hits;
    run.plan_misses += ws.plan.plan_misses;
  }
}

core::Report ScNetwork::validate_plans() {
  core::Report report;
  const std::size_t phase = cfg_.phase_length();
  for (std::size_t s = 0; s < ops_.size(); ++s) {
    const LoweredOp& op = ops_[s];
    const StageScratch& stage = stage_scratch_[s];
    // Unweighted nodes, scalar-mode runs and stages that never executed
    // hold no table; skip them rather than force a build the run never
    // exercised.
    if (!op.weighted() || stage.table == nullptr) {
      continue;
    }
    const std::string name = op.layer->name();
    const ProductTable& tbl = *stage.table;
    report.merge(check_schedule(tbl.sched, phase, 2 * phase,
                                name + "/schedule"));
    // Check against the live weights — BN-folded, exactly as the executor
    // reads them — so a table served for another clone's weights, or a
    // stale one, cannot pass.
    std::vector<float> folded;
    const std::span<const float> weights = stage_weights(op, folded);
    report.merge(check_product_table(tbl, wgt_plans_->bank(), weights,
                                     name + "/product-table"));
  }
  return report;
}

}  // namespace acoustic::sim
