// Bit-level functional simulation of a whole network on the ACOUSTIC
// datapath (the paper's "custom SC functional simulator", section IV-A).
//
// The network is lowered once into an op graph (sim/op_graph.hpp) and the
// executor walks the lowered nodes: weighted nodes (conv, dense, and the
// skip-path projection conv) run the stochastic datapath below, residual
// save/add nodes run counter-preload semantics in the binary domain,
// max-pool nodes dispatch on ScConfig::max_pool (exact binary max or the
// bit-serial stochastic max FSM), and a BatchNorm folded into a conv node
// multiplies into the quantized weight levels with its shift applied
// post-counter. Skip-connection topologies therefore execute through the
// ordinary walk — no executor special-casing per network.
//
// Execution model per weighted layer, mirroring the architecture:
//   1. The layer's binary input activations feed the activation SNG bank
//      (shared LFSR, per-lane scrambling), weights feed the weight bank.
//   2. Every output's receptive field is OR-accumulated in two phases
//      (split-unipolar: positive-weight products count up, negative-weight
//      products count down in the activation counter).
//   3. Counters convert back to binary; ReLU and any non-fused pooling run
//      in the binary domain; the result becomes the next layer's input —
//      streams are regenerated per layer, which removes inter-layer
//      correlation exactly as the paper describes (II-C).
//
// With PoolingMode::kSkipping an AvgPool2D that directly follows a conv is
// fused: each output in a p x p pooling window is computed over a
// stream/p^2 time slice and the window's counter accumulates across slices
// (stream concatenation). The simulator counts product-bit operations so
// the 4x-9x computation reduction is measurable.
//
// The planned executor (the default) reads each weighted stage's weight
// side from one immutable ProductTable shared by every clone through a
// WeightPlanStore (sim/stream_plan.hpp), and runs every conv row through
// one body templated on the segment width. ExecMode::kScalar regenerates
// every segment at its point of use and is the bit-exact oracle.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/diagnostics.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/network.hpp"
#include "nn/pool.hpp"
#include "obs/span.hpp"
#include "runtime/scratch_arena.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/op_graph.hpp"
#include "sim/run_stats.hpp"
#include "sim/sc_config.hpp"
#include "sim/stream_bank.hpp"
#include "sim/stream_plan.hpp"

namespace acoustic::sim {

class ScNetwork {
 public:
  /// Borrowing form.
  /// @param net trained network; must outlive this object. Weighted layers
  ///            are located with their surrounding ReLU / pooling layers
  ///            and executed stochastically. Weights are read live: every
  ///            forward compares each stage's weights (BN-folded where a
  ///            BatchNorm is absorbed) against its held table in one pass,
  ///            so retraining between forward() calls is allowed.
  /// @param shared weight-plan store to share with sibling clones (see
  ///            shared_plans()); nullptr creates a fresh one.
  ScNetwork(nn::Network& net, ScConfig cfg,
            std::shared_ptr<WeightPlanStore> shared = nullptr);

  /// Owning form: takes @p snapshot and offers no mutable way back to it,
  /// so its weights never change. Each stage checks them against the
  /// store once per schedule (input size); after that a forward reuses the
  /// held table in O(1), with no fold and no compare. Debug builds still
  /// compare every forward and assert the table holds. Otherwise
  /// bit-identical to the borrowing form over equal weights.
  ScNetwork(nn::Network&& snapshot, ScConfig cfg,
            std::shared_ptr<WeightPlanStore> shared = nullptr);

  /// An owning executor over a snapshot of this executor's network (its
  /// weights as they are now), with the same config and store: fresh
  /// scratch, zeroed stats, no profiler.
  [[nodiscard]] ScNetwork clone() const;

  /// The weight-plan store this executor draws from. Pass it to the
  /// ScNetwork of a clone (built with the same config) so each stage's
  /// product table is built once across all workers. The store is
  /// thread-safe, and a table is a pure function of the config, schedule
  /// and weight codes, so sharing cannot change bits.
  [[nodiscard]] const std::shared_ptr<WeightPlanStore>& shared_plans()
      const noexcept {
    return wgt_plans_;
  }

  /// Builds every weighted stage's product table for inputs of shape
  /// @p input into the shared store, all stages at once on @p pool, and
  /// returns how many tables it built (0 when the store already held them
  /// all, or in scalar mode). Stages are keyed exactly as forward_into()
  /// keys them, so a later forward of that shape (here or on any clone)
  /// finds its tables built; another shape still re-keys lazily. Holds
  /// nothing itself. The walk stops at a stage the forward would reject
  /// and leaves the error to the forward; a pooling window the stream is
  /// too short for throws the forward's error.
  std::uint64_t prepare(const nn::Shape& input, runtime::ThreadPool& pool);

  /// Bit-level inference. Input values must lie in [0, 1].
  [[nodiscard]] nn::Tensor forward(const nn::Tensor& input) {
    nn::Tensor out;
    forward_into(input, out);
    return out;
  }

  /// Allocation-free inference: writes the logits into @p out, reusing its
  /// capacity. All per-forward scratch comes from an internal arena sized
  /// by the first call (the warm-up); once the arena and the ping-pong
  /// activation buffers have grown to the network's high-water mark, a
  /// steady-state planned forward performs no heap allocation at all
  /// (asserted by tests/sim/alloc_test.cpp). Bit-identical to forward().
  void forward_into(const nn::Tensor& input, nn::Tensor& out);

  /// Per-forward work counters (samples counts forward calls).
  using Stats = RunStats;

  /// Cumulative statistics since construction (or reset_stats() /
  /// take_stats()). forward() accumulates into per-run locals and folds
  /// them in once per call, so stats_ is never touched on the hot path.
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = Stats{}; }

  /// Returns the accumulated statistics and resets them — the per-run
  /// read-out the batch evaluator uses to merge clone stats race-free.
  [[nodiscard]] Stats take_stats() noexcept {
    const Stats out = stats_;
    stats_ = Stats{};
    return out;
  }

  [[nodiscard]] const ScConfig& config() const noexcept { return cfg_; }

  /// Plan-invariant verification (rule "plan-invariant"): for every stage
  /// that has executed, checks the schedule's slot coverage and word-offset
  /// bounds, and re-derives the held ProductTable from the live weights'
  /// sign phases and levels — extents, group prefix sums, gated counts,
  /// slot lists, bitmaps, and sampled entry words against regeneration
  /// (sim/plan_check). Run at least one forward() first; stages that have
  /// not executed are skipped, and a retrain in between legitimately
  /// reports the stale table. Findings anchor at "<layer name>/...". The
  /// store runs the same table checker after every build in debug builds.
  [[nodiscard]] core::Report validate_plans();

  /// Enables per-stage profiling: every forward() records one
  /// category-"layer" span per stage (name = weighted layer, kind =
  /// conv/conv+pool/dense, counters = product_bits / skipped_operands
  /// deltas) on timeline lane @p track. Pass nullptr to disable. The
  /// profiler must outlive this object; it may be shared across clones
  /// running on different threads (obs::Profiler::record is
  /// thread-safe).
  void set_profiler(obs::Profiler* profiler, std::uint32_t track = 0) noexcept {
    profiler_ = profiler;
    track_ = track;
  }

 private:
  /// Per-stage reusable executor state. The activation stream plan is a
  /// per-image table, but its allocation depends only on (lanes, schedule)
  /// — fixed across images of one evaluation — so the plan object is kept
  /// and rebuilt in place (build() overwrites every lane).
  struct StageScratch {
    std::unique_ptr<LayerStreamPlan> act_plan;
    /// The stage's shared product table, as last handed out by the store
    /// (see weight_table()). No folded copy of the weights is kept: the
    /// borrowing form compares the live weights against the floats the
    /// table encodes with the BatchNorm scale applied on the fly, and only
    /// a store consult folds, into a transient buffer.
    std::shared_ptr<const ProductTable> table;
  };

  /// Both constructors' body: lowers @p net and attaches the store.
  void init(nn::Network& net, ScConfig cfg,
            std::shared_ptr<WeightPlanStore> shared);

  void run_conv(const LoweredOp& op, std::size_t op_idx,
                const nn::Tensor& input, nn::Tensor& out, Stats& run);
  void run_conv_scalar(const LoweredOp& op, const nn::Tensor& input,
                       nn::Tensor& out, Stats& run);
  void run_conv_planned(const LoweredOp& op, std::size_t op_idx,
                        const nn::Tensor& input, nn::Tensor& out, Stats& run);
  void run_dense(const LoweredOp& op, std::size_t op_idx,
                 const nn::Tensor& input, nn::Tensor& out, Stats& run);
  /// Runs the node's projection conv stochastically over the saved skip
  /// tensor (saved = proj(saved)); the main-path activation is untouched.
  void run_skip_project(const LoweredOp& op, std::size_t op_idx, Stats& run);
  /// Bit-serial stochastic max pooling (MaxPoolMode::kStochastic): each
  /// window runs a tournament of the kernel table's max_stream FSM over
  /// streams regenerated from the activation bank. Deliberately serial —
  /// the FSM's counter is sequential state — so the result is invariant
  /// across thread counts, exec modes and SIMD levels by construction.
  void run_max_pool_sc(const LoweredOp& op, const nn::Tensor& input,
                       nn::Tensor& out, Stats& run);

  /// The pool that shards this layer's rows/neurons, or nullptr for
  /// serial execution — when the config asks for it, or when auto mode
  /// (intra_threads == 0) gates a layer whose estimated word-level work
  /// @p work_words falls below ScConfig::intra_work_threshold: forking
  /// workers costs more than small layers save (the recorded LeNet-small
  /// regression). When the forward already runs on a work-stealing pool
  /// worker (a batch-evaluator image task) this returns THAT pool — the
  /// row subtasks become nested jobs idle workers can steal — and the
  /// private pool_ below is only created for direct forward() callers.
  [[nodiscard]] runtime::ThreadPool* intra_pool(std::size_t work_words);

  /// Shared activation SNG bank for the planned path. A bank's content is
  /// a pure function of the config, so one bank serves every stage (the
  /// scalar oracle keeps constructing per-layer banks with identical
  /// content). The weight bank is the store's: wgt_plans_->bank().
  [[nodiscard]] StreamBank& activation_bank();

  /// The stage's product table from the shared store. The executor goes
  /// back to the store only when the schedule changed (a new input size)
  /// or, in the borrowing form, when the stage's live weights differ
  /// bitwise from the ones the held table encodes (retraining). The owning
  /// form returns the held table for its schedule without looking at the
  /// weights. Across a whole evaluation each stage builds once. The build's
  /// kernel bits are amortized capital cost and excluded from per-run
  /// stats (stats stay a pure function of the sample set).
  [[nodiscard]] const ProductTable& weight_table(std::size_t stage_idx,
                                                 const SegmentSchedule& sched,
                                                 const WeightMap& map,
                                                 runtime::ThreadPool* pool);

  /// The owning form's snapshot; nullptr in the borrowing form.
  std::unique_ptr<nn::Network> owned_;
  /// The executed network: *owned_, or the borrowed one.
  nn::Network* net_ = nullptr;
  ScConfig cfg_;
  std::vector<LoweredOp> ops_;
  Stats stats_;
  /// Per-forward bump allocator: reset at the top of forward_into(), grown
  /// to its high-water mark by the warm-up calls, allocation-free after.
  runtime::ScratchArena arena_;
  /// Ping-pong activation buffers the stages alternate between; resize()
  /// reuses their capacity once the largest stage output has been seen.
  nn::Tensor buf_a_;
  nn::Tensor buf_b_;
  /// Skip-projection output staging (swapped into SkipState::saved), kept
  /// out of the main-path ping-pong so a projection cannot clobber the
  /// live activation.
  nn::Tensor skip_buf_;
  std::vector<StageScratch> stage_scratch_;
  /// Fallback intra-image pool for forwards NOT running inside an
  /// enclosing work-stealing pool (direct forward() calls, latency
  /// benches); see intra_pool().
  std::unique_ptr<runtime::ThreadPool> pool_;
  std::unique_ptr<StreamBank> act_bank_;
  std::shared_ptr<WeightPlanStore> wgt_plans_;
  obs::Profiler* profiler_ = nullptr;
  std::uint32_t track_ = 0;
};

}  // namespace acoustic::sim
