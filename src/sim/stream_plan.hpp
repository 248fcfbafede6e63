// Packed per-layer stream plans for the SC functional simulator.
//
// Profiling the bit-level executor shows nearly all forward wall time in
// stream generation: run_conv regenerates the stream segment of every
// weight lane for every output position, although the segment for weight
// index wi at a given (sign phase, pooling-window slot) is invariant
// across all H x W output positions; activation segments are likewise
// regenerated for every overlapping receptive field that touches a pixel.
//
// A LayerStreamPlan materializes those segments once per layer with the
// word-parallel StreamBank kernel and serves them as packed 64-bit words,
// so the per-output inner loop degenerates to AND/OR over words it never
// regenerates. Plans are pure functions of (bank, schedule, levels), so
// serving a planned segment is bit-identical to regenerating it — the
// golden equivalence suite (tests/sim/sc_golden_test.cpp) pins that down.
// The executor uses one per stage for the activations, rebuilt per image.
//
// The weight side is a ProductTable: the same segments for every live
// weight in its own sign phase, grouped by (sign phase, output) in the
// order the datapath reads them, built once per stage and shared
// read-only by every executor clone through a WeightPlanStore.
//
// Memory is bounded: a table that would exceed its byte budget is not
// materialized, and the executor generates those segments on the fly
// (counted as plan misses). Both paths produce identical bits.
#pragma once

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "sim/sc_config.hpp"
#include "sim/stream_bank.hpp"

namespace acoustic::runtime {
class ThreadPool;
}

namespace acoustic::sim {

/// The segment timetable one weighted layer runs on: two sign phases
/// (split-unipolar + / -) of @ref phase bits, each divided into
/// @ref positions pooling-window slots of @ref seg bits (computation
/// skipping, paper II-C). positions == 1 degenerates to one full-phase
/// segment per sign.
struct SegmentSchedule {
  std::size_t phase = 0;      ///< bits per sign phase
  std::size_t positions = 1;  ///< pooling-window slots per phase
  std::size_t seg = 0;        ///< bits per slot (phase / positions, floored)

  [[nodiscard]] std::size_t seg_words() const noexcept {
    return (seg + 63) / 64;
  }
  /// Slots per lane across both sign phases.
  [[nodiscard]] std::size_t slots() const noexcept { return 2 * positions; }
  /// Packed words a planned lane occupies.
  [[nodiscard]] std::size_t words_per_lane() const noexcept {
    return slots() * seg_words();
  }
  /// Stream-bank bit offset of slot @p k in the given sign phase — the
  /// same mapping ScNetwork::run_conv uses: the negative phase replays the
  /// slot layout one full phase later.
  [[nodiscard]] std::size_t offset(bool positive, std::size_t k) const noexcept {
    return (positive ? 0 : phase) + k * seg;
  }
  /// Dense index of (positive, k) into a lane's slot table.
  [[nodiscard]] std::size_t slot_index(bool positive,
                                       std::size_t k) const noexcept {
    return (positive ? 0 : positions) + k;
  }

  bool operator==(const SegmentSchedule&) const = default;
};

/// Counters a plan reports into ScNetwork's per-run stats. All additive.
struct StreamPlanCounters {
  std::uint64_t bits_generated = 0;  ///< comparator bits the SNG kernel ran
  std::uint64_t bits_reused = 0;     ///< segment bits served from the plan
  std::uint64_t plan_hits = 0;       ///< segment fetches served from the plan
  std::uint64_t plan_misses = 0;     ///< fetches generated on the fly
};

/// Per-layer table of precomputed stream segments for a dense lane id
/// space (weight index or activation index). Thread-safety: build() must
/// complete before concurrent reads; after that the plan is read-only and
/// safe to share across row workers.
class LayerStreamPlan {
 public:
  /// @param bank   the SNG bank the lanes draw from; must outlive the plan.
  /// @param sched  the layer's segment timetable.
  /// @param lanes  size of the dense lane id space.
  /// @param budget_bytes table budget; a plan whose plan_table_bytes()
  ///        exceeds it disables itself (the caller generates its segments
  ///        on the fly). 0 = unlimited.
  LayerStreamPlan(const StreamBank& bank, const SegmentSchedule& sched,
                  std::size_t lanes, std::size_t budget_bytes);

  /// Generates all slots of every lane with levels[lane] != 0 (a zero
  /// level is operand-gated — dead — and never fetched). No-op when the
  /// plan is disabled. @p pool, when non-null, shards the build across
  /// lanes (disjoint writes, deterministic content).
  void build(std::span<const std::uint32_t> levels,
             StreamPlanCounters& counters,
             runtime::ThreadPool* pool = nullptr);

  /// True when the table fits the budget and build() will populate it.
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// True when @p lane was built with a nonzero level.
  [[nodiscard]] bool planned(std::size_t lane) const noexcept {
    return enabled_ && built_[lane] != 0;
  }

  /// Planned-entry accessor. Precondition: planned(lane).
  [[nodiscard]] const std::uint64_t* segment(std::size_t lane, bool positive,
                                             std::size_t k) const noexcept {
    return lane_words(lane) + sched_.slot_index(positive, k) * sched_.seg_words();
  }

  /// First packed word of @p lane's slot table — the hot-loop entry point:
  /// callers hoist this base pointer and index slots as
  /// `lane_words(lane)[slot_index * seg_words() + w]`.
  /// Precondition: planned(lane).
  [[nodiscard]] const std::uint64_t* lane_words(std::size_t lane) const noexcept {
    return words_.data() + lane * sched_.words_per_lane();
  }

  [[nodiscard]] const SegmentSchedule& schedule() const noexcept {
    return sched_;
  }
  [[nodiscard]] std::size_t lanes() const noexcept { return lanes_; }

 private:
  const StreamBank* bank_;
  SegmentSchedule sched_;
  std::size_t lanes_;
  bool enabled_;
  std::vector<std::uint64_t> words_;
  std::vector<char> built_;
  /// Serial build()'s lane buffer, retained so a rebuilt plan (the
  /// per-image activation plan) allocates nothing after its first build.
  std::vector<std::uint64_t> build_buf_;
};

/// Maps (output, receptive-field slot) to the weight that connects them. A
/// conv's slots are its kernel x kernel x in_channels gather positions,
/// and a grouped conv leaves cross-group pairs unconnected. A dense layer
/// is the degenerate case of one group whose slots are its inputs.
struct WeightMap {
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  std::size_t outputs = 0;       ///< output channels (dense: neurons)
  std::size_t slots = 0;         ///< receptive-field slots per output
  std::size_t in_c = 0;          ///< input channels (dense: inputs)
  std::size_t cpg = 0;           ///< input channels per group
  std::size_t oc_per_group = 0;  ///< outputs per group
  std::size_t w_per_oc = 0;      ///< weights per output

  /// A dense layer's map: weight index o * inputs + i.
  [[nodiscard]] static WeightMap dense(std::size_t outputs,
                                       std::size_t inputs) noexcept {
    return {outputs, inputs, inputs, inputs, outputs, inputs};
  }

  /// Weight index of (oc, slot), or kNone when the slot's input channel
  /// lies outside oc's group. Equals oc * slots + slot when ungrouped.
  [[nodiscard]] std::size_t weight(std::size_t oc,
                                   std::size_t slot) const noexcept {
    const std::size_t ic = slot % in_c;
    const std::size_t rel = ic - (oc / oc_per_group) * cpg;
    if (rel >= cpg) {  // unsigned wrap also catches ic < group base
      return kNone;
    }
    return oc * w_per_oc + (slot / in_c) * cpg + rel;
  }

  bool operator==(const WeightMap&) const = default;
};

/// One weight's place in the split-unipolar schedule: its quantized
/// magnitude and the sign phase it counts in. Zero and NaN weights are
/// active in neither phase (sign 0), exactly like the scalar oracle's
/// `w > 0` / `w < 0` predicates.
struct WeightCode {
  std::uint32_t level = 0;
  std::int32_t sign = 0;  ///< +1 positive phase, -1 negative, 0 neither

  bool operator==(const WeightCode&) const = default;
};

/// The code of weight @p w: |w| quantized by @p bank, and its sign phase.
[[nodiscard]] inline WeightCode weight_code(const StreamBank& bank, float w) {
  return {bank.quantize(std::fabs(w)), w > 0.0f ? 1 : (w < 0.0f ? -1 : 0)};
}

/// Bytes of a packed table holding every slot of @p lanes lanes in both
/// sign phases: a LayerStreamPlan's table, and twice a ProductTable's
/// words at their worst case (every weight live; the table stores only
/// each entry's own phase). The executor and the static analyzer both
/// budget a stage with this figure, so a stage falls back to on-the-fly
/// streams exactly when the analyzer says it does. It depends on the
/// geometry alone, so retraining never flips the decision.
[[nodiscard]] inline std::size_t plan_table_bytes(
    std::size_t lanes, const SegmentSchedule& sched) noexcept {
  return lanes * sched.words_per_lane() * sizeof(std::uint64_t);
}

/// True when a table of @p bytes fits @p budget_bytes (0 = unlimited).
[[nodiscard]] inline bool within_plan_budget(std::size_t bytes,
                                             std::size_t budget_bytes) noexcept {
  return budget_bytes == 0 || bytes <= budget_bytes;
}

/// The allocator of a ProductTable's arrays. Every worker reads a table
/// in its hot loop, so each array starts on its own cache line and is
/// padded to whole lines: no data another thread writes can share a line
/// with it. (Tables built in the evaluator's setup sat next to the
/// clones' later per-image scratch in the workers' heaps; on a 4-CPU
/// host the false sharing cost ~15% of cifar-warm-eval throughput.)
/// construct() without a value default-initialises, so resize() leaves
/// scalars unwritten and the (parallel) pass that fills the array first
/// touches its pages.
template <typename T>
struct TableAllocator : std::allocator<T> {
  static constexpr std::size_t kLine = 64;

  using value_type = T;
  template <typename U>
  struct rebind {
    using other = TableAllocator<U>;
  };
  TableAllocator() = default;
  template <typename U>
  TableAllocator(const TableAllocator<U>& /*other*/) noexcept {}

  T* allocate(std::size_t n) {
    const std::size_t bytes = (n * sizeof(T) + kLine - 1) / kLine * kLine;
    return static_cast<T*>(::operator new(bytes, std::align_val_t{kLine}));
  }
  void deallocate(T* p, std::size_t /*n*/) noexcept {
    ::operator delete(p, std::align_val_t{kLine});
  }

  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    if constexpr (sizeof...(Args) == 0) {
      ::new (static_cast<void*>(p)) U;
    } else {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  }
};

/// A ProductTable array (see TableAllocator).
template <typename T>
using TableVector = std::vector<T, TableAllocator<T>>;

/// The immutable weight side of one weighted stage, in the order the
/// datapath reads it. Weights are grouped by (sign phase, output): group
/// `ph * outputs + oc`, ph 0 = positive. A group's entries are its live
/// weights (nonzero sign and level) in slot order; a weight whose sign is
/// live but whose level quantized to zero is counted in `gated` instead.
/// Every group's slots are also set in a bitmap, so a row body counts its
/// live products with popcounts instead of per-entry branches.
///
/// `words` holds each entry's stream segments in its own sign phase only,
/// as [phase-local slot k][entry][word]: split-unipolar gives a live
/// weight a stream in one phase, and its other phase is all zeros that no
/// reader fetches. The entries of one group are sequential loads per
/// window slot, and an entry's phase follows from its index (entries from
/// group_off[outputs] on are negative). `words` stays empty when
/// plan_table_bytes() over all weights exceeds the plan budget; the
/// executor then fills live entries' words from the bank on the fly.
struct alignas(TableAllocator<char>::kLine) ProductTable {
  SegmentSchedule sched;
  WeightMap map;
  /// The float weights the table encodes: the source of its cache key
  /// (their codes) and of each entry's level.
  TableVector<float> weights;
  TableVector<std::uint32_t> group_off;  ///< exclusive prefix, groups + 1
  TableVector<std::uint32_t> gated;      ///< level-0 weights per group
  TableVector<std::uint32_t> slot_of;    ///< entry -> receptive-field slot
  TableVector<std::uint32_t> lane_of;    ///< entry -> weight index (lane)
  TableVector<std::uint64_t> group_bm;   ///< [group][bm_words] slot bitmap
  TableVector<std::uint64_t> words;      ///< [k][entry][word] or empty
  std::size_t total = 0;                 ///< entries across all groups
  std::size_t bm_words = 0;
  bool has_words = false;  ///< words fit the budget and were built

  [[nodiscard]] std::size_t groups() const noexcept { return 2 * map.outputs; }
  /// True when @p group counts in the positive sign phase.
  [[nodiscard]] bool positive_group(std::size_t group) const noexcept {
    return group < map.outputs;
  }
  /// First word of @p group's entries at window slot @p k of the group's
  /// own sign phase. Precondition: has_words.
  [[nodiscard]] const std::uint64_t* group_words(
      std::size_t k, std::size_t group) const noexcept {
    return words.data() + (k * total + group_off[group]) * sched.seg_words();
  }
};

/// Thread-safe store of the per-stage product tables, shared by every
/// clone of an ScNetwork. A table is a pure function of (bank, schedule,
/// weight map, weight codes), so the store builds each stage's table once
/// no matter how many evaluator workers run, and clones after the first
/// get it for free. The store owns the weight SNG bank the tables draw
/// from, so a handed-out table never outlives its bank.
///
/// The cache key is the schedule, the map and the weights' codes: retraining
/// that changes any weight's level or sign phase, or an input size that
/// changes the fused pool's schedule, triggers a rebuild; bitwise-equal
/// weights match with one memcmp. The superseded table stays alive for
/// readers still holding it (shared_ptr swap).
class WeightPlanStore {
 public:
  /// @param cfg    bank parameters (width, weight seed, phase, wiring).
  /// @param stages number of weighted stages (one table slot each).
  WeightPlanStore(const ScConfig& cfg, std::size_t stages);

  /// The table for @p stage under @p sched, @p map and the codes of
  /// @p weights, building it if absent or keyed differently. The build
  /// runs under the stage's mutex; @p pool, when non-null, shards its
  /// per-channel passes and its word fill (nested jobs when the caller is
  /// one of the pool's workers, so builds of several stages run at once).
  [[nodiscard]] std::shared_ptr<const ProductTable> get(
      std::size_t stage, const SegmentSchedule& sched, const WeightMap& map,
      std::span<const float> weights, std::size_t budget_bytes,
      runtime::ThreadPool* pool);

  /// The weight bank every table draws from.
  [[nodiscard]] const StreamBank& bank() const noexcept { return bank_; }

  /// Tables built since construction, across all stages.
  [[nodiscard]] std::uint64_t builds() const noexcept {
    return builds_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    std::mutex mu;
    std::shared_ptr<const ProductTable> table;
  };

  StreamBank bank_;
  std::vector<std::unique_ptr<Entry>> entries_;
  std::atomic<std::uint64_t> builds_{0};
};

}  // namespace acoustic::sim
