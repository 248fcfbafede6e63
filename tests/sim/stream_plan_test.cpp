// Unit tests for the packed per-layer stream plan: slot layout, bit
// identity of planned segments against direct StreamBank generation, the
// byte-budget fallback, counter accounting, and the shared store of
// per-stage product tables.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "runtime/thread_pool.hpp"
#include "sim/plan_check.hpp"
#include "sim/stream_plan.hpp"

namespace acoustic::sim {
namespace {

std::vector<std::uint32_t> ramp_levels(std::size_t lanes,
                                       std::uint32_t max_level) {
  std::vector<std::uint32_t> levels(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    // Mix of zero (operand-gated) and nonzero lanes.
    levels[i] = static_cast<std::uint32_t>((i * 37) % (max_level + 1));
  }
  return levels;
}

TEST(SegmentScheduleTest, SlotLayout) {
  const SegmentSchedule sched{64, 4, 16};
  EXPECT_EQ(sched.seg_words(), 1u);
  EXPECT_EQ(sched.slots(), 8u);
  EXPECT_EQ(sched.words_per_lane(), 8u);
  EXPECT_EQ(sched.offset(true, 0), 0u);
  EXPECT_EQ(sched.offset(true, 3), 48u);
  EXPECT_EQ(sched.offset(false, 0), 64u);
  EXPECT_EQ(sched.offset(false, 3), 112u);
  EXPECT_EQ(sched.slot_index(true, 2), 2u);
  EXPECT_EQ(sched.slot_index(false, 2), 6u);
}

/// Every planned segment must equal a direct word-parallel fill of the
/// same (level, lane, offset) window — the core bit-identity contract.
void expect_plan_matches_fill(const SegmentSchedule& sched, unsigned width,
                              bool decorrelate) {
  StreamBank bank(width, 0xBEEF, 2 * sched.phase, decorrelate);
  const std::size_t lanes = 23;
  const auto levels =
      ramp_levels(lanes, (std::uint32_t{1} << width) - 1);

  LayerStreamPlan plan(bank, sched, lanes, 0);
  ASSERT_TRUE(plan.enabled());
  StreamPlanCounters counters;
  plan.build(levels, counters, nullptr);

  std::vector<std::uint64_t> want(sched.seg_words());
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    if (levels[lane] == 0) {
      EXPECT_FALSE(plan.planned(lane));
      continue;
    }
    ASSERT_TRUE(plan.planned(lane));
    for (const bool positive : {true, false}) {
      for (std::size_t k = 0; k < sched.positions; ++k) {
        bank.fill(levels[lane], static_cast<std::uint32_t>(lane),
                  sched.offset(positive, k), sched.seg, want);
        const std::uint64_t* got = plan.segment(lane, positive, k);
        for (std::size_t w = 0; w < sched.seg_words(); ++w) {
          ASSERT_EQ(got[w], want[w])
              << "lane " << lane << " positive " << positive << " k " << k
              << " word " << w << " decorrelate " << decorrelate;
        }
        EXPECT_EQ(got, plan.lane_words(lane) +
                           sched.slot_index(positive, k) * sched.seg_words());
      }
    }
  }
}

TEST(LayerStreamPlanTest, SegmentsMatchDirectFill) {
  expect_plan_matches_fill(SegmentSchedule{64, 4, 16}, 8, true);
  expect_plan_matches_fill(SegmentSchedule{64, 4, 16}, 8, false);
}

TEST(LayerStreamPlanTest, SegmentsMatchDirectFillUnevenAndMultiWord) {
  // seg not a multiple of 64 with a wasted tail (100 / 3 = 33 floored)...
  expect_plan_matches_fill(SegmentSchedule{100, 3, 33}, 10, true);
  // ...and multi-word segments straddling word boundaries.
  expect_plan_matches_fill(SegmentSchedule{512, 4, 128}, 11, true);
  expect_plan_matches_fill(SegmentSchedule{300, 2, 150}, 9, true);
}

TEST(LayerStreamPlanTest, PooledBuildIsIdenticalToSerial) {
  const SegmentSchedule sched{96, 4, 24};
  StreamBank bank(9, 0xACE5, 2 * sched.phase, true);
  const std::size_t lanes = 41;
  const auto levels = ramp_levels(lanes, 511);

  LayerStreamPlan serial(bank, sched, lanes, 0);
  LayerStreamPlan pooled(bank, sched, lanes, 0);
  StreamPlanCounters sc1;
  StreamPlanCounters sc2;
  serial.build(levels, sc1, nullptr);
  runtime::ThreadPool pool(3);
  pooled.build(levels, sc2, &pool);

  EXPECT_EQ(sc1.bits_generated, sc2.bits_generated);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    ASSERT_EQ(serial.planned(lane), pooled.planned(lane));
    if (!serial.planned(lane)) {
      continue;
    }
    for (std::size_t w = 0; w < sched.words_per_lane(); ++w) {
      ASSERT_EQ(serial.lane_words(lane)[w], pooled.lane_words(lane)[w])
          << "lane " << lane << " word " << w;
    }
  }
}

TEST(LayerStreamPlanTest, BuildCountsBitsOfLiveLanesOnly) {
  const SegmentSchedule sched{64, 2, 32};
  StreamBank bank(8, 0x1234, 2 * sched.phase, true);
  const std::vector<std::uint32_t> levels{100, 0, 200};
  LayerStreamPlan plan(bank, sched, levels.size(), 0);
  StreamPlanCounters counters;
  plan.build(levels, counters, nullptr);
  EXPECT_EQ(counters.bits_generated, 2u * 2 * sched.phase);  // 2 built lanes
  EXPECT_TRUE(plan.planned(0));
  EXPECT_FALSE(plan.planned(1));
  EXPECT_TRUE(plan.planned(2));
}

TEST(LayerStreamPlanTest, BudgetOverflowDisablesThePlan) {
  // An over-budget plan builds nothing; the executor then generates the
  // activation words on the fly (ScGolden.PlanBudgetFallbackMatchesScalar
  // holds that fallback to the scalar oracle bit for bit).
  const SegmentSchedule sched{64, 4, 16};
  StreamBank bank(8, 0x77, 2 * sched.phase, true);
  const std::vector<std::uint32_t> levels{10, 250, 77};
  const std::size_t bytes = plan_table_bytes(levels.size(), sched);
  EXPECT_TRUE(LayerStreamPlan(bank, sched, levels.size(), bytes).enabled());

  LayerStreamPlan plan(bank, sched, levels.size(), bytes - 1);
  EXPECT_FALSE(plan.enabled());
  StreamPlanCounters counters;
  plan.build(levels, counters, nullptr);  // no-op
  EXPECT_EQ(counters.bits_generated, 0u);
  for (std::size_t lane = 0; lane < levels.size(); ++lane) {
    EXPECT_FALSE(plan.planned(lane));
  }
}

/// Weights of a 2-output, 4-slot dense stage: a mix of positive,
/// negative, level-0 (gated) and sign-0 (zero and NaN) weights.
std::vector<float> mixed_weights() {
  return {0.02f, -0.001f, -0.04f, 0.8f,
          std::numeric_limits<float>::quiet_NaN(), -0.015f, 0.0f, 0.05f};
}

TEST(WeightPlanStoreTest, BuildsOncePerStageAndKeysOnLevels) {
  ScConfig cfg;
  cfg.stream_length = 128;
  cfg.sng_width = 8;
  WeightPlanStore store(cfg, 2);
  const SegmentSchedule sched{cfg.phase_length(), 4,
                              cfg.phase_length() / 4};
  const WeightMap map = WeightMap::dense(2, 4);
  const std::vector<float> weights = mixed_weights();

  const auto table1 = store.get(0, sched, map, weights, 0, nullptr);
  EXPECT_EQ(store.builds(), 1u);
  EXPECT_EQ(table1->gated[2], 1u);  // -0.001 (output 0, negative): level 0
  EXPECT_TRUE(check_product_table(*table1, store.bank(), weights, "t").clean());

  // Same key: the cached table is returned and nothing is rebuilt — also
  // for weights that differ bitwise but quantize to the same codes.
  const auto table2 = store.get(0, sched, map, weights, 0, nullptr);
  EXPECT_EQ(table1.get(), table2.get());
  std::vector<float> nudged = weights;
  nudged[0] = 0.0201f;  // level 5, like 0.02
  EXPECT_EQ(store.get(0, sched, map, nudged, 0, nullptr).get(), table1.get());
  EXPECT_EQ(store.builds(), 1u);

  // Changed level (retraining): rebuild, and the old table stays valid
  // for holders of the original shared_ptr.
  std::vector<float> retrained = weights;
  retrained[0] = 0.03f;
  const auto table3 = store.get(0, sched, map, retrained, 0, nullptr);
  EXPECT_NE(table1.get(), table3.get());
  EXPECT_EQ(store.builds(), 2u);
  EXPECT_EQ(table1->weights[0], weights[0]);

  // Distinct stages are independent slots.
  const auto table4 = store.get(1, sched, map, weights, 0, nullptr);
  EXPECT_NE(table4.get(), table2.get());
  EXPECT_EQ(store.builds(), 3u);
}

TEST(WeightPlanStoreTest, KeysOnSignPhaseAndSchedule) {
  ScConfig cfg;
  cfg.stream_length = 128;
  WeightPlanStore store(cfg, 1);
  const SegmentSchedule pooled{cfg.phase_length(), 4,
                               cfg.phase_length() / 4};
  const SegmentSchedule full{cfg.phase_length(), 1, cfg.phase_length()};
  const WeightMap map = WeightMap::dense(2, 4);
  const std::vector<float> weights = mixed_weights();
  const auto first = store.get(0, pooled, map, weights, 0, nullptr);

  // Equal magnitude, one weight moved to the other sign phase.
  std::vector<float> flipped = weights;
  flipped[0] = -flipped[0];
  const auto by_sign = store.get(0, pooled, map, flipped, 0, nullptr);
  EXPECT_NE(by_sign.get(), first.get());
  EXPECT_EQ(by_sign->group_off[1] - by_sign->group_off[0],
            first->group_off[1] - first->group_off[0] - 1);

  // Same weights under another schedule (an input size whose pool no
  // longer tiles): a table with the other slot layout.
  const auto by_sched = store.get(0, full, map, flipped, 0, nullptr);
  EXPECT_NE(by_sched.get(), by_sign.get());
  EXPECT_EQ(by_sched->words.size(), full.slots() * by_sched->total);
  EXPECT_EQ(store.builds(), 3u);
}

TEST(WeightPlanStoreTest, OverBudgetTableKeepsListsWithoutWords) {
  ScConfig cfg;
  cfg.stream_length = 128;
  WeightPlanStore store(cfg, 1);
  const SegmentSchedule sched{cfg.phase_length(), 1, cfg.phase_length()};
  const WeightMap map = WeightMap::dense(2, 4);
  const std::vector<float> weights = mixed_weights();
  const std::size_t bytes = plan_table_bytes(weights.size(), sched);
  const auto fits = store.get(0, sched, map, weights, bytes, nullptr);
  EXPECT_TRUE(fits->has_words);
  WeightPlanStore tight(cfg, 1);
  const auto over = tight.get(0, sched, map, weights, bytes - 1, nullptr);
  EXPECT_FALSE(over->has_words);
  EXPECT_TRUE(over->words.empty());
  EXPECT_EQ(over->slot_of, fits->slot_of);
  EXPECT_EQ(over->group_bm, fits->group_bm);
  EXPECT_EQ(over->gated, fits->gated);
  EXPECT_TRUE(check_product_table(*over, tight.bank(), weights, "t").clean());
}

TEST(WeightPlanStoreTest, ConcurrentFirstGetBuildsOnce) {
  // Every evaluator clone asks for the same stage at its first image. The
  // racers must all receive one artifact, built exactly once, and the
  // pooled build must not race with the readers (run under TSan in CI).
  ScConfig cfg;
  cfg.stream_length = 256;
  WeightPlanStore store(cfg, 1);
  const SegmentSchedule sched{cfg.phase_length(), 4,
                              cfg.phase_length() / 4};
  const WeightMap map = WeightMap::dense(16, 64);
  std::vector<float> weights(16 * 64);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const float mag = static_cast<float>((i * 37) % 256) / 256.0f;
    weights[i] = i % 3 == 0 ? -mag : mag;
  }
  runtime::ThreadPool pool(4);
  std::vector<std::shared_ptr<const ProductTable>> got(8);
  std::vector<std::uint64_t> sums(got.size(), 0);
  pool.parallel_for(got.size(), [&](std::size_t i, unsigned /*worker*/) {
    got[i] = store.get(0, sched, map, weights, 0, &pool);
    for (const std::uint64_t w : got[i]->words) {
      sums[i] += w;
    }
  });
  EXPECT_EQ(store.builds(), 1u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].get(), got[0].get());
    EXPECT_EQ(sums[i], sums[0]);
  }
  EXPECT_TRUE(
      check_product_table(*got[0], store.bank(), weights, "t", got[0]->total)
          .clean());
}

}  // namespace
}  // namespace acoustic::sim
