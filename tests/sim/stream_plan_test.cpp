// Unit tests for the packed per-layer stream plan: slot layout, bit
// identity of planned segments against direct StreamBank generation, the
// byte-budget fallback, counter accounting, and the shared store of
// per-stage product tables.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
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
  EXPECT_EQ(by_sched->words.size(), full.positions * by_sched->total);
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

/// One stage of a multi-stage store test: its key and weights.
struct StageCase {
  SegmentSchedule sched;
  WeightMap map;
  std::vector<float> weights;
};

/// Weights for @p count slots: both signs, level-0 magnitudes, zeros and a
/// NaN, in a fixed pseudo-random order.
std::vector<float> varied_weights(std::size_t count, std::uint32_t salt) {
  std::vector<float> w(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t h =
        static_cast<std::uint32_t>(i * 2654435761u) ^ (salt * 40503u);
    const float mag = static_cast<float>(h % 1000) / 1000.0f;
    w[i] = h % 7 == 0 ? 0.0f : (h % 3 == 0 ? -mag : mag * 0.01f * (h % 5));
  }
  w[count / 2] = std::numeric_limits<float>::quiet_NaN();
  return w;
}

/// Stages big enough that build_product_table shards its channel passes
/// and its fill: a grouped 3x3 conv under a pooled schedule, a multi-word
/// full-phase conv and a dense head.
std::vector<StageCase> prepare_cases(const ScConfig& cfg) {
  const std::size_t phase = cfg.phase_length();
  std::vector<StageCase> cases;
  // conv3x3, 64 -> 96 channels in 2 groups: slots 9 * 64, 288 weights each.
  const WeightMap grouped{96, 9 * 64, 64, 32, 48, 9 * 32};
  cases.push_back({SegmentSchedule{phase, 4, phase / 4}, grouped,
                   varied_weights(96 * 9 * 32, 1)});
  // conv3x3, 32 -> 80 channels, one full-phase segment of several words.
  const WeightMap plain{80, 9 * 32, 32, 32, 80, 9 * 32};
  cases.push_back({SegmentSchedule{phase, 1, phase}, plain,
                   varied_weights(80 * 9 * 32, 2)});
  cases.push_back({SegmentSchedule{phase, 1, phase}, WeightMap::dense(10, 300),
                   varied_weights(10 * 300, 3)});
  return cases;
}

void expect_same_table(const ProductTable& a, const ProductTable& b) {
  EXPECT_EQ(a.sched, b.sched);
  EXPECT_EQ(a.map, b.map);
  ASSERT_EQ(a.weights.size(), b.weights.size());
  EXPECT_EQ(std::memcmp(a.weights.data(), b.weights.data(),
                        a.weights.size() * sizeof(float)),
            0);
  EXPECT_EQ(a.group_off, b.group_off);
  EXPECT_EQ(a.gated, b.gated);
  EXPECT_EQ(a.slot_of, b.slot_of);
  EXPECT_EQ(a.lane_of, b.lane_of);
  EXPECT_EQ(a.group_bm, b.group_bm);
  EXPECT_EQ(a.words, b.words);
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.bm_words, b.bm_words);
  EXPECT_EQ(a.has_words, b.has_words);
}

/// Every worker reads a table in its hot loop: the table and each of its
/// arrays must start on a cache line of their own.
void expect_line_aligned(const ProductTable& t) {
  const auto line = [](const void* p) {
    return reinterpret_cast<std::uintptr_t>(p) % 64 == 0;
  };
  EXPECT_TRUE(line(&t));
  EXPECT_TRUE(line(t.weights.data()));
  EXPECT_TRUE(line(t.group_off.data()));
  EXPECT_TRUE(line(t.gated.data()));
  EXPECT_TRUE(line(t.slot_of.data()));
  EXPECT_TRUE(line(t.lane_of.data()));
  EXPECT_TRUE(line(t.group_bm.data()));
  EXPECT_TRUE(line(t.words.data()));
}

TEST(WeightPlanStoreTest, EntriesHoldTheirOwnSignPhaseOnly) {
  // A table stores each live weight's stream in its own sign phase only,
  // as [k][entry][word]. Every served segment must equal a direct bank
  // fill at offset(own phase, k), under pooled and full-phase schedules
  // whose segments end inside a word or span several words.
  struct Case {
    std::size_t stream;
    std::size_t positions;
  };
  // phase 50: seg 50 and 12 (partial word); phase 520: seg 520 and 130
  // (several words, partial last word).
  const Case cases[] = {{100, 1}, {100, 4}, {1040, 1}, {1040, 4}};
  // A grouped 3x3 conv (12 outputs in 2 groups over 8 inputs) and a dense
  // layer.
  const WeightMap maps[] = {WeightMap{12, 9 * 8, 8, 4, 6, 9 * 4},
                            WeightMap::dense(6, 40)};
  for (const Case& c : cases) {
    ScConfig cfg;
    cfg.stream_length = c.stream;
    const std::size_t phase = cfg.phase_length();
    const SegmentSchedule sched{phase, c.positions, phase / c.positions};
    for (std::size_t m = 0; m < 2; ++m) {
      const WeightMap& map = maps[m];
      const std::vector<float> weights = varied_weights(
          map.outputs * map.w_per_oc, static_cast<std::uint32_t>(m + 5));
      WeightPlanStore store(cfg, 1);
      const auto tbl = store.get(0, sched, map, weights, 0, nullptr);
      SCOPED_TRACE("stream " + std::to_string(c.stream) + " positions " +
                   std::to_string(c.positions) + " map " + std::to_string(m));
      ASSERT_TRUE(tbl->has_words);
      const std::size_t seg_words = sched.seg_words();
      EXPECT_EQ(tbl->words.size(), sched.positions * tbl->total * seg_words);
      // Both phases hold live entries, so both halves are exercised.
      ASSERT_GT(tbl->group_off[map.outputs], 0u);
      ASSERT_LT(tbl->group_off[map.outputs], tbl->total);
      std::vector<std::uint64_t> want(seg_words);
      for (std::size_t g = 0; g < tbl->groups(); ++g) {
        const bool positive = tbl->positive_group(g);
        for (std::size_t k = 0; k < sched.positions; ++k) {
          const std::uint64_t* served = tbl->group_words(k, g);
          for (std::size_t e = tbl->group_off[g]; e < tbl->group_off[g + 1];
               ++e, served += seg_words) {
            const std::uint32_t lane = tbl->lane_of[e];
            store.bank().fill(weight_code(store.bank(), weights[lane]).level,
                              lane, sched.offset(positive, k), sched.seg,
                              want);
            ASSERT_EQ(std::memcmp(served, want.data(),
                                  seg_words * sizeof(std::uint64_t)),
                      0)
                << "group " << g << " slot " << k << " entry " << e;
          }
        }
      }
      EXPECT_TRUE(
          check_product_table(*tbl, store.bank(), weights, "t", tbl->total)
              .clean());
    }
  }
}

TEST(WeightPlanStoreTest, PreparedTablesEqualLazyTables) {
  // The up-front build (ScNetwork::prepare) gets every stage inside one
  // parallel_for over stages, so each build's passes and fill run as
  // nested jobs next to the other stages'. The tables must equal the ones
  // a lazy serial get() builds, field for field and word for word, on any
  // pool size and under forced stealing.
  ScConfig cfg;
  cfg.stream_length = 384;  // phase 192: three words per full-phase slot
  const std::vector<StageCase> cases = prepare_cases(cfg);
  WeightPlanStore lazy(cfg, cases.size());
  std::vector<std::shared_ptr<const ProductTable>> want;
  for (std::size_t s = 0; s < cases.size(); ++s) {
    want.push_back(lazy.get(s, cases[s].sched, cases[s].map,
                            cases[s].weights, 0, nullptr));
    EXPECT_TRUE(check_product_table(*want[s], lazy.bank(), cases[s].weights,
                                    "lazy", want[s]->total)
                    .clean());
  }

  const unsigned saved = runtime::ThreadPool::task_jitter_us();
  runtime::ThreadPool::set_task_jitter_us(50);
  for (const unsigned threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(threads);
    runtime::ThreadPool pool(threads);
    WeightPlanStore prepared(cfg, cases.size());
    pool.parallel_for(cases.size(), [&](std::size_t s, unsigned /*worker*/) {
      (void)prepared.get(s, cases[s].sched, cases[s].map, cases[s].weights, 0,
                         &pool);
    });
    EXPECT_EQ(prepared.builds(), cases.size());
    for (std::size_t s = 0; s < cases.size(); ++s) {
      SCOPED_TRACE(s);
      // Same key: served from the store, not rebuilt.
      const auto got = prepared.get(s, cases[s].sched, cases[s].map,
                                    cases[s].weights, 0, nullptr);
      expect_same_table(*got, *want[s]);
      expect_line_aligned(*got);
      EXPECT_TRUE(check_product_table(*got, prepared.bank(), cases[s].weights,
                                      "prepared", got->total)
                      .clean());
    }
    EXPECT_EQ(prepared.builds(), cases.size());
  }
  runtime::ThreadPool::set_task_jitter_us(saved);
}

}  // namespace
}  // namespace acoustic::sim
