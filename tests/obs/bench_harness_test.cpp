// obs bench harness: robust statistics, the bench.v1 schema round trip,
// and the MAD-based compare semantics that gate CI — including the
// ACOUSTIC_BENCH_SLOWDOWN hook that lets the whole pipeline be tested
// with a real, controlled regression.
#include "obs/bench_harness.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

namespace acoustic {
namespace {

TEST(BenchStats, RobustSummary) {
  // One wild outlier (a descheduled iteration): the median and MAD must
  // shrug it off; the mean and p95/min must see it.
  const obs::BenchStats s =
      obs::summarize({10.0, 11.0, 9.0, 10.0, 12.0, 10.0, 500.0});
  EXPECT_EQ(s.iters, 7u);
  EXPECT_DOUBLE_EQ(s.median, 10.0);
  EXPECT_DOUBLE_EQ(s.mad, 1.0);  // |x - 10| = {0,0,0,1,1,2,490} medians to 1
  EXPECT_DOUBLE_EQ(s.min, 9.0);
  EXPECT_GT(s.mean, 70.0);
  EXPECT_GT(s.p95, 12.0);  // interpolated toward the outlier
  EXPECT_LE(s.p95, 500.0);
}

TEST(BenchStats, EmptyAndSingle) {
  EXPECT_EQ(obs::summarize({}).iters, 0u);
  const obs::BenchStats one = obs::summarize({42.0});
  EXPECT_EQ(one.iters, 1u);
  EXPECT_DOUBLE_EQ(one.median, 42.0);
  EXPECT_DOUBLE_EQ(one.mad, 0.0);
}

TEST(BenchHarness, RunProducesEntries) {
  obs::BenchOptions opt;
  opt.warmup = 1;
  opt.iters = 4;
  opt.counters = false;
  opt.settle_ms = 0;
  obs::Bench bench("test_suite", opt);
  int calls = 0;
  bench.run("work", [&calls] { ++calls; });
  EXPECT_EQ(calls, 5);  // warmup + iters

  bench.run_value("rate", "img/s", /*lower_is_better=*/false,
                  [] { return 100.0; });
  bench.record("accuracy", 98.5, "percent", /*lower_is_better=*/false);

  const obs::BenchDocument& doc = bench.document();
  EXPECT_EQ(doc.schema, "bench.v1");
  EXPECT_EQ(doc.suite, "test_suite");
  ASSERT_EQ(doc.entries.size(), 3u);
  EXPECT_EQ(doc.entries[0].stats.iters, 4u);
  EXPECT_EQ(doc.entries[0].unit, "us");
  EXPECT_TRUE(doc.entries[0].lower_is_better);
  EXPECT_DOUBLE_EQ(doc.find("rate")->stats.median, 100.0);
  EXPECT_FALSE(doc.find("rate")->lower_is_better);
  EXPECT_DOUBLE_EQ(doc.find("accuracy")->stats.median, 98.5);
  EXPECT_EQ(doc.find("missing"), nullptr);
  // Meta is stamped at construction.
  EXPECT_FALSE(doc.meta.timestamp.empty());
  EXPECT_FALSE(doc.meta.os.empty());
  EXPECT_GT(doc.meta.cpus, 0u);
}

TEST(BenchHarness, JsonRoundTrip) {
  obs::BenchOptions opt;
  opt.warmup = 0;
  opt.iters = 3;
  opt.counters = false;
  opt.settle_ms = 0;
  obs::Bench bench("round_trip", opt);
  bench.run("entry/one", [] {});
  bench.record("entry/two", 3.25, "ratio", false);
  bench.meta().simd = "avx2";

  const std::string json = obs::to_json(bench.document());
  const obs::BenchDocument parsed = obs::parse_bench_json(json);
  EXPECT_EQ(parsed.schema, "bench.v1");
  EXPECT_EQ(parsed.suite, "round_trip");
  EXPECT_EQ(parsed.meta.simd, "avx2");
  EXPECT_EQ(parsed.meta.host, bench.document().meta.host);
  ASSERT_EQ(parsed.entries.size(), 2u);
  EXPECT_EQ(parsed.entries[0].name, "entry/one");
  EXPECT_EQ(parsed.entries[0].stats.iters, 3u);
  EXPECT_DOUBLE_EQ(parsed.find("entry/two")->stats.median, 3.25);
  EXPECT_EQ(parsed.find("entry/two")->unit, "ratio");
  EXPECT_FALSE(parsed.find("entry/two")->lower_is_better);
}

TEST(BenchHarness, ParseRejectsForeignSchemas) {
  EXPECT_THROW((void)obs::parse_bench_json("not json"), std::exception);
  EXPECT_THROW((void)obs::parse_bench_json("{}"), std::exception);
  EXPECT_THROW((void)obs::parse_bench_json(
                   R"({"schema": "bench.v2", "suite": "s", "entries": []})"),
               std::exception);
}

TEST(BenchHarness, SlowdownHookFromEnv) {
  ::setenv("ACOUSTIC_BENCH_SLOWDOWN", "3.5", 1);
  EXPECT_DOUBLE_EQ(obs::BenchOptions::from_env().slowdown, 3.5);
  ::unsetenv("ACOUSTIC_BENCH_SLOWDOWN");
  EXPECT_DOUBLE_EQ(obs::BenchOptions::from_env().slowdown, 1.0);
}

TEST(BenchHarness, SlowdownStretchesMeasuredTime) {
  // The hook must produce a *measured* slowdown (it busy-waits inside the
  // timed window) — that is what makes the CI gate test real. Generous
  // margins: 8x requested, >2x observed required.
  const auto run_with = [](double slowdown) {
    obs::BenchOptions opt;
    opt.warmup = 1;
    opt.iters = 5;
    opt.counters = false;
    opt.settle_ms = 10;
    opt.slowdown = slowdown;
    obs::Bench bench("slowdown", opt);
    volatile double sink = 0.0;
    const obs::BenchEntry& entry = bench.run("spin", [&sink] {
      for (int i = 0; i < 20000; ++i) {
        sink = sink + 1.0;
      }
    });
    return entry.stats.median;
  };
  const double base = run_with(1.0);
  const double slowed = run_with(8.0);
  ASSERT_GT(base, 0.0);
  EXPECT_GT(slowed, 2.0 * base);
}

obs::BenchDocument make_doc(const std::string& name, double median,
                            double mad, bool lower_is_better = true) {
  obs::BenchDocument doc;
  doc.suite = "compare";
  doc.meta.cpu = "test-cpu";
  doc.meta.simd = "scalar";
  doc.meta.build = "release";
  obs::BenchEntry entry;
  entry.name = name;
  entry.stats.iters = 10;
  entry.stats.median = median;
  entry.stats.mad = mad;
  doc.entries.push_back(entry);
  doc.entries.back().lower_is_better = lower_is_better;
  return doc;
}

TEST(BenchHarness, PoolSummarizesEachEntryOverRunMedians) {
  // Rounds of single-iteration runs pool into one run: the first run's
  // entries, each summarized over its medians in the runs that have it.
  std::vector<obs::BenchDocument> runs;
  for (const double median : {30.0, 10.0, 20.0}) {
    runs.push_back(make_doc("a", median, 0.0));
  }
  runs[0].entries.push_back(make_doc("only-first", 5.0, 0.0).entries[0]);
  runs[1].entries.push_back(make_doc("only-second", 7.0, 0.0).entries[0]);
  const obs::BenchDocument pooled = obs::pool(runs);
  ASSERT_EQ(pooled.entries.size(), 2u);
  const obs::BenchStats& a = pooled.entries[0].stats;
  EXPECT_EQ(a.iters, 3u);
  EXPECT_DOUBLE_EQ(a.median, 20.0);
  EXPECT_DOUBLE_EQ(a.mad, 10.0);
  EXPECT_DOUBLE_EQ(a.min, 10.0);
  EXPECT_EQ(pooled.entries[1].name, "only-first");
  EXPECT_EQ(pooled.entries[1].stats.iters, 1u);
  EXPECT_DOUBLE_EQ(pooled.entries[1].stats.median, 5.0);
  EXPECT_EQ(pooled.meta.cpu, "test-cpu");
}

TEST(BenchCompare, UnchangedWithinNoise) {
  // Threshold = max(4 * max(MADs), 0.10 * base) = max(4*2, 10) = 10;
  // a +8 move on base 100 stays unchanged.
  const obs::CompareResult cmp =
      obs::compare(make_doc("e", 108.0, 2.0), make_doc("e", 100.0, 2.0));
  ASSERT_EQ(cmp.entries.size(), 1u);
  EXPECT_EQ(cmp.entries[0].verdict, obs::Verdict::kUnchanged);
  EXPECT_TRUE(cmp.host_match);
  EXPECT_EQ(cmp.regressed, 0u);
  EXPECT_FALSE(cmp.should_fail());
}

TEST(BenchCompare, TwoXSlowdownRegresses) {
  const obs::CompareResult cmp =
      obs::compare(make_doc("e", 200.0, 2.0), make_doc("e", 100.0, 2.0));
  EXPECT_EQ(cmp.entries[0].verdict, obs::Verdict::kRegressed);
  EXPECT_DOUBLE_EQ(cmp.entries[0].ratio, 2.0);
  EXPECT_EQ(cmp.regressed, 1u);
  EXPECT_TRUE(cmp.should_fail());
}

TEST(BenchCompare, DirectionFollowsBetter) {
  // For a higher-is-better entry (throughput), halving is the regression.
  const obs::CompareResult down = obs::compare(
      make_doc("tput", 50.0, 1.0, /*lower_is_better=*/false),
      make_doc("tput", 100.0, 1.0, /*lower_is_better=*/false));
  EXPECT_EQ(down.entries[0].verdict, obs::Verdict::kRegressed);
  const obs::CompareResult up = obs::compare(
      make_doc("tput", 200.0, 1.0, /*lower_is_better=*/false),
      make_doc("tput", 100.0, 1.0, /*lower_is_better=*/false));
  EXPECT_EQ(up.entries[0].verdict, obs::Verdict::kImproved);
}

TEST(BenchCompare, MadTermAbsorbsMeasuredNoise) {
  // A noisy pair (MAD 20 on 100) needs an 80-unit move to regress;
  // +50 is within 4 MADs.
  const obs::CompareResult cmp =
      obs::compare(make_doc("e", 150.0, 20.0), make_doc("e", 100.0, 20.0));
  EXPECT_EQ(cmp.entries[0].verdict, obs::Verdict::kUnchanged);
}

TEST(BenchCompare, NewAndMissingEntries) {
  obs::BenchDocument current = make_doc("kept", 100.0, 1.0);
  obs::BenchEntry fresh;
  fresh.name = "fresh";
  fresh.stats.median = 1.0;
  current.entries.push_back(fresh);
  obs::BenchDocument baseline = make_doc("kept", 100.0, 1.0);
  obs::BenchEntry gone;
  gone.name = "gone";
  gone.stats.median = 1.0;
  baseline.entries.push_back(gone);

  const obs::CompareResult cmp = obs::compare(current, baseline);
  ASSERT_EQ(cmp.entries.size(), 3u);
  std::size_t news = 0;
  std::size_t missing = 0;
  for (const obs::CompareEntry& entry : cmp.entries) {
    news += entry.verdict == obs::Verdict::kNew;
    missing += entry.verdict == obs::Verdict::kMissing;
  }
  EXPECT_EQ(news, 1u);
  EXPECT_EQ(missing, 1u);
  // New/missing entries inform, they do not gate.
  EXPECT_FALSE(cmp.should_fail());
}

TEST(BenchCompare, ForeignHostNeverGatesUnlessStrict) {
  obs::BenchDocument current = make_doc("e", 300.0, 1.0);
  obs::BenchDocument baseline = make_doc("e", 100.0, 1.0);
  baseline.meta.cpu = "some-other-cpu";
  const obs::CompareResult cmp = obs::compare(current, baseline);
  EXPECT_EQ(cmp.entries[0].verdict, obs::Verdict::kRegressed);
  EXPECT_FALSE(cmp.host_match);
  // Absolute times do not transfer across machines: report, never gate —
  // unless the caller forces it.
  EXPECT_FALSE(cmp.should_fail());
  EXPECT_TRUE(cmp.should_fail(/*strict=*/true));
}

TEST(BenchCompare, MetaComparable) {
  obs::BenchMeta a;
  a.cpu = "cpu";
  a.simd = "avx2";
  a.build = "release";
  obs::BenchMeta b = a;
  EXPECT_TRUE(obs::meta_comparable(a, b));
  b.simd = "scalar";
  EXPECT_FALSE(obs::meta_comparable(a, b));
  b = a;
  b.build = "debug";
  EXPECT_FALSE(obs::meta_comparable(a, b));
  // Hostname may differ (identical runner images): still comparable.
  b = a;
  b.host = "other-host";
  EXPECT_TRUE(obs::meta_comparable(a, b));
}

TEST(BenchCompare, SingleObservationFallsBackToRelativeFloor) {
  // record() entries have MAD 0 — the relative floor is the only noise
  // margin, so a 5% move on a 10% floor is unchanged and 20% regresses.
  const obs::CompareResult small =
      obs::compare(make_doc("acc", 95.0, 0.0), make_doc("acc", 100.0, 0.0));
  EXPECT_EQ(small.entries[0].verdict, obs::Verdict::kUnchanged);
  const obs::CompareResult big =
      obs::compare(make_doc("acc", 120.0, 0.0), make_doc("acc", 100.0, 0.0));
  EXPECT_EQ(big.entries[0].verdict, obs::Verdict::kRegressed);
}

}  // namespace
}  // namespace acoustic
