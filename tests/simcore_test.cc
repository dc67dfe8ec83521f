// Tests for the discrete-event engine, RNG, and metric recorders.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "obs/metrics.h"
#include "simcore/event_queue.h"
#include "simcore/histogram.h"
#include "simcore/rng.h"

namespace hermes::sim {
namespace {

// ---------------------------------------------------------------- SimTime

TEST(SimTimeTest, UnitConversions) {
  EXPECT_EQ(SimTime::micros(3).ns(), 3000);
  EXPECT_EQ(SimTime::millis(2).ns(), 2'000'000);
  EXPECT_EQ(SimTime::seconds(1).ns(), 1'000'000'000);
  EXPECT_DOUBLE_EQ(SimTime::millis(1500).s_f(), 1.5);
  EXPECT_DOUBLE_EQ(SimTime::micros(250).ms_f(), 0.25);
}

TEST(SimTimeTest, Arithmetic) {
  const SimTime a = SimTime::millis(5);
  const SimTime b = SimTime::millis(3);
  EXPECT_EQ((a + b).ns(), SimTime::millis(8).ns());
  EXPECT_EQ((a - b).ns(), SimTime::millis(2).ns());
  EXPECT_EQ((a * 4).ns(), SimTime::millis(20).ns());
  EXPECT_EQ((a / 5).ns(), SimTime::millis(1).ns());
  EXPECT_LT(b, a);
  EXPECT_GE(a, a);
}

// ------------------------------------------------------------ EventQueue

TEST(EventQueueTest, FiresInTimestampOrder) {
  EventQueue eq;
  std::vector<int> fired;
  eq.schedule_at(SimTime::millis(3), [&] { fired.push_back(3); });
  eq.schedule_at(SimTime::millis(1), [&] { fired.push_back(1); });
  eq.schedule_at(SimTime::millis(2), [&] { fired.push_back(2); });
  eq.run_all();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eq.now(), SimTime::millis(3));
}

TEST(EventQueueTest, EqualTimestampsFireInInsertionOrder) {
  EventQueue eq;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    eq.schedule_at(SimTime::millis(1), [&fired, i] { fired.push_back(i); });
  }
  eq.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[i], i);
}

TEST(EventQueueTest, ScheduleAfterUsesCurrentTime) {
  EventQueue eq;
  SimTime fired_at;
  eq.schedule_at(SimTime::millis(10), [&] {
    eq.schedule_after(SimTime::millis(5), [&] { fired_at = eq.now(); });
  });
  eq.run_all();
  EXPECT_EQ(fired_at, SimTime::millis(15));
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue eq;
  bool fired = false;
  auto h = eq.schedule_at(SimTime::millis(1), [&] { fired = true; });
  eq.cancel(h);
  eq.run_all();
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelAfterFireIsNoop) {
  EventQueue eq;
  int count = 0;
  auto h = eq.schedule_at(SimTime::millis(1), [&] { ++count; });
  eq.run_all();
  eq.cancel(h);  // must not crash or affect anything
  eq.schedule_at(SimTime::millis(2), [&] { ++count; });
  eq.run_all();
  EXPECT_EQ(count, 2);
}

TEST(EventQueueTest, RunUntilStopsAtBoundaryInclusive) {
  EventQueue eq;
  std::vector<int> fired;
  eq.schedule_at(SimTime::millis(1), [&] { fired.push_back(1); });
  eq.schedule_at(SimTime::millis(2), [&] { fired.push_back(2); });
  eq.schedule_at(SimTime::millis(3), [&] { fired.push_back(3); });
  eq.run_until(SimTime::millis(2));
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(eq.now(), SimTime::millis(2));
  eq.run_all();
  EXPECT_EQ(fired.size(), 3u);
}

TEST(EventQueueTest, RunUntilAdvancesClockWhenIdle) {
  EventQueue eq;
  eq.run_until(SimTime::seconds(5));
  EXPECT_EQ(eq.now(), SimTime::seconds(5));
}

TEST(EventQueueTest, EventsCanScheduleMoreEvents) {
  EventQueue eq;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) eq.schedule_after(SimTime::micros(1), chain);
  };
  eq.schedule_at(SimTime::zero(), chain);
  eq.run_all();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(eq.now(), SimTime::micros(99));
}

TEST(EventQueueTest, SchedulingInPastAborts) {
  EventQueue eq;
  eq.schedule_at(SimTime::millis(5), [] {});
  eq.run_all();
  EXPECT_DEATH(eq.schedule_at(SimTime::millis(1), [] {}), "past");
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42), c(43);
  bool any_diff = false;
  for (int i = 0; i < 100; ++i) {
    const uint64_t va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
    if (va != c.next_u64()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextBelowIsInRangeAndRoughlyUniform) {
  Rng rng(7);
  constexpr uint64_t kN = 10;
  uint64_t counts[kN] = {};
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    const uint64_t v = rng.next_below(kN);
    ASSERT_LT(v, kN);
    ++counts[v];
  }
  for (uint64_t c : counts) {
    EXPECT_NEAR(static_cast<double>(c), kSamples / 10.0, kSamples * 0.01);
  }
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(11);
  double sum = 0;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / kSamples, 5.0, 0.1);
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  RunningStat st;
  for (int i = 0; i < 200000; ++i) st.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(st.mean(), 10.0, 0.05);
  EXPECT_NEAR(st.stddev(), 2.0, 0.05);
}

TEST(RngTest, LognormalMedian) {
  Rng rng(17);
  SampleSet ss;
  for (int i = 0; i < 100000; ++i) ss.add(rng.lognormal(std::log(100.0), 0.8));
  // Median of lognormal(mu, sigma) is exp(mu).
  EXPECT_NEAR(ss.quantile(0.5), 100.0, 3.0);
}

TEST(RngTest, BoundedParetoStaysInBounds) {
  Rng rng(19);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.bounded_pareto(1.2, 10.0, 1000.0);
    EXPECT_GE(v, 10.0 * 0.999);
    EXPECT_LE(v, 1000.0 * 1.001);
  }
}

TEST(RngTest, BoundedParetoIsHeavyTailed) {
  Rng rng(23);
  SampleSet ss;
  for (int i = 0; i < 100000; ++i) ss.add(rng.bounded_pareto(1.0, 1.0, 1e6));
  // Heavy tail: p99 is orders of magnitude above the median.
  EXPECT_GT(ss.quantile(0.99) / ss.quantile(0.5), 20.0);
}

TEST(ZipfTest, SkewMatchesPmf) {
  ZipfSampler zipf(100, 1.0);
  Rng rng(29);
  std::vector<int> counts(100, 0);
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) ++counts[zipf.sample(rng)];
  // Rank 0 should dominate and match its pmf.
  EXPECT_NEAR(static_cast<double>(counts[0]) / kSamples, zipf.pmf(0), 0.01);
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[99]);
}

TEST(ZipfTest, TopHeavySkewLikePaperTenants) {
  // Paper §7: top-3 tenants take 40/28/22% in one region. A Zipf with high
  // exponent over few tenants reproduces that shape.
  ZipfSampler zipf(20, 1.6);
  double top3 = zipf.pmf(0) + zipf.pmf(1) + zipf.pmf(2);
  EXPECT_GT(top3, 0.6);
}

// -------------------------------------------------------------- Histogram
// The simulator records its distributions into obs::Histogram.

using obs::Histogram;

TEST(HistogramTest, ExactForSmallValues) {
  Histogram h;
  for (uint64_t i = 1; i <= 10; ++i) h.record(i);
  EXPECT_EQ(h.count, 10u);
  EXPECT_EQ(h.quantile(0), 1u);
  EXPECT_EQ(h.max_value(), 10u);
  EXPECT_DOUBLE_EQ(h.mean(), 5.5);
  EXPECT_EQ(h.quantile(0.5), 5u);
  EXPECT_EQ(h.quantile(1.0), 10u);
}

TEST(HistogramTest, QuantileRelativeErrorBounded) {
  Histogram h;
  Rng rng(31);
  std::vector<uint64_t> vals;
  for (int i = 0; i < 50000; ++i) {
    const auto v = static_cast<uint64_t>(rng.lognormal(std::log(1e6), 1.0));
    vals.push_back(v);
    h.record(v);
  }
  std::sort(vals.begin(), vals.end());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const auto exact =
        static_cast<double>(vals[static_cast<size_t>(q * (vals.size() - 1))]);
    const auto est = static_cast<double>(h.quantile(q));
    EXPECT_NEAR(est / exact, 1.0, 0.05) << "q=" << q;
  }
}

TEST(HistogramTest, RecordsSimTime) {
  Histogram h;
  h.record(SimTime::millis(5));
  EXPECT_EQ(h.quantile(1.0), static_cast<uint64_t>(SimTime::millis(5).ns()));
}

TEST(HistogramTest, MergeCombinesCounts) {
  Histogram a, b;
  a.record(100);
  b.record(200);
  b.record(300);
  a.merge(b);
  EXPECT_EQ(a.count, 3u);
  EXPECT_EQ(a.max_value(), 300u);
  // The lowest quantile lands in the smallest value's bucket.
  EXPECT_EQ(Histogram::bucket_index(a.quantile(0), a.sub_bits),
            Histogram::bucket_index(100, a.sub_bits));
}

TEST(HistogramTest, NegativeClampsToZero) {
  Histogram h;
  h.record(SimTime::nanos(-5));
  EXPECT_EQ(h.quantile(1.0), 0u);
}

TEST(HistogramTest, EmptyQuantileIsZero) {
  Histogram h;
  EXPECT_EQ(h.quantile(0.99), 0u);
  EXPECT_EQ(h.count, 0u);
}

TEST(SampleSetTest, ExactQuantiles) {
  SampleSet ss;
  for (int i = 1; i <= 100; ++i) ss.add(i);
  EXPECT_NEAR(ss.quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(ss.quantile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(ss.quantile(0.5), 50.5, 1e-9);
  EXPECT_NEAR(ss.mean(), 50.5, 1e-9);
}

TEST(RunningStatTest, WelfordMatchesDirect) {
  RunningStat st;
  const std::vector<double> vals = {2, 4, 4, 4, 5, 5, 7, 9};
  for (double v : vals) st.add(v);
  EXPECT_DOUBLE_EQ(st.mean(), 5.0);
  EXPECT_NEAR(st.stddev(), 2.0, 1e-9);  // population sd of this classic set
}

}  // namespace
}  // namespace hermes::sim
