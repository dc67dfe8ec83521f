// Scheduling fast path (DESIGN.md §8): the SoA/branchless/fixed-point
// scheduler against the retained reference implementation.
//
// The contract is bit-identical bitmaps: both paths implement exact
// 128-bit fixed-point threshold math, differing only in traversal (scalar
// loops over per-worker snapshots vs one SoA gather + set-bit walking).
// The differential sweep here crosses >=10k randomized WST snapshots with
// all 6 stage orders, theta in {0, 0.1, 0.5} and group limits {1, 2, 63,
// 64}, mixing metric magnitudes up to ~2^60 so the >2^53 range — where the
// old double-precision filter misclassified — is covered continuously.
//
// One level up, RuntimeFastMatchesReferenceEverySync drives a whole
// HermesRuntime through a seeded script and checks every
// schedule_and_sync against the reference on the same WST. The runtime
// also skips unchanged-bitmap syncs, so the test pins what the kernel
// sees after every sync.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/hermes.h"
#include "core/policy.h"
#include "core/scheduler.h"
#include "core/wst.h"
#include "simcore/rng.h"
#include "test_util.h"

namespace hermes {
namespace {

using core::FilterStage;
using core::ScheduleResult;
using core::Scheduler;
using core::WorkerStatusTable;

// All 6 permutations of the three cascade stages.
constexpr FilterStage kOrders[6][3] = {
    {FilterStage::Time, FilterStage::Connections, FilterStage::PendingEvents},
    {FilterStage::Time, FilterStage::PendingEvents, FilterStage::Connections},
    {FilterStage::Connections, FilterStage::Time, FilterStage::PendingEvents},
    {FilterStage::Connections, FilterStage::PendingEvents, FilterStage::Time},
    {FilterStage::PendingEvents, FilterStage::Time, FilterStage::Connections},
    {FilterStage::PendingEvents, FilterStage::Connections, FilterStage::Time},
};
constexpr double kThetas[] = {0.0, 0.1, 0.5};
constexpr uint32_t kLimits[] = {1, 2, 63, 64};

// A metric value of varied magnitude: mostly small counts, sometimes huge
// (beyond 2^53, where double rounding is lossy).
int64_t random_metric(sim::Rng& rng) {
  switch (rng.next_below(4)) {
    case 0: return 0;
    case 1: return static_cast<int64_t>(rng.next_below(1000));
    case 2: return static_cast<int64_t>(rng.next_below(1u << 30));
    default:
      return (int64_t{1} << 60) + static_cast<int64_t>(rng.next_below(8));
  }
}

TEST(SchedFastDifferentialTest, FastMatchesReferenceBitForBit) {
  sim::Rng rng(0x5eedfa57);
  const SimTime now = SimTime::seconds(100);
  uint64_t snapshots = 0;

  for (uint32_t limit : kLimits) {
    auto buf = testing::wst_buffer(limit);
    for (int iter = 0; iter < 2500; ++iter) {
      auto wst = WorkerStatusTable::init(buf.data(), limit);
      for (WorkerId w = 0; w < limit; ++w) {
        // Heartbeats spread across [now - 100ms, now]: both sides of the
        // 50 ms hang threshold, plus never-started workers.
        if (rng.bernoulli(0.1)) {
          wst.update_avail(w, SimTime::zero());
        } else {
          wst.update_avail(
              w, now - SimTime::millis(static_cast<int64_t>(rng.next_below(100))));
        }
        wst.add_connections(w, random_metric(rng));
        wst.add_pending(w, random_metric(rng));
      }
      ++snapshots;

      for (const auto& order : kOrders) {
        for (double theta : kThetas) {
          core::HermesConfig cfg;
          cfg.theta_ratio = theta;
          Scheduler sched(cfg);
          const ScheduleResult fast =
              sched.schedule_with_order(wst, now, order, 3, 0, limit);
          const ScheduleResult ref = sched.schedule_reference_with_order(
              wst, now, order, 3, 0, limit);
          ASSERT_EQ(fast.bitmap, ref.bitmap)
              << "limit=" << limit << " theta=" << theta << " iter=" << iter;
          ASSERT_EQ(fast.after_time, ref.after_time);
          ASSERT_EQ(fast.after_conn, ref.after_conn);
          ASSERT_EQ(fast.after_event, ref.after_event);
          ASSERT_EQ(fast.selected, ref.selected);
        }
      }
    }
  }
  EXPECT_GE(snapshots, 10000u);
}

// Both implementations of one scheduler over one WST: schedule() and the
// reference, labelled for failure messages.
struct BothResults {
  const char* name;
  ScheduleResult res;
};
std::vector<BothResults> schedule_both(const Scheduler& sched,
                                       const WorkerStatusTable& wst,
                                       SimTime now) {
  const core::HermesConfig& cfg = sched.config();
  return {{"fast", sched.schedule(wst, now)},
          {"reference",
           sched.schedule_reference_with_order(wst, now, cfg.stage_order,
                                               cfg.num_stages)}};
}

// Regression for the latent double-rounding bug the fixed-point rewrite
// fixes (old src/core/scheduler.cc:31): with connections {2^60, 2^60,
// 2^60 + 1} and theta = 0, double math rounds sum to 3*2^60, makes
// avg == 2^60 exactly, and rounds worker 2's value down onto the average —
// the `v == avg` degenerate check then wrongly kept the over-threshold
// worker. Exact integer math filters it: v*n = 3*2^60 + 3 > sum =
// 3*2^60 + 1, and v*n != sum.
TEST(SchedFastDifferentialTest, Above2Pow53OverThresholdWorkerIsFiltered) {
  constexpr uint32_t kWorkers = 3;
  auto buf = testing::wst_buffer(kWorkers);
  auto wst = WorkerStatusTable::init(buf.data(), kWorkers);
  const SimTime now = SimTime::seconds(1);
  constexpr int64_t kBig = int64_t{1} << 60;
  for (WorkerId w = 0; w < kWorkers; ++w) {
    wst.update_avail(w, now);
    wst.add_connections(w, w == 2 ? kBig + 1 : kBig);
  }

  core::HermesConfig cfg;
  cfg.theta_ratio = 0.0;
  const Scheduler sched(cfg);
  for (const auto& [name, res] : schedule_both(sched, wst, now)) {
    EXPECT_TRUE(core::bitmap_test(res.bitmap, 0)) << name;
    EXPECT_TRUE(core::bitmap_test(res.bitmap, 1)) << name;
    EXPECT_FALSE(core::bitmap_test(res.bitmap, 2))
        << name << ": over-threshold worker passed via rounding";
    EXPECT_EQ(res.selected, 2u) << name;
  }
}

// The degenerate all-equal pass rule survives the rewrite even above 2^53:
// every candidate at exactly the same huge value passes with theta = 0.
TEST(SchedFastDifferentialTest, AllEqualHugeMetricsKeepEveryone) {
  constexpr uint32_t kWorkers = 5;
  auto buf = testing::wst_buffer(kWorkers);
  auto wst = WorkerStatusTable::init(buf.data(), kWorkers);
  const SimTime now = SimTime::seconds(1);
  for (WorkerId w = 0; w < kWorkers; ++w) {
    wst.update_avail(w, now);
    wst.add_connections(w, (int64_t{1} << 60) + 7);
    wst.add_pending(w, (int64_t{1} << 59) + 3);
  }
  core::HermesConfig cfg;
  cfg.theta_ratio = 0.0;
  const Scheduler sched(cfg);
  for (const auto& [name, res] : schedule_both(sched, wst, now)) {
    EXPECT_EQ(res.selected, kWorkers) << name;
  }
}

// The runtime-level differential: one HermesRuntime replays a seeded
// script of heartbeats, connection and pending-event deltas and hangs.
// Steps advance time by under 2 ms, so several syncs land inside one
// sync_refresh_interval and change suppression is exercised on both
// changed and unchanged bitmaps. After every schedule_and_sync the result
// must equal schedule_reference_with_order on the same WST slice, and
// every group's kernel-visible bitmap must equal that group's last
// reference bitmap: a suppressed store is only correct when the map
// already holds it. Worker counts cover one partial group, one full
// group, a full group plus a one-worker group, and two full groups; every
// policy runs, since aux policies refresh from the same gather.
TEST(SchedFastDifferentialTest, RuntimeFastMatchesReferenceEverySync) {
  constexpr int kSteps = 1500;
  for (uint32_t workers : {8u, 63u, 64u, 65u, 128u}) {
    for (size_t k = 0; k < core::kPolicyCount; ++k) {
      const auto kind = static_cast<core::PolicyKind>(k);
      SCOPED_TRACE(::testing::Message()
                   << "workers=" << workers << " policy=" << to_string(kind));
      core::HermesRuntime::Options opts;
      opts.num_workers = workers;
      opts.policy = kind;
      core::HermesRuntime rt(opts);
      const Scheduler& sched = rt.scheduler();
      const core::HermesConfig& cfg = sched.config();
      std::vector<core::WorkerBitmap> last_ref(rt.num_groups(), 0);

      sim::Rng rng(0x5c41ed00 + workers * 8 + k);
      std::vector<int64_t> conns(workers, 0);
      std::vector<int64_t> pending(workers, 0);
      std::vector<SimTime> hung_until(workers, SimTime::zero());
      SimTime now = SimTime::millis(1);
      for (int step = 0; step < kSteps; ++step) {
        now = now + SimTime::micros(static_cast<int64_t>(rng.next_below(2000)));
        for (WorkerId w = 0; w < workers; ++w) {
          if (now >= hung_until[w] && rng.bernoulli(0.5)) {
            rt.wst().update_avail(w, now);
          }
          if (rng.bernoulli(0.2)) {
            const int64_t d =
                static_cast<int64_t>(rng.next_below(7)) - 3;
            const int64_t dc = conns[w] + d < 0 ? -conns[w] : d;
            conns[w] += dc;
            rt.wst().add_connections(w, dc);
          }
          if (rng.bernoulli(0.3)) {
            const int64_t d =
                static_cast<int64_t>(rng.next_below(9)) - 4;
            const int64_t dp = pending[w] + d < 0 ? -pending[w] : d;
            pending[w] += dp;
            rt.wst().add_pending(w, dp);
          }
        }
        // A hang of 20-120 ms: past the 50 ms threshold, FilterTime drops
        // the worker until it heartbeats again.
        if (rng.bernoulli(0.05)) {
          const WorkerId w = static_cast<WorkerId>(rng.next_below(workers));
          hung_until[w] =
              now + SimTime::millis(20 + static_cast<int64_t>(
                                             rng.next_below(100)));
        }

        const WorkerId self = static_cast<WorkerId>(rng.next_below(workers));
        const uint32_t group = self / rt.workers_per_group();
        const WorkerId base = group * rt.workers_per_group();
        const uint32_t limit =
            std::min(rt.workers_per_group(), workers - base);
        const ScheduleResult a = rt.schedule_and_sync(self, now);
        const ScheduleResult b = sched.schedule_reference_with_order(
            rt.wst(), now, cfg.stage_order, cfg.num_stages, base, limit);
        last_ref[group] = b.bitmap;
        ASSERT_EQ(a.bitmap, b.bitmap) << "step=" << step;
        ASSERT_EQ(a.after_time, b.after_time) << "step=" << step;
        ASSERT_EQ(a.after_conn, b.after_conn) << "step=" << step;
        ASSERT_EQ(a.after_event, b.after_event) << "step=" << step;
        ASSERT_EQ(a.selected, b.selected) << "step=" << step;
        for (uint32_t g = 0; g < rt.num_groups(); ++g) {
          ASSERT_EQ(rt.kernel_bitmap(g), last_ref[g])
              << "step=" << step << " group=" << g;
        }
      }
      const auto& c = rt.counters();
      EXPECT_EQ(c.schedules, static_cast<uint64_t>(kSteps));
      EXPECT_GT(c.syncs_suppressed, 0u);
      EXPECT_GT(c.syncs, 0u);
      EXPECT_EQ(c.syncs + c.syncs_suppressed, c.schedules);
    }
  }
}

// theta quantization: the permille conversion is exact for the paper's
// sweep values and clamps the extremes that would overflow the product.
TEST(SchedFastDifferentialTest, ThetaPermilleQuantization) {
  EXPECT_EQ(core::theta_permille_of(0.0), 0);
  EXPECT_EQ(core::theta_permille_of(0.1), 100);
  EXPECT_EQ(core::theta_permille_of(0.5), 500);
  EXPECT_EQ(core::theta_permille_of(1.5), 1500);
  EXPECT_EQ(core::theta_permille_of(-1.0), 0);            // clamped low
  EXPECT_EQ(core::theta_permille_of(1e18), 1000000000000000);  // clamped high
}

}  // namespace
}  // namespace hermes
