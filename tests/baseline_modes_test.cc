// The additional baselines: userspace dispatcher (§2.2), io_uring-style
// FIFO wakeup (§8), pre-4.5 thundering herd, and the epoll-rr patch.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/lb.h"

namespace hermes::sim {
namespace {

LbDevice::Config config_for(netsim::DispatchMode mode, uint64_t seed = 3) {
  LbDevice::Config cfg;
  cfg.mode = mode;
  cfg.num_workers = 4;
  cfg.num_ports = 4;
  cfg.seed = seed;
  return cfg;
}

void drive_short_conns(LbDevice& lb, int n, SimTime spacing) {
  LbDevice::ConnPlan plan;
  plan.remaining = 1;
  plan.cost_us = DistSpec::constant(100);
  for (int i = 0; i < n; ++i) {
    lb.eq().schedule_at(spacing * i, [&lb, plan, i] {
      lb.open_connection(static_cast<TenantId>(i % 4), plan);
    });
  }
}

// ------------------------------------------------------- user dispatcher

TEST(UserDispatcherTest, DispatchesRoundRobinAcrossServingWorkers) {
  LbDevice lb(config_for(netsim::DispatchMode::UserDispatcher));
  drive_short_conns(lb, 300, SimTime::millis(1));
  lb.eq().run_until(SimTime::seconds(1));

  EXPECT_EQ(lb.totals().requests_completed, 300u);
  // Worker 0's loop is the dispatcher: it accepts every connection and
  // serves none.
  EXPECT_EQ(lb.worker(0).events_per_wait().sum, 300u);
  EXPECT_EQ(lb.worker(0).accepts_done(), 0u);
  // Workers 1..3 share evenly (round-robin).
  for (WorkerId w = 1; w < 4; ++w) {
    EXPECT_EQ(lb.worker(w).accepts_done(), 100u);
  }
}

TEST(UserDispatcherTest, DispatcherSaturatesUnderHighCps) {
  // The §2.2 argument: the dispatcher core caps the connection rate.
  // 18us/conn => ~55k CPS ceiling; offer 3x that and watch the backlog.
  LbDevice::Config cfg = config_for(netsim::DispatchMode::UserDispatcher);
  cfg.num_workers = 8;  // plenty of serving capacity
  LbDevice lb(cfg);

  TrafficPattern p;
  p.cps = 150'000;
  p.requests_per_conn = DistSpec::constant(1);
  p.request_cost_us = DistSpec::constant(30);  // workers are NOT the limit
  lb.start_pattern(p, 0, cfg.num_ports, SimTime::seconds(1));
  lb.eq().run_until(SimTime::seconds(1));

  const double dispatch_rate =
      static_cast<double>(lb.worker(0).events_per_wait().sum) / 1.0;
  EXPECT_LT(dispatch_rate, 70'000);  // capped well below the offered 150k
  // Dispatcher core (worker 0) is pegged.
  EXPECT_GT(lb.worker(0).busy_time().s_f(), 0.9);
}

TEST(UserDispatcherTest, HermesSustainsTheSameLoadDispatcherCannot) {
  auto run = [](netsim::DispatchMode mode) {
    LbDevice::Config cfg = config_for(mode);
    cfg.num_workers = 8;
    LbDevice lb(cfg);
    TrafficPattern p;
    p.cps = 120'000;
    p.requests_per_conn = DistSpec::constant(1);
    p.request_cost_us = DistSpec::constant(30);
    lb.start_pattern(p, 0, cfg.num_ports, SimTime::seconds(1));
    lb.eq().run_until(SimTime::seconds(2));
    return lb.totals().requests_completed;
  };
  const auto hermes_done = run(netsim::DispatchMode::HermesMode);
  const auto dispatcher_done = run(netsim::DispatchMode::UserDispatcher);
  EXPECT_GT(hermes_done, dispatcher_done * 3 / 2);
}

// ------------------------------------------------------------ FIFO mode

TEST(IoUringFifoTest, ConcentratesOnOldestRegisteredWorker) {
  // FIFO wakeup prefers the FIRST registered worker (id 0) — the mirror
  // image of exclusive's LIFO — so the imbalance pathology persists,
  // which is the paper's §8 point about io_uring's default mode.
  LbDevice lb(config_for(netsim::DispatchMode::IoUringFifo));
  LbDevice::ConnPlan plan;
  plan.remaining = 100;                    // long-lived
  plan.cost_us = DistSpec::constant(50);
  plan.gap_us = DistSpec::exponential(200'000);
  for (int i = 0; i < 200; ++i) {
    lb.eq().schedule_at(SimTime::millis(2 * i), [&lb, plan, i] {
      lb.open_connection(static_cast<TenantId>(i % 4), plan);
    });
  }
  lb.eq().run_until(SimTime::seconds(1));
  std::vector<uint64_t> accepts;
  for (WorkerId w = 0; w < 4; ++w) accepts.push_back(lb.worker(w).accepts_done());
  EXPECT_EQ(*std::max_element(accepts.begin(), accepts.end()), accepts[0]);
  EXPECT_GT(static_cast<double>(accepts[0]) / 200.0, 0.8);
}

// ---------------------------------------------------------- herd and rr

TEST(WakeAllTest, ThunderingHerdWastesWakeups) {
  LbDevice lb(config_for(netsim::DispatchMode::EpollWakeAll));
  drive_short_conns(lb, 100, SimTime::millis(3));
  lb.eq().run_until(SimTime::seconds(1));
  EXPECT_EQ(lb.totals().requests_completed, 100u);
  // With 4 idle workers per event, ~3 wakeups per connection are wasted.
  EXPECT_GT(lb.netstack().stats().wasted_wakeups, 100u);
}

TEST(EpollRrTest, RotatesFairly) {
  LbDevice lb(config_for(netsim::DispatchMode::EpollRr));
  drive_short_conns(lb, 200, SimTime::millis(3));
  lb.eq().run_until(SimTime::seconds(1));
  for (WorkerId w = 0; w < 4; ++w) {
    EXPECT_NEAR(static_cast<double>(lb.worker(w).accepts_done()), 50.0, 15.0);
  }
}

// ------------------------------------------------- sync interval ablation

TEST(SyncIntervalTest, StaleBitmapKeepsFeedingWedgedWorker) {
  auto run = [](SimTime interval) {
    LbDevice::Config cfg = config_for(netsim::DispatchMode::HermesMode, 8);
    cfg.worker.min_sync_interval = interval;
    LbDevice lb(cfg);

    // Let every worker publish its once-per-interval sync first (all
    // healthy -> full bitmap), THEN wedge one worker.
    lb.eq().run_until(SimTime::millis(50));
    LbDevice::ConnPlan poison;
    poison.remaining = 1;
    poison.cost_us = DistSpec::constant(3'000'000);
    lb.open_connection(0, poison);
    lb.eq().run_until(SimTime::millis(100));

    WorkerId hung = kInvalidWorker;
    for (WorkerId w = 0; w < lb.num_workers(); ++w) {
      if (!lb.worker(w).blocked()) hung = w;
    }
    EXPECT_NE(hung, kInvalidWorker);

    LbDevice::ConnPlan quick;
    quick.remaining = 1;
    quick.cost_us = DistSpec::constant(100);
    for (int i = 0; i < 200; ++i) {
      lb.eq().schedule_at(SimTime::millis(101 + i), [&lb, quick, i] {
        lb.open_connection(static_cast<TenantId>(i % 4), quick);
      });
    }
    lb.eq().run_until(SimTime::millis(400));
    // Connections parked behind the wedge across the hung worker's sockets.
    uint64_t queued = 0;
    for (uint32_t p = 0; p < lb.config().num_ports; ++p) {
      queued += lb.netstack()
                    .worker_socket(
                        static_cast<PortId>(LbDevice::kFirstPort + p), hung)
                    ->accept_queue()
                    .size();
    }
    return queued;
  };
  // Responsive loop: wedged worker gets nothing. Frozen loop (sync slower
  // than the run): the stale all-ones bitmap keeps including it.
  EXPECT_EQ(run(SimTime::zero()), 0u);
  EXPECT_GT(run(SimTime::seconds(30)), 10u);
}

}  // namespace
}  // namespace hermes::sim
