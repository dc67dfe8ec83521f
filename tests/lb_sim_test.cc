// Integration tests: the full LB simulation reproduces the paper's
// qualitative phenomena — LIFO concentration under epoll exclusive,
// reuseport's spread and its blindness to hung workers, Hermes's balanced,
// hang-aware dispatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <vector>

#include "sim/lb.h"
#include "sim/trace.h"

namespace hermes::sim {
namespace {

LbDevice::Config base_config(netsim::DispatchMode mode, uint64_t seed = 1) {
  LbDevice::Config cfg;
  cfg.mode = mode;
  cfg.num_workers = 4;
  cfg.num_ports = 4;
  cfg.seed = seed;
  return cfg;
}

std::vector<int64_t> conns_per_worker(LbDevice& lb) {
  std::vector<int64_t> v;
  for (WorkerId w = 0; w < lb.num_workers(); ++w) {
    v.push_back(lb.worker(w).live_connections());
  }
  return v;
}

std::vector<uint64_t> accepts_per_worker(LbDevice& lb) {
  std::vector<uint64_t> v;
  for (WorkerId w = 0; w < lb.num_workers(); ++w) {
    v.push_back(lb.worker(w).accepts_done());
  }
  return v;
}

TEST(LbSimTest, IdleLbOnlyTicksHeartbeats) {
  LbDevice lb(base_config(netsim::DispatchMode::HermesMode));
  lb.eq().run_until(SimTime::seconds(1));
  EXPECT_EQ(lb.totals().requests_completed, 0u);
  // Each worker wakes every 5ms: ~200 iterations each.
  for (WorkerId w = 0; w < lb.num_workers(); ++w) {
    EXPECT_NEAR(static_cast<double>(lb.worker(w).loop_iterations()), 200, 10);
  }
  // Scheduler ran on every iteration (Fig. 14's baseline frequency).
  EXPECT_GT(lb.hermes()->counters().schedules, 700u);
}

TEST(LbSimTest, SingleConnectionCompletesWithPlausibleLatency) {
  LbDevice lb(base_config(netsim::DispatchMode::HermesMode));
  LbDevice::ConnPlan plan;
  plan.remaining = 1;
  plan.cost_us = DistSpec::constant(200);
  ASSERT_NE(lb.open_connection(0, plan), 0u);
  lb.eq().run_until(SimTime::seconds(1));
  EXPECT_EQ(lb.totals().requests_completed, 1u);
  // Latency = accept wakeup + accept cost + processing, well under 1 ms.
  const auto latency = lb.take_window_latency();
  EXPECT_GT(latency.max_value(), SimTime::micros(200).ns());
  EXPECT_LT(latency.max_value(), SimTime::millis(1).ns());
  EXPECT_EQ(lb.live_connections(), 0u);
}

TEST(LbSimTest, RequestsCarryTheirConnectionsTenant) {
  // The plan names no tenant: every request belongs to the tenant the
  // connection was opened under.
  LbDevice lb(base_config(netsim::DispatchMode::HermesMode));
  std::vector<TenantId> seen;
  lb.set_request_done_fn(
      [&seen](TenantId t, SimTime) { seen.push_back(t); });
  LbDevice::ConnPlan plan;
  plan.remaining = 2;
  plan.gap_us = DistSpec::constant(1000);
  ASSERT_NE(lb.open_connection(3, plan), 0u);
  lb.eq().run_until(SimTime::seconds(1));
  EXPECT_EQ(seen, (std::vector<TenantId>{3, 3}));
}

TEST(LbSimTest, KeepAliveConnectionRunsAllRequests) {
  LbDevice lb(base_config(netsim::DispatchMode::Reuseport));
  LbDevice::ConnPlan plan;
  plan.remaining = 10;
  plan.cost_us = DistSpec::constant(100);
  plan.gap_us = DistSpec::constant(1000);
  ASSERT_NE(lb.open_connection(0, plan), 0u);
  lb.eq().run_until(SimTime::seconds(1));
  EXPECT_EQ(lb.totals().requests_completed, 10u);
  EXPECT_EQ(lb.live_connections(), 0u);
}

TEST(LbSimTest, ExclusiveConcentratesConnectionsLifo) {
  // Case-3-style long-lived connections at light load: the LIFO wakeup
  // sends nearly everything to the last-registered worker (highest id).
  auto cfg = base_config(netsim::DispatchMode::EpollExclusive);
  LbDevice lb(cfg);
  LbDevice::ConnPlan plan;
  plan.remaining = 100;                      // long-lived
  plan.cost_us = DistSpec::constant(50);     // light
  plan.gap_us = DistSpec::exponential(200'000);
  for (int i = 0; i < 200; ++i) {
    const SimTime at = SimTime::millis(2 * i);
    lb.eq().schedule_at(at, [&lb, plan, i] {
      lb.open_connection(static_cast<TenantId>(i % 4), plan);
    });
  }
  lb.eq().run_until(SimTime::seconds(1));
  const auto accepts = accepts_per_worker(lb);
  const uint64_t top = *std::max_element(accepts.begin(), accepts.end());
  const uint64_t total = 200;
  // The head worker (id 3) hoards the vast majority.
  EXPECT_EQ(accepts[3], top);
  EXPECT_GT(static_cast<double>(top) / total, 0.8);
}

TEST(LbSimTest, ReuseportSpreadsConnections) {
  LbDevice lb(base_config(netsim::DispatchMode::Reuseport));
  LbDevice::ConnPlan plan;
  plan.remaining = 100;
  plan.cost_us = DistSpec::constant(50);
  plan.gap_us = DistSpec::exponential(200'000);
  for (int i = 0; i < 400; ++i) {
    lb.eq().schedule_at(SimTime::millis(i), [&lb, plan, i] {
      lb.open_connection(static_cast<TenantId>(i % 4), plan);
    });
  }
  lb.eq().run_until(SimTime::seconds(1));
  const auto accepts = accepts_per_worker(lb);
  for (uint64_t a : accepts) {
    EXPECT_NEAR(static_cast<double>(a), 100.0, 45.0);  // hash spread
  }
}

TEST(LbSimTest, HermesSpreadsConnectionsTighter) {
  LbDevice lb(base_config(netsim::DispatchMode::HermesMode));
  LbDevice::ConnPlan plan;
  plan.remaining = 100;
  plan.cost_us = DistSpec::constant(50);
  plan.gap_us = DistSpec::exponential(200'000);
  for (int i = 0; i < 400; ++i) {
    lb.eq().schedule_at(SimTime::millis(i), [&lb, plan, i] {
      lb.open_connection(static_cast<TenantId>(i % 4), plan);
    });
  }
  lb.eq().run_until(SimTime::seconds(1));
  // Hermes's conn-count filter keeps the distribution tight (paper Fig. 13:
  // conn SD 20 vs reuseport 50 vs exclusive 3200).
  const auto conns = conns_per_worker(lb);
  const auto [mn, mx] = std::minmax_element(conns.begin(), conns.end());
  EXPECT_LE(*mx - *mn, 30);
  EXPECT_GT(
      lb.netstack().group(LbDevice::kFirstPort)->stats().bpf_selections, 0u);
}

TEST(LbSimTest, HermesBypassesHungWorker) {
  auto cfg = base_config(netsim::DispatchMode::HermesMode);
  LbDevice lb(cfg);

  // Poison one connection so its owner wedges for 2 seconds.
  LbDevice::ConnPlan poison;
  poison.remaining = 1;
  poison.cost_us = DistSpec::constant(2'000'000);
  ASSERT_NE(lb.open_connection(0, poison), 0u);
  lb.eq().run_until(SimTime::millis(100));

  // Identify the wedged worker: the one not blocked.
  WorkerId hung = kInvalidWorker;
  for (WorkerId w = 0; w < lb.num_workers(); ++w) {
    if (!lb.worker(w).blocked()) hung = w;
  }
  ASSERT_NE(hung, kInvalidWorker);

  // Now open many short connections; none should land on the hung worker
  // (Hermes), because its loop-entry timestamp is stale.
  const uint64_t before = lb.worker(hung).accepts_done();
  LbDevice::ConnPlan quick;
  quick.remaining = 1;
  quick.cost_us = DistSpec::constant(100);
  for (int i = 0; i < 200; ++i) {
    lb.eq().schedule_at(SimTime::millis(101 + i), [&lb, quick, i] {
      lb.open_connection(static_cast<TenantId>(i % 4), quick);
    });
  }
  lb.eq().run_until(SimTime::millis(400));
  EXPECT_EQ(lb.worker(hung).accepts_done(), before);
  EXPECT_GE(lb.totals().requests_completed, 200u);
}

TEST(LbSimTest, ReuseportKeepsFeedingHungWorker) {
  LbDevice lb(base_config(netsim::DispatchMode::Reuseport));
  LbDevice::ConnPlan poison;
  poison.remaining = 1;
  poison.cost_us = DistSpec::constant(2'000'000);
  ASSERT_NE(lb.open_connection(0, poison), 0u);
  lb.eq().run_until(SimTime::millis(100));

  WorkerId hung = kInvalidWorker;
  for (WorkerId w = 0; w < lb.num_workers(); ++w) {
    if (!lb.worker(w).blocked()) hung = w;
  }
  ASSERT_NE(hung, kInvalidWorker);

  LbDevice::ConnPlan quick;
  quick.remaining = 1;
  quick.cost_us = DistSpec::constant(100);
  for (int i = 0; i < 400; ++i) {
    lb.eq().schedule_at(SimTime::millis(101 + i / 2), [&lb, quick, i] {
      lb.open_connection(static_cast<TenantId>(i % 4), quick);
    });
  }
  lb.eq().run_until(SimTime::millis(400));
  // Stateless hashing still queues connections on the hung worker's socket.
  const size_t queued =
      lb.netstack().worker_socket(LbDevice::kFirstPort, hung) == nullptr
          ? 0
          : [&] {
              size_t total = 0;
              for (uint32_t p = 0; p < lb.config().num_ports; ++p) {
                total += lb.netstack()
                             .worker_socket(static_cast<PortId>(
                                                LbDevice::kFirstPort + p),
                                            hung)
                             ->accept_queue()
                             .size();
              }
              return total;
            }();
  EXPECT_GT(queued, 0u);
}

TEST(LbSimTest, PatternDriverGeneratesExpectedVolume) {
  auto cfg = base_config(netsim::DispatchMode::HermesMode);
  LbDevice lb(cfg);
  TrafficPattern p = case_pattern(1, /*workers=*/4, /*load=*/0.5);
  lb.start_pattern(p, 0, 4, SimTime::seconds(2));
  lb.eq().run_until(SimTime::seconds(3));
  const double expected = p.cps * 2.0;
  EXPECT_NEAR(static_cast<double>(lb.totals().conns_opened), expected,
              expected * 0.15);
  // Underloaded: essentially everything completes.
  EXPECT_GT(lb.totals().requests_completed,
            lb.totals().requests_generated * 95 / 100);
}

TEST(LbSimTest, DeterministicForSeed) {
  auto run = [](uint64_t seed) {
    LbDevice lb(base_config(netsim::DispatchMode::HermesMode, seed));
    lb.start_pattern(case_pattern(3, 4, 1.0), 0, 4, SimTime::seconds(1));
    lb.eq().run_until(SimTime::seconds(2));
    return std::tuple{lb.totals().requests_completed,
                      lb.totals().conns_opened,
                      lb.take_window_latency().p99()};
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(LbSimTest, SamplerTracksUtilization) {
  LbDevice lb(base_config(netsim::DispatchMode::HermesMode));
  lb.start_pattern(case_pattern(1, 4, 1.0), 0, 4, SimTime::seconds(2));
  lb.start_sampling(SimTime::millis(500), SimTime::seconds(2));
  lb.eq().run_until(SimTime::seconds(2));
  ASSERT_GE(lb.samples().size(), 3u);
  // Under case-1 load the LB is busy but not saturated.
  const auto& s = lb.samples().back();
  EXPECT_GT(s.cpu_avg, 0.05);
  EXPECT_LT(s.cpu_avg, 0.95);
  EXPECT_GE(s.cpu_max, s.cpu_avg);
  EXPECT_LE(s.cpu_min, s.cpu_avg);
}

TEST(LbSimTest, BurstDeliversToAllLiveConnections) {
  LbDevice lb(base_config(netsim::DispatchMode::Reuseport));
  LbDevice::ConnPlan plan;
  plan.remaining = 2;  // stays open waiting for a 2nd request
  plan.cost_us = DistSpec::constant(100);
  plan.gap_us = DistSpec::constant(10'000'000);  // long think time
  for (int i = 0; i < 50; ++i) {
    lb.open_connection(static_cast<TenantId>(i % 4), plan);
  }
  lb.eq().run_until(SimTime::millis(500));
  const uint64_t before = lb.totals().requests_generated;
  lb.eq().schedule_at(SimTime::millis(600), [&lb] {
    lb.burst_all_connections(DistSpec::constant(200), 2);
  });
  lb.eq().run_until(SimTime::millis(700));
  EXPECT_EQ(lb.totals().requests_generated, before + 100);
}

TEST(LbSimTest, ProbeCountsDelayedProbes) {
  LbDevice lb(base_config(netsim::DispatchMode::Reuseport));
  // Wedge all workers with poison, then probe one wedged worker's core
  // every 100 ms for 2 s, round-robin over the workers.
  LbDevice::ConnPlan poison;
  poison.remaining = 1;
  poison.cost_us = DistSpec::constant(3'000'000);
  for (int i = 0; i < 16; ++i) {
    lb.open_connection(static_cast<TenantId>(i % 4), poison);
  }
  lb.eq().run_until(SimTime::millis(50));
  for (WorkerId w = 0; w < lb.num_workers(); ++w) {
    ASSERT_GT(lb.worker(w).live_connections(), 0) << "worker " << w;
  }
  constexpr int kProbes = 20;
  for (int i = 1; i <= kProbes; ++i) {
    lb.eq().schedule_at(SimTime::millis(100 * i), [&lb, i] {
      lb.inject_core_probe(static_cast<WorkerId>(i % lb.num_workers()));
    });
  }
  // A probe is counted when it completes: run until the wedge drains.
  lb.eq().run_until(SimTime::seconds(30));
  EXPECT_EQ(lb.totals().requests_completed, 16u + kProbes);
  EXPECT_EQ(lb.delayed_probes(), static_cast<uint64_t>(kProbes));
}

TEST(LbSimTest, DispatcherHandsConnectionsRoundRobinToServingWorkers) {
  LbDevice lb(base_config(netsim::DispatchMode::UserDispatcher));
  LbDevice::ConnPlan plan;
  plan.remaining = 1;
  plan.cost_us = DistSpec::constant(100);
  // One burst, drained by one dispatcher run: 31 connections over the
  // serving workers 1..3, starting at worker 1.
  constexpr int kConns = 31;
  for (int i = 0; i < kConns; ++i) {
    ASSERT_NE(lb.open_connection(static_cast<TenantId>(i % 4), plan), 0u);
  }
  lb.eq().run_until(SimTime::seconds(1));
  // Worker 0's loop is the dispatcher: its events are the connections it
  // accepted, and it adopts none of them.
  EXPECT_EQ(lb.worker(0).events_per_wait().sum,
            static_cast<uint64_t>(kConns));
  EXPECT_EQ(lb.worker(0).accepts_done(), 0u);
  EXPECT_EQ(lb.worker(0).requests_done(), 0u);
  EXPECT_EQ(lb.worker(1).accepts_done(), 11u);
  EXPECT_EQ(lb.worker(2).accepts_done(), 10u);
  EXPECT_EQ(lb.worker(3).accepts_done(), 10u);
  EXPECT_EQ(lb.totals().requests_completed, static_cast<uint64_t>(kConns));
}

TEST(LbSimTest, ConnectionClosedDuringDispatcherHandOffIsNeverAccepted) {
  LbDevice lb(base_config(netsim::DispatchMode::UserDispatcher));
  LbDevice::ConnPlan plan;
  plan.remaining = 1;
  constexpr int kConns = 32;
  for (int i = 0; i < kConns; ++i) {
    ASSERT_NE(lb.open_connection(static_cast<TenantId>(i % 4), plan), 0u);
  }
  // The dispatcher accepts the burst at once but hands it over only after
  // 32 x Worker::kDispatchCost; every connection is closed in between.
  uint64_t closed = 0;
  lb.eq().schedule_at(SimTime::micros(100),
                      [&lb, &closed] { closed = lb.close_fraction(1.0); });
  lb.eq().run_until(SimTime::seconds(1));
  EXPECT_EQ(closed, static_cast<uint64_t>(kConns));
  EXPECT_EQ(lb.worker(0).events_per_wait().sum,
            static_cast<uint64_t>(kConns));
  for (WorkerId w = 0; w < lb.num_workers(); ++w) {
    EXPECT_EQ(lb.worker(w).accepts_done(), 0u) << "worker " << w;
    EXPECT_EQ(lb.worker(w).live_connections(), 0) << "worker " << w;
  }
  EXPECT_EQ(lb.totals().requests_generated, 0u);
  EXPECT_EQ(lb.live_connections(), 0u);
  EXPECT_EQ(lb.netstack().live_connections(), 0u);
}

// Worker 0's loop is the dispatcher, so core 0's busy time is exactly
// the dispatch work (an epoll return per iteration, kDispatchCost per
// connection) and the device's CPU samples include it.
TEST(LbSimTest, DispatcherWorkIsWorkerZerosBusyTime) {
  LbDevice lb(base_config(netsim::DispatchMode::UserDispatcher));
  TrafficPattern p;
  p.cps = 20'000;
  p.requests_per_conn = DistSpec::constant(1);
  // 10 us per connection on each of three serving workers: the
  // dispatcher's 18 us makes core 0 the busiest.
  p.request_cost_us = DistSpec::constant(30);
  lb.start_pattern(p, 0, lb.config().num_ports, SimTime::seconds(1));

  Worker& d = lb.worker(0);
  const auto dispatch_work = [&] {
    return lb.config().worker.wakeup_cost *
               static_cast<int64_t>(d.loop_iterations()) +
           Worker::kDispatchCost *
               static_cast<int64_t>(d.events_per_wait().sum);
  };
  lb.eq().run_until(SimTime::millis(200));
  lb.sample_now();
  EXPECT_EQ(d.busy_time(), dispatch_work());
  std::vector<SimTime> before;
  for (WorkerId w = 0; w < lb.num_workers(); ++w) {
    before.push_back(lb.worker(w).busy_time());
  }

  lb.eq().run_until(SimTime::millis(700));
  const LbDevice::Sample s = lb.sample_now();
  EXPECT_EQ(d.busy_time(), dispatch_work());
  EXPECT_GT(d.events_per_wait().sum, 10'000u);
  EXPECT_EQ(d.accepts_done(), 0u);
  EXPECT_EQ(d.requests_done(), 0u);

  // Each core's share of the 500 ms window, as sample_now computes it.
  std::vector<double> util;
  for (WorkerId w = 0; w < lb.num_workers(); ++w) {
    util.push_back(
        static_cast<double>((lb.worker(w).busy_time() - before[w]).ns()) /
        static_cast<double>(SimTime::millis(500).ns()));
  }
  // 20k CPS, mostly one connection per iteration: 20k x (18 + 2) us.
  EXPECT_NEAR(util[0], 0.40, 0.02);
  EXPECT_EQ(*std::max_element(util.begin(), util.end()), util[0]);
  EXPECT_DOUBLE_EQ(s.cpu_max, util[0]);
  EXPECT_DOUBLE_EQ(s.cpu_avg, std::accumulate(util.begin(), util.end(), 0.0) /
                                  static_cast<double>(util.size()));
}

TEST(LbSimTest, FirstLatencyTakeCoversTheWholeRun) {
  LbDevice lb(base_config(netsim::DispatchMode::HermesMode));
  LbDevice::ConnPlan plan;
  plan.remaining = 1;
  plan.cost_us = DistSpec::constant(200);
  auto open = [&lb, &plan](int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_NE(lb.open_connection(static_cast<TenantId>(i % 4), plan), 0u);
    }
  };
  open(5);
  lb.eq().run_until(SimTime::seconds(1));
  open(3);
  lb.eq().run_until(SimTime::seconds(2));
  // Nothing was taken before: the first take holds every request so far.
  const auto first = lb.take_window_latency();
  EXPECT_EQ(first.count, 8u);
  EXPECT_EQ(first.count, lb.totals().requests_completed);
  // Each later take holds only what completed since the previous one.
  open(2);
  lb.eq().run_until(SimTime::seconds(3));
  EXPECT_EQ(lb.take_window_latency().count, 2u);
  EXPECT_EQ(lb.take_window_latency().count, 0u);
}

TEST(LbSimTest, DegradationSweepMovesConnectionsOffHungWorker) {
  auto cfg = base_config(netsim::DispatchMode::HermesMode);
  cfg.hermes.degradation_after = SimTime::millis(200);
  cfg.hermes.degradation_reset_fraction = 0.5;
  LbDevice lb(cfg);

  // Long-lived connections concentrated by construction: open some, then
  // wedge one worker with poison.
  LbDevice::ConnPlan longlived;
  longlived.remaining = 5;
  longlived.cost_us = DistSpec::constant(100);
  longlived.gap_us = DistSpec::constant(5'000'000);
  for (int i = 0; i < 40; ++i) {
    lb.open_connection(static_cast<TenantId>(i % 4), longlived);
  }
  lb.eq().run_until(SimTime::millis(50));

  LbDevice::ConnPlan poison;
  poison.remaining = 1;
  poison.cost_us = DistSpec::constant(5'000'000);
  lb.open_connection(0, poison);
  lb.eq().run_until(SimTime::millis(100));

  // Sweep periodically; after the hang threshold, resets should fire.
  for (int t = 1; t <= 20; ++t) {
    lb.eq().schedule_at(SimTime::millis(100 + 100 * t),
                        [&lb] { lb.run_degradation_sweep(); });
  }
  lb.eq().run_until(SimTime::seconds(3));
  EXPECT_GT(lb.totals().degradation_resets, 0u);
}

TEST(LbSimTest, SynRetransmissionRecoversDroppedConnections) {
  auto cfg = base_config(netsim::DispatchMode::Reuseport);
  cfg.num_workers = 1;
  cfg.num_ports = 1;
  cfg.backlog = 2;
  cfg.syn_retries = 3;
  cfg.syn_retry_timeout = SimTime::millis(100);
  LbDevice lb(cfg);

  // Burst of 6 instant SYNs into a backlog of 2: 4 drop, then retry.
  LbDevice::ConnPlan plan;
  plan.remaining = 1;
  plan.cost_us = DistSpec::constant(100);
  for (int i = 0; i < 6; ++i) lb.open_connection(0, plan);
  EXPECT_EQ(lb.totals().conns_dropped, 4u);
  EXPECT_EQ(lb.totals().syn_retransmits, 4u);

  lb.eq().run_until(SimTime::seconds(3));
  // Retries eventually land everything.
  EXPECT_EQ(lb.totals().requests_completed, 6u);
  // The late connections' latency includes the retry backoff: well over
  // the 100 ms first backoff, measured from the ORIGINAL SYN.
  EXPECT_GT(lb.take_window_latency().max_value(),
            SimTime::millis(100).ns());
}

TEST(LbSimTest, SynRetriesExhaustAndGiveUp) {
  auto cfg = base_config(netsim::DispatchMode::Reuseport);
  cfg.num_workers = 1;
  cfg.num_ports = 1;
  cfg.backlog = 1;
  cfg.syn_retries = 2;
  cfg.syn_retry_timeout = SimTime::millis(50);
  LbDevice lb(cfg);

  // Wedge the lone worker so the backlog never drains, then flood.
  LbDevice::ConnPlan poison;
  poison.remaining = 1;
  poison.cost_us = DistSpec::constant(10'000'000);
  lb.open_connection(0, poison);
  lb.eq().run_until(SimTime::millis(10));
  LbDevice::ConnPlan plan;
  for (int i = 0; i < 4; ++i) lb.open_connection(0, plan);
  lb.eq().run_until(SimTime::seconds(2));
  // Each dropped SYN retried at most twice, then gave up for good.
  EXPECT_LE(lb.totals().syn_retransmits, 8u);
  EXPECT_GT(lb.totals().conns_dropped, 4u);
}

TEST(LbSimTest, PatternConnectionsShareOnePlanShape) {
  // Every connection of one pattern has the same distributions, so the
  // live rows share a single plan shape however many there are.
  LbDevice lb(base_config(netsim::DispatchMode::HermesMode));
  TrafficPattern p;
  p.cps = 2000;
  p.requests_per_conn = DistSpec::uniform(2, 6);
  p.request_gap_us = DistSpec::exponential(50'000);
  lb.start_pattern(p, 0, 4, SimTime::millis(500));
  lb.eq().run_until(SimTime::millis(400));
  EXPECT_GT(lb.live_connections(), 100u);
  EXPECT_EQ(lb.live_plan_shapes(), 1u);
  lb.eq().run_until(SimTime::seconds(5));
  EXPECT_EQ(lb.live_connections(), 0u);
  EXPECT_EQ(lb.live_plan_shapes(), 0u);
}

TEST(LbSimTest, NanPlanFieldsStillShareAShape) {
  // Shapes match bitwise, so a NaN field (which compares unequal to
  // itself) does not give every connection its own shape.
  LbDevice lb(base_config(netsim::DispatchMode::HermesMode));
  LbDevice::ConnPlan plan;
  plan.remaining = 2;
  plan.poison_fraction = std::numeric_limits<double>::quiet_NaN();
  for (int i = 0; i < 10; ++i) lb.open_connection(0, plan);
  EXPECT_EQ(lb.live_connections(), 10u);
  EXPECT_EQ(lb.live_plan_shapes(), 1u);
  lb.eq().run_until(SimTime::seconds(5));
  EXPECT_EQ(lb.totals().requests_completed, 20u);
  EXPECT_EQ(lb.live_plan_shapes(), 0u);
}

TEST(LbSimTest, TracePlanShapesDrainWithTheirConnections) {
  // Trace replay gives every connection its own constant distributions,
  // so no two plans match: shapes stay bounded by live connections and
  // all of them are freed once the connections drain.
  LbDevice lb(base_config(netsim::DispatchMode::HermesMode));
  TrafficPattern p = case_pattern(3, /*workers=*/4, /*load=*/1.0);
  p.cps = 500;
  Rng rng(11);
  const Trace trace = Trace::record(p, SimTime::millis(300), 4, rng);
  ASSERT_GT(trace.entries().size(), 50u);
  TraceReplayer::replay(trace, lb);
  size_t peak_shapes = 0;
  for (int ms = 10; ms <= 300; ms += 10) {
    lb.eq().run_until(SimTime::millis(ms));
    EXPECT_LE(lb.live_plan_shapes(), lb.live_connections());
    peak_shapes = std::max(peak_shapes, lb.live_plan_shapes());
  }
  EXPECT_GT(peak_shapes, 10u);
  lb.eq().run_until(SimTime::seconds(120));
  EXPECT_EQ(lb.live_connections(), 0u);
  EXPECT_EQ(lb.live_plan_shapes(), 0u);
}

TEST(LbSimTest, DegradationResetReopensWithTheSamePlan) {
  // Connections are idle in a 1 s think gap when one sweep resets every
  // connection of a hung worker. Each reopened connection must carry its
  // plan over from the row: the same cost and gap distributions and the
  // same remaining count, so each tenant completes exactly kRequests.
  auto cfg = base_config(netsim::DispatchMode::HermesMode);
  cfg.hermes.degradation_after = SimTime::millis(200);
  cfg.hermes.degradation_reset_fraction = 1.0;
  LbDevice lb(cfg);

  constexpr int kConns = 40;
  constexpr int kRequests = 4;
  constexpr TenantId kPoisonTenant = 1000;
  struct Seen {
    int count = 0;
    SimTime min_latency = SimTime::seconds(1000);
    SimTime last_done{};
    bool done_at_sweep = false;
  };
  std::map<TenantId, Seen> seen;
  const SimTime sweep_at = SimTime::millis(400);
  lb.set_request_done_fn([&](TenantId t, SimTime latency) {
    Seen& s = seen[t];
    ++s.count;
    s.min_latency = std::min(s.min_latency, latency);
    s.last_done = lb.eq().now();
    // A reset connection's first request goes out at the sweep.
    s.done_at_sweep |= lb.eq().now() - latency == sweep_at;
  });

  LbDevice::ConnPlan plan;
  plan.remaining = kRequests;
  plan.cost_us = DistSpec::constant(700);
  plan.gap_us = DistSpec::constant(1'000'000);
  for (int i = 0; i < kConns; ++i) {
    lb.open_connection(static_cast<TenantId>(i), plan);
  }
  lb.eq().run_until(SimTime::millis(50));

  LbDevice::ConnPlan poison;
  poison.cost_us = DistSpec::constant(3'000'000);
  lb.open_connection(kPoisonTenant, poison);
  lb.eq().schedule_at(sweep_at, [&lb] { lb.run_degradation_sweep(); });
  lb.eq().run_until(SimTime::seconds(30));

  ASSERT_GT(lb.totals().degradation_resets, 1u);
  EXPECT_EQ(lb.live_connections(), 0u);
  EXPECT_EQ(lb.live_plan_shapes(), 0u);
  int reset_tenants = 0;
  for (int i = 0; i < kConns; ++i) {
    const Seen& s = seen[static_cast<TenantId>(i)];
    EXPECT_EQ(s.count, kRequests) << "tenant " << i;
    EXPECT_GE(s.min_latency, SimTime::micros(700)) << "tenant " << i;
    if (!s.done_at_sweep) continue;
    ++reset_tenants;
    // Reopened at the sweep with kRequests - 1 left, 1 s apart.
    EXPECT_GE(s.last_done, sweep_at + SimTime::seconds(kRequests - 2))
        << "tenant " << i;
  }
  // Every reset but the poison connection's was a planned connection.
  EXPECT_EQ(static_cast<uint64_t>(reset_tenants),
            lb.totals().degradation_resets - 1);
}

// The serving workers watch no socket, so an iteration costs them the
// epoll return alone: no per-port scan, however many ports are bound.
TEST(LbSimTest, ServingWorkersPayNoPortScan) {
  LbDevice::Config cfg = base_config(netsim::DispatchMode::UserDispatcher);
  cfg.num_ports = 32;
  LbDevice lb(cfg);
  LbDevice::ConnPlan plan;
  plan.remaining = 3;
  plan.cost_us = DistSpec::constant(100);
  plan.gap_us = DistSpec::constant(2'000);
  for (int i = 0; i < 30; ++i) {
    ASSERT_NE(lb.open_connection(static_cast<TenantId>(i), plan), 0u);
  }
  lb.eq().run_until(SimTime::millis(500));
  EXPECT_EQ(lb.totals().requests_completed, 90u);
  for (WorkerId w = 1; w < lb.num_workers(); ++w) {
    Worker& s = lb.worker(w);
    EXPECT_EQ(s.requests_done(), 30u) << "worker " << w;
    EXPECT_EQ(s.busy_time().ns(),
              cfg.worker.wakeup_cost.ns() *
                      static_cast<int64_t>(s.loop_iterations()) +
                  static_cast<int64_t>(s.event_processing_time().sum))
        << "worker " << w;
  }
}

// A request delivered to the dispatcher's core (a per-core probe) is
// served by worker 0's loop like any other, and the loop then blocks.
TEST(LbSimTest, DispatcherServesACoreProbe) {
  LbDevice lb(base_config(netsim::DispatchMode::UserDispatcher));
  lb.inject_core_probe(0);
  lb.eq().run_until(SimTime::millis(20));
  EXPECT_EQ(lb.totals().requests_completed, 1u);
  EXPECT_EQ(lb.worker(0).requests_done(), 1u);
  // One iteration serves the probe; the rest are 5 ms epoll timeouts.
  EXPECT_LE(lb.worker(0).loop_iterations(), 6u);
  EXPECT_TRUE(lb.worker(0).blocked());
}

// ---- Stage 2 is a span of the worker loop ---------------------------------

// A Hermes worker's busy time at a quiet moment, from its own counts: an
// epoll return per iteration, its events, and per Stage-2 run 60 ns for
// each worker of its group's `width`, plus 1 us per bitmap it published.
SimTime expected_hermes_busy(LbDevice& lb, WorkerId w, int64_t width) {
  Worker& wk = lb.worker(w);
  const obs::PipelineMetrics& m = lb.obs()->metrics;
  return SimTime::micros(2) * static_cast<int64_t>(wk.loop_iterations()) +
         SimTime{static_cast<int64_t>(wk.event_processing_time().sum)} +
         SimTime::nanos(60) *
             (width * static_cast<int64_t>(m.filter_runs->shard_value(w))) +
         SimTime::micros(1) *
             static_cast<int64_t>(m.sync_published->shard_value(w));
}

LbDevice::Config hermes_config(uint32_t workers) {
  LbDevice::Config cfg = base_config(netsim::DispatchMode::HermesMode);
  cfg.num_workers = workers;
  return cfg;
}

// A 50 us probe on an idle worker at 1 ms; returns when it was served.
SimTime serve_probe(LbDevice& lb, WorkerId w) {
  const SimTime t0 = SimTime::millis(1);
  lb.eq().run_until(t0);
  EXPECT_TRUE(lb.worker(w).blocked());
  EXPECT_EQ(lb.worker(w).busy_time(), SimTime::zero());
  lb.inject_core_probe(w, SimTime::micros(50));
  return t0 + SimTime::micros(2) + SimTime::micros(50);
}

// Stage 2 runs after the last event, for 8 x 60 ns (+1 us if it
// publishes), and the next loop entry's heartbeat comes after it.
TEST(LbSimTest, Stage2IsASpanBeforeTheNextLoopEntry) {
  LbDevice lb(hermes_config(8));
  Worker& w = lb.worker(3);
  const SimTime served = serve_probe(lb, 3);
  lb.eq().run_until(served + SimTime::nanos(100));
  EXPECT_FALSE(w.blocked());
  EXPECT_EQ(w.busy_time(), SimTime::micros(52) + SimTime::nanos(100));
  EXPECT_EQ(lb.hermes()->wst().read(3).loop_enter_ns, 0);  // start()'s

  lb.eq().run_until(SimTime::millis(2));
  ASSERT_TRUE(w.blocked());
  const SimTime stage2 = expected_hermes_busy(lb, 3, 8) - SimTime::micros(52);
  EXPECT_GE(stage2, SimTime::nanos(8 * 60));
  EXPECT_LE(stage2, SimTime::nanos(8 * 60) + SimTime::micros(1));
  EXPECT_EQ(lb.hermes()->wst().read(3).loop_enter_ns, (served + stage2).ns());
  EXPECT_EQ(w.busy_time(), SimTime::micros(52) + stage2);
}

// Under traffic, every Hermes worker's busy time is exactly the costs it
// ran: epoll returns, events, and Stage 2 at the group's 8 workers.
TEST(LbSimTest, HermesBusyTimeIsEveryCostItRan) {
  LbDevice lb(hermes_config(8));
  lb.start_pattern(case_pattern(1, 8, 1.0), 0, lb.config().num_ports,
                   SimTime::millis(200));
  lb.eq().run_until(SimTime::millis(300));
  EXPECT_GT(lb.totals().requests_completed, 1000u);
  for (WorkerId w = 0; w < lb.num_workers(); ++w) {
    ASSERT_TRUE(lb.worker(w).blocked()) << "worker " << w;  // no span open
    EXPECT_EQ(lb.worker(w).busy_time(), expected_hermes_busy(lb, w, 8))
        << "worker " << w;
  }
}

// The §5.3.2 ablation runs Stage 2 at the loop start: it pays the same
// span there, and it too waits out min_sync_interval.
TEST(LbSimTest, Stage2AtLoopStartPaysTheSameSpan) {
  LbDevice::Config cfg = hermes_config(8);
  cfg.worker.schedule_at_loop_start = true;
  cfg.worker.min_sync_interval = SimTime::millis(10);
  LbDevice lb(cfg);
  lb.start_pattern(case_pattern(1, 8, 1.0), 0, cfg.num_ports,
                   SimTime::millis(200));
  lb.eq().run_until(SimTime::millis(300));
  EXPECT_GT(lb.totals().requests_completed, 1000u);
  for (WorkerId w = 0; w < lb.num_workers(); ++w) {
    const uint64_t schedules = lb.obs()->metrics.filter_runs->shard_value(w);
    // At least 10 ms apart over [0, 300 ms], against an iteration every
    // 5 ms even when idle.
    EXPECT_GT(schedules, 0u) << "worker " << w;
    EXPECT_LE(schedules, 31u) << "worker " << w;
    EXPECT_GT(lb.worker(w).loop_iterations(), 60u) << "worker " << w;
    ASSERT_TRUE(lb.worker(w).blocked()) << "worker " << w;
    EXPECT_EQ(lb.worker(w).busy_time(), expected_hermes_busy(lb, w, 8))
        << "worker " << w;
  }
}

// On 96 workers the second group holds 32: its Stage 2 scans 32 workers,
// not the configured 64.
TEST(LbSimTest, Stage2CostsTheGroupsLiveWidth) {
  LbDevice lb(hermes_config(96));
  EXPECT_EQ(lb.hermes()->group_width(5), 64u);
  EXPECT_EQ(lb.hermes()->group_width(70), 32u);
  serve_probe(lb, 70);
  lb.eq().run_until(SimTime::millis(2));
  ASSERT_TRUE(lb.worker(70).blocked());
  EXPECT_EQ(lb.obs()->metrics.filter_runs->shard_value(70), 1u);
  const SimTime busy = lb.worker(70).busy_time();
  EXPECT_EQ(busy, expected_hermes_busy(lb, 70, 32));
  EXPECT_GE(busy, SimTime::micros(52) + SimTime::nanos(32 * 60));
  EXPECT_LE(busy, SimTime::micros(53) + SimTime::nanos(32 * 60));
}

}  // namespace
}  // namespace hermes::sim
