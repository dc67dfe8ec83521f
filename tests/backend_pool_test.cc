// Backend round-robin start-offset fix and shared connection pool (§7).
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/backend_pool.h"

namespace hermes::core {
namespace {

// Reproduce the deployment incident: after a synchronized list update,
// non-randomized workers all start at backend 0, so with few requests per
// worker the first backends get a multiple of the others' traffic.
TEST(RoundRobinTest, SynchronizedRestartOverloadsFirstBackends) {
  constexpr uint32_t kWorkers = 16;
  RoundRobinBackends rr(kWorkers, /*randomize_start=*/false);
  rr.update_backends({0, 1, 2, 3, 4, 5, 6, 7}, /*seed=*/1);

  std::map<BackendId, int> traffic;
  // Each worker forwards only 2 requests after the update (Hermes spreads
  // load, so per-worker request counts are small).
  for (WorkerId w = 0; w < kWorkers; ++w) {
    traffic[rr.pick(w)]++;
    traffic[rr.pick(w)]++;
  }
  EXPECT_EQ(traffic[0], 16);  // every worker hit backend 0 first
  EXPECT_EQ(traffic[1], 16);
  EXPECT_EQ(traffic.count(2), 0u);  // backends 2..7 got nothing
}

TEST(RoundRobinTest, RandomizedStartSpreadsAfterUpdate) {
  constexpr uint32_t kWorkers = 16;
  RoundRobinBackends rr(kWorkers, /*randomize_start=*/true);
  rr.update_backends({0, 1, 2, 3, 4, 5, 6, 7}, /*seed=*/1);

  std::map<BackendId, int> traffic;
  for (WorkerId w = 0; w < kWorkers; ++w) {
    traffic[rr.pick(w)]++;
    traffic[rr.pick(w)]++;
  }
  // No backend should receive more than half of all requests.
  for (const auto& [b, n] : traffic) {
    EXPECT_LE(n, 16) << "backend " << b;
  }
  EXPECT_GE(traffic.size(), 4u);  // load reaches a spread of backends
}

TEST(RoundRobinTest, PerWorkerCursorIsRoundRobin) {
  RoundRobinBackends rr(1, false);
  rr.update_backends({10, 20, 30}, 0);
  EXPECT_EQ(rr.pick(0), 10u);
  EXPECT_EQ(rr.pick(0), 20u);
  EXPECT_EQ(rr.pick(0), 30u);
  EXPECT_EQ(rr.pick(0), 10u);  // wraps
}

TEST(RoundRobinTest, UpdateResetsCursors) {
  RoundRobinBackends rr(1, false);
  rr.update_backends({1, 2}, 0);
  rr.pick(0);
  rr.update_backends({7, 8, 9}, 0);
  EXPECT_EQ(rr.pick(0), 7u);
  EXPECT_EQ(rr.num_backends(), 3u);
}

// ---- connection pool -----------------------------------------------------

// Unbounded and never expiring: reuse-or-miss accounting only.
BackendConnectionPool::Config counting(uint32_t workers, bool shared) {
  return {shared, workers, UINT32_MAX, SimTime{}};
}

TEST(PoolTest, PerWorkerPoolCannotReuseAcrossWorkers) {
  BackendConnectionPool pool(counting(4, /*shared=*/false));
  // Worker 0 finishes a request to backend 5: idle conn parked in w0's pool.
  pool.release(0, 5, 0, SimTime{});
  // Other worker: miss, new handshake; same worker: hit.
  EXPECT_FALSE(pool.acquire(1, 5, SimTime{}).has_value());
  EXPECT_TRUE(pool.acquire(0, 5, SimTime{}).has_value());
}

TEST(PoolTest, SharedPoolReusesAcrossWorkers) {
  BackendConnectionPool pool(counting(4, /*shared=*/true));
  pool.release(0, 5, 0, SimTime{});
  EXPECT_TRUE(pool.acquire(3, 5, SimTime{}).has_value());   // any worker
  EXPECT_FALSE(pool.acquire(2, 5, SimTime{}).has_value());  // now consumed
}

TEST(PoolTest, HitRateAccounting) {
  BackendConnectionPool pool(counting(2, true));
  EXPECT_FALSE(pool.acquire(0, 1, SimTime{}).has_value());  // miss
  pool.release(0, 1, 0, SimTime{});
  EXPECT_TRUE(pool.acquire(1, 1, SimTime{}).has_value());  // hit
  EXPECT_DOUBLE_EQ(pool.stats().hit_rate(), 0.5);
}

// The §7 effect quantified: spread traffic over all workers and compare
// pool architectures. Shared pools keep reuse high under Hermes-style
// even distribution; per-worker pools fragment.
TEST(PoolTest, HermesSpreadFragmentsPerWorkerPools) {
  constexpr uint32_t kWorkers = 8;
  constexpr int kRequests = 4000;
  constexpr uint32_t kBackends = 4;

  auto run = [&](bool shared) {
    BackendConnectionPool pool(counting(kWorkers, shared));
    uint64_t x = 12345;
    for (int i = 0; i < kRequests; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      // Hermes-style: requests land on any worker uniformly.
      const WorkerId w = static_cast<WorkerId>((x >> 33) % kWorkers);
      const BackendId b = static_cast<BackendId>((x >> 17) % kBackends);
      const auto reused = pool.acquire(w, b, SimTime{});
      pool.release(w, b, reused ? reused->id : 0, SimTime{});
    }
    return pool.stats().hit_rate();
  };

  const double shared_rate = run(true);
  const double per_worker_rate = run(false);
  EXPECT_GT(shared_rate, 0.99);  // everything after warmup is a hit
  EXPECT_GT(shared_rate, per_worker_rate);
}

// ---- time-aware pool (LIFO-warm reuse, idle expiry, eviction bound) ------

TEST(PoolTest, LifoReturnsWarmestConnectionFirst) {
  BackendConnectionPool::Config cfg;
  cfg.shared = true;
  BackendConnectionPool pool(cfg);
  pool.release(0, 1, /*conn_id=*/101, SimTime::millis(1));
  pool.release(0, 1, /*conn_id=*/102, SimTime::millis(2));
  pool.release(0, 1, /*conn_id=*/103, SimTime::millis(3));

  // Warmest (most recently idled) first: best cwnd / TLS session state.
  EXPECT_EQ(pool.acquire(0, 1, SimTime::millis(4))->id, 103u);
  EXPECT_EQ(pool.acquire(0, 1, SimTime::millis(4))->id, 102u);
  EXPECT_EQ(pool.acquire(0, 1, SimTime::millis(4))->id, 101u);
  EXPECT_FALSE(pool.acquire(0, 1, SimTime::millis(4)).has_value());
}

TEST(PoolTest, IdleConnectionsExpireFromColdEnd) {
  BackendConnectionPool::Config cfg;
  cfg.idle_expiry = SimTime::millis(10);
  BackendConnectionPool pool(cfg);
  pool.release(0, 1, 201, SimTime::millis(0));   // cold
  pool.release(0, 1, 202, SimTime::millis(8));   // warm

  // At t=12ms only the t=0 connection has idled past 10ms.
  const auto got = pool.acquire(0, 1, SimTime::millis(12));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->id, 202u);
  EXPECT_EQ(pool.stats().expiries, 1u);
  // The expired one is gone, not acquirable.
  EXPECT_FALSE(pool.acquire(0, 1, SimTime::millis(12)).has_value());
}

TEST(PoolTest, MaxIdleBoundEvictsColdest) {
  BackendConnectionPool::Config cfg;
  cfg.max_idle_per_backend = 2;
  BackendConnectionPool pool(cfg);
  pool.release(0, 1, 301, SimTime::millis(1));
  pool.release(0, 1, 302, SimTime::millis(2));
  pool.release(0, 1, 303, SimTime::millis(3));  // bound hit: 301 evicted
  EXPECT_EQ(pool.stats().evictions, 1u);
  EXPECT_EQ(pool.idle_total(), 2u);
  EXPECT_EQ(pool.acquire(0, 1, SimTime::millis(4))->id, 303u);
  EXPECT_EQ(pool.acquire(0, 1, SimTime::millis(4))->id, 302u);
  EXPECT_FALSE(pool.acquire(0, 1, SimTime::millis(4)).has_value());
}

TEST(PoolTest, MintedIdentitySurvivesReuseCycles) {
  BackendConnectionPool pool(BackendConnectionPool::Config{});
  // A freshly established connection (id 0) gets a minted identity...
  pool.release(0, 1, 0, SimTime::zero());
  const auto first = pool.acquire(0, 1, SimTime::millis(1));
  ASSERT_TRUE(first.has_value());
  EXPECT_NE(first->id, 0u);
  // ...which is preserved across release/acquire cycles.
  pool.release(0, 1, first->id, SimTime::millis(2));
  const auto again = pool.acquire(0, 1, SimTime::millis(3));
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->id, first->id);
}

TEST(PoolTest, ZeroExpiryDisablesAging) {
  BackendConnectionPool::Config cfg;
  cfg.idle_expiry = SimTime{};  // disabled
  BackendConnectionPool pool(cfg);
  pool.release(0, 1, 401, SimTime::zero());
  // Even after an hour, the connection is still reusable.
  const auto got = pool.acquire(0, 1, SimTime::seconds(3600));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->id, 401u);
  EXPECT_EQ(pool.stats().expiries, 0u);
}

}  // namespace
}  // namespace hermes::core
