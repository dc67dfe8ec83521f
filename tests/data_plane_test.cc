// The L7 byte-level data plane inside the LB simulation: zero-copy vs
// copy-oracle differential (bit-identical streams) pinned to golden
// hashes, wire synthesis against per-byte reference formulas, backend
// connection pool reuse across keep-alive requests and resets,
// rate-limited admission, and fleet-level aggregation.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "http/conn_state.h"
#include "http/response.h"
#include "sim/fleet.h"
#include "sim/lb.h"
#include "sim/workload.h"

namespace hermes::sim {
namespace {

// Per-byte reference formulas for the synthesized wire, kept apart from
// the pattern-rendering implementation they check.
std::string ref_request_head(const Request& req, bool last_on_conn) {
  std::string s = "POST /t" + std::to_string(req.tenant) + "/r" +
                  std::to_string(req.id) + " HTTP/1.1\r\nHost: tenant-" +
                  std::to_string(req.tenant) +
                  ".svc.hermes\r\nUser-Agent: hermes-client\r\n"
                  "X-Request-Id: " +
                  std::to_string(req.id) + "\r\n";
  if (last_on_conn) s += "Connection: close\r\n";
  return s;
}

std::string ref_request_wire(const Request& req, bool last_on_conn,
                             uint64_t* body_len) {
  std::string s = ref_request_head(req, last_on_conn);
  const size_t overhead = s.size() + 40;
  *body_len = req.bytes > overhead ? req.bytes - overhead : 0;
  s += "Content-Length: " + std::to_string(*body_len) + "\r\n\r\n";
  for (uint64_t i = 0; i < *body_len; ++i) {
    s.push_back(static_cast<char>('a' + (req.id + i) % 26));
  }
  return s;
}

std::string ref_response_body(const Request& req) {
  std::string s;
  for (uint64_t i = 0; i < req.bytes; ++i) {
    s.push_back(static_cast<char>('A' + (req.id * 7 + i) % 26));
  }
  return s;
}

LbDevice::Config dp_config(bool zero_copy, uint64_t seed = 1) {
  LbDevice::Config cfg;
  cfg.mode = netsim::DispatchMode::HermesMode;
  cfg.num_workers = 4;
  cfg.num_ports = 4;
  cfg.seed = seed;
  cfg.data_plane.enabled = true;
  cfg.data_plane.zero_copy = zero_copy;
  return cfg;
}

void run_keepalive_mix(LbDevice& lb) {
  LbDevice::ConnPlan plan;
  plan.remaining = 8;  // keep-alive: 8 requests per connection
  plan.cost_us = DistSpec::constant(100);
  plan.gap_us = DistSpec::constant(500);
  plan.bytes = DistSpec::constant(700);
  for (int i = 0; i < 16; ++i) {
    lb.eq().schedule_at(SimTime::millis(i), [&lb, plan, i] {
      lb.open_connection(static_cast<TenantId>(i % 4), plan);
    });
  }
  lb.eq().run_until(SimTime::seconds(1));
}

TEST(DataPlaneTest, DisabledByDefault) {
  LbDevice::Config cfg;
  cfg.num_workers = 2;
  cfg.num_ports = 2;
  LbDevice lb(cfg);
  EXPECT_EQ(lb.data_plane(), nullptr);
  EXPECT_EQ(lb.rate_limiter(), nullptr);
}

TEST(DataPlaneTest, ForwardsEveryCompletedRequest) {
  LbDevice lb(dp_config(/*zero_copy=*/true));
  run_keepalive_mix(lb);
  ASSERT_NE(lb.data_plane(), nullptr);
  const DataPlane::Totals& t = lb.data_plane()->totals();
  EXPECT_EQ(lb.totals().requests_completed, 16u * 8u);
  EXPECT_EQ(t.requests_forwarded, lb.totals().requests_completed);
  EXPECT_EQ(t.responses_returned, t.requests_forwarded);
  EXPECT_EQ(t.parse_errors, 0u);
  EXPECT_GT(t.bytes_in, 0u);
  EXPECT_GT(t.bytes_out, 0u);
  // Zero-copy mode: the proxy path memcpy'd nothing.
  EXPECT_EQ(t.bytes_copied, 0u);
  EXPECT_GT(t.bytes_zero_copied, 0u);
  // All connections closed → no ConnState leaks.
  EXPECT_EQ(lb.data_plane()->live_conn_states(), 0u);
}

TEST(DataPlaneTest, ZeroCopyAndOracleStreamsAreBitIdentical) {
  LbDevice zc(dp_config(/*zero_copy=*/true));
  LbDevice oracle(dp_config(/*zero_copy=*/false));
  run_keepalive_mix(zc);
  run_keepalive_mix(oracle);

  const DataPlane::Totals& a = zc.data_plane()->totals();
  const DataPlane::Totals& b = oracle.data_plane()->totals();
  // Same seed, same plan, and zero_copy changes no event timing → the
  // exact same requests flowed, in the same completion order.
  ASSERT_EQ(a.requests_forwarded, b.requests_forwarded);
  EXPECT_EQ(a.bytes_in, b.bytes_in);
  EXPECT_EQ(a.bytes_out, b.bytes_out);
  // The differential oracle: chained hashes over both directions match
  // bit for bit, while the byte-movement accounting is opposite.
  EXPECT_EQ(a.backend_stream_hash, b.backend_stream_hash);
  EXPECT_EQ(a.client_stream_hash, b.client_stream_hash);
  EXPECT_EQ(a.bytes_copied, 0u);
  EXPECT_EQ(b.bytes_zero_copied, 0u);
  EXPECT_GT(b.bytes_copied, 0u);
  EXPECT_EQ(a.bytes_zero_copied, b.bytes_copied);
}

// The same differential on the paper's case-3 traffic (long-lived
// keep-alive connections, Poisson arrivals, randomized request sizes)
// driven through start_pattern, as simctl --case 3 --data-plane runs it.
TEST(DataPlaneTest, Case3PatternStreamsMatchAcrossModes) {
  DataPlane::Totals totals[2];
  for (const bool zero_copy : {true, false}) {
    LbDevice lb(dp_config(zero_copy));
    const SimTime end = SimTime::seconds(1);
    lb.start_pattern(case_pattern(3, lb.num_workers(), /*load=*/2.0), 0,
                     lb.config().num_ports, end);
    lb.eq().run_until(end);
    totals[zero_copy ? 0 : 1] = lb.data_plane()->totals();
  }
  const DataPlane::Totals& zc = totals[0];
  const DataPlane::Totals& oracle = totals[1];
  EXPECT_GT(zc.requests_forwarded, 100u);
  EXPECT_EQ(zc.requests_forwarded, oracle.requests_forwarded);
  EXPECT_EQ(zc.bytes_in, oracle.bytes_in);
  EXPECT_EQ(zc.backend_stream_hash, oracle.backend_stream_hash);
  EXPECT_EQ(zc.client_stream_hash, oracle.client_stream_hash);
  EXPECT_EQ(zc.bytes_copied, 0u);
  EXPECT_GT(oracle.bytes_copied, 0u);
}

TEST(DataPlaneTest, StreamsMatchGoldenHashesInBothModes) {
  // The two modes share one synthesizer, so comparing them with each
  // other cannot see a byte change in synthesis; these pinned values can.
  for (const bool zero_copy : {true, false}) {
    SCOPED_TRACE(zero_copy ? "zero-copy" : "copy oracle");
    LbDevice lb(dp_config(zero_copy));
    run_keepalive_mix(lb);
    const DataPlane::Totals& t = lb.data_plane()->totals();
    EXPECT_EQ(t.bytes_in, 87424u);
    EXPECT_EQ(t.bytes_out, 97152u);
    EXPECT_EQ(t.backend_stream_hash, 0x01502ea3f388f339ull);
    EXPECT_EQ(t.client_stream_hash, 0xf85411c2967af6fdull);
  }
}

TEST(DataPlaneTest, SynthesisMatchesPerByteReference) {
  constexpr uint64_t kChunk = DataPlane::kPatternChunk;
  const uint64_t lengths[] = {0,      1,          25,     26,
                              27,     kChunk - 1, kChunk, kChunk + 1,
                              3 * kChunk + 5};
  std::string wire, body;
  for (const uint64_t len : lengths) {
    // ids 26k + p hit every request phase p = id % 26, and (7 is a unit
    // mod 26) every response phase 7·id % 26.
    for (uint64_t phase = 0; phase < 26; ++phase) {
      for (const bool last : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "len " << len << " phase "
                                          << phase << " last " << last);
        Request req;
        req.id = 26 * 1000 + phase;
        req.tenant = static_cast<TenantId>(phase % 4);
        const uint64_t overhead = ref_request_head(req, last).size() + 40;
        req.bytes = len == 0 ? 0 : overhead + len;
        uint64_t ref_len = 0;
        const std::string ref_wire = ref_request_wire(req, last, &ref_len);
        ASSERT_EQ(ref_len, len);
        DataPlane::synth_request_wire(req, last, &wire);
        ASSERT_EQ(wire, ref_wire);

        req.bytes = len;
        const std::string ref_body = ref_response_body(req);
        DataPlane::synth_response_body(req, &body);
        ASSERT_EQ(body, ref_body);

        http::Response resp;
        resp.set_status(200).add_header("Server", "hermes-lb");
        resp.set_body(ref_body);
        const netsim::IoChain encoded = DataPlane::encode_response(req);
        ASSERT_EQ(encoded.num_slices(), 1u);
        ASSERT_EQ(encoded.slices()[0].seg->capacity(), encoded.size());
        ASSERT_EQ(encoded.to_string(), resp.serialize());
        ASSERT_EQ(encoded.digest(), http::ConnState::encode(resp).digest());
      }
    }
  }
}

TEST(DataPlaneTest, ResetMidFlightReturnsBackendConnections) {
  // close_fraction resets connections while some of their requests are
  // still being served. Those requests complete with no client to answer,
  // but each one's backend connection must still leave pending and go
  // back to the pool.
  LbDevice lb(dp_config(/*zero_copy=*/true));
  LbDevice::ConnPlan plan;
  plan.remaining = 8;
  plan.cost_us = DistSpec::constant(300);
  plan.gap_us = DistSpec::constant(200);
  plan.bytes = DistSpec::constant(700);
  for (int i = 0; i < 64; ++i) {
    lb.open_connection(static_cast<TenantId>(i % 4), plan);
  }
  uint64_t closed = 0;
  lb.eq().schedule_at(SimTime::millis(2),
                      [&lb, &closed] { closed = lb.close_fraction(0.5); });
  lb.eq().run_until(SimTime::seconds(2));

  const DataPlane& dp = *lb.data_plane();
  ASSERT_GT(closed, 0u);
  EXPECT_EQ(dp.live_conn_states(), 0u);
  EXPECT_EQ(dp.pending_requests(), 0u);
  EXPECT_EQ(dp.totals().requests_forwarded, lb.totals().requests_completed);
  EXPECT_LT(dp.totals().responses_returned, dp.totals().requests_forwarded);
}

TEST(DataPlaneTest, PendingEntriesSurviveOutOfOrderCompletion) {
  // Rounds of 4000 requests in flight at once on a standalone data plane
  // (the pending table grows to just under half full), each drained in
  // shuffled order. Every completion must find its own entry however
  // earlier erases have shifted the probe runs around it, including runs
  // that wrap past the end of the table.
  DataPlane::Config cfg;
  cfg.enabled = true;
  DataPlane dp(cfg, /*num_workers=*/4, /*obs=*/nullptr);
  std::mt19937_64 rng(7);
  uint64_t answered = 0;
  for (int round = 0; round < 16; ++round) {
    std::vector<Request> reqs(4000);
    for (size_t i = 0; i < reqs.size(); ++i) {
      reqs[i].id = rng();
      reqs[i].conn = i + 1;
      reqs[i].bytes = 300;
      dp.on_request(static_cast<WorkerId>(i % 4), reqs[i],
                    /*last_on_conn=*/false, SimTime{});
    }
    ASSERT_EQ(dp.pending_requests(), reqs.size());
    std::shuffle(reqs.begin(), reqs.end(), rng);
    size_t left = reqs.size();
    for (const Request& r : reqs) {
      dp.on_response(static_cast<WorkerId>(r.conn % 4), r, SimTime{});
      ASSERT_EQ(dp.pending_requests(), --left)
          << "round " << round << " request " << r.id;
    }
    answered += reqs.size();
  }
  EXPECT_EQ(dp.totals().responses_returned, answered);
}

TEST(DataPlaneTest, StaleRequestNeverTouchesTheSlotsNextConnection) {
  // A request is in flight when close_fraction resets its connection, and
  // a new connection reuses the slot before that request completes. The
  // old completion must miss both connection tables: it may not answer on
  // the new connection's ConnState, count against its plan, or close it.
  LbDevice lb(dp_config(/*zero_copy=*/true));
  LbDevice::ConnPlan old_plan;
  old_plan.remaining = 4;
  old_plan.cost_us = DistSpec::constant(20'000);  // in service until ~20 ms
  old_plan.bytes = DistSpec::constant(700);
  const netsim::ConnId old_id = lb.open_connection(0, old_plan);
  ASSERT_NE(old_id, 0u);

  LbDevice::ConnPlan new_plan = old_plan;
  new_plan.remaining = 3;
  new_plan.cost_us = DistSpec::constant(100);
  new_plan.gap_us = DistSpec::constant(10'000);  // requests at ~1, 11, 21 ms
  netsim::ConnId new_id = 0;
  lb.eq().schedule_at(SimTime::millis(1), [&] {
    EXPECT_EQ(lb.close_fraction(1.0), 1u);
    new_id = lb.open_connection(1, new_plan);
  });
  const DataPlane& dp = *lb.data_plane();
  lb.eq().schedule_at(SimTime::millis(15), [&] {
    // Precondition: the old request is still in service, and the new
    // connection is open with its own ConnState and two answers so far.
    EXPECT_EQ(lb.totals().requests_completed, 2u);
    EXPECT_EQ(lb.live_connections(), 1u);
    EXPECT_EQ(dp.live_conn_states(), 1u);
    EXPECT_EQ(dp.totals().responses_returned, 2u);
  });
  lb.eq().run_until(SimTime::seconds(1));

  ASSERT_NE(new_id, 0u);
  EXPECT_NE(new_id, old_id);
  EXPECT_EQ(netsim::slot_of(new_id), netsim::slot_of(old_id));
  // One request on the old connection, exactly three on the new one, and
  // only the new connection's three were answered.
  EXPECT_EQ(lb.totals().requests_generated, 4u);
  EXPECT_EQ(lb.totals().requests_completed, 4u);
  EXPECT_EQ(dp.totals().requests_forwarded, 4u);
  EXPECT_EQ(dp.totals().responses_returned, 3u);
  EXPECT_EQ(dp.pending_requests(), 0u);
  EXPECT_EQ(lb.live_connections(), 0u);
  EXPECT_EQ(dp.live_conn_states(), 0u);
  for (WorkerId w = 0; w < lb.num_workers(); ++w) {
    EXPECT_EQ(lb.worker(w).live_connections(), 0) << "worker " << w;
  }
}

TEST(DataPlaneTest, ConnectionStoresAgreeThroughAKeepAliveDrain) {
  // LbDevice's live connections, the netstack's slab rows and the data
  // plane's ConnStates are three stores of one set: while connections sit
  // idle between keep-alive requests, and once they have all closed, the
  // three counts agree.
  LbDevice lb(dp_config(/*zero_copy=*/true));
  LbDevice::ConnPlan plan;
  plan.cost_us = DistSpec::constant(100);
  plan.gap_us = DistSpec::constant(20'000);  // requests at ~0, 20, 40, 60 ms
  plan.bytes = DistSpec::constant(700);
  for (int i = 0; i < 64; ++i) {
    plan.remaining = 1 + i % 4;
    lb.open_connection(static_cast<TenantId>(i % 4), plan);
  }
  const DataPlane& dp = *lb.data_plane();
  // A connection closes when its last request completes, so by 10 ms the
  // single-request quarter is gone.
  const uint64_t expected_live[] = {48, 32, 16};
  for (int k = 0; k < 3; ++k) {
    lb.eq().run_until(SimTime::millis(10 + 20 * k));  // mid think gap
    SCOPED_TRACE(::testing::Message() << "at " << 10 + 20 * k << " ms");
    EXPECT_EQ(lb.live_connections(), expected_live[k]);
    EXPECT_EQ(lb.netstack().live_connections(), lb.live_connections());
    EXPECT_EQ(dp.live_conn_states(), lb.live_connections());
  }
  lb.eq().run_until(SimTime::seconds(1));
  EXPECT_EQ(lb.live_connections(), 0u);
  EXPECT_EQ(lb.netstack().live_connections(), 0u);
  EXPECT_EQ(dp.live_conn_states(), 0u);
  EXPECT_EQ(lb.totals().requests_completed, 16u * (1 + 2 + 3 + 4));
}

TEST(DataPlaneTest, BurstSkipsConnectionsThatAlreadySentClose) {
  // Each connection's only request is its last, so it went out with
  // Connection: close and its ConnState parses nothing more. A burst
  // while those requests are in service must leave them alone; it used to
  // abort with "data plane request did not parse to completion".
  LbDevice lb(dp_config(/*zero_copy=*/true));
  LbDevice::ConnPlan plan;
  plan.remaining = 1;
  plan.cost_us = DistSpec::constant(50'000);
  for (int i = 0; i < 4; ++i) {
    lb.open_connection(static_cast<TenantId>(i), plan);
  }
  lb.eq().schedule_at(SimTime::millis(10), [&lb] {
    const uint64_t before = lb.totals().requests_generated;
    lb.burst_all_connections(DistSpec::constant(200), 2);
    EXPECT_EQ(lb.totals().requests_generated, before);
  });
  lb.eq().run_until(SimTime::seconds(1));
  EXPECT_EQ(lb.totals().requests_generated, 4u);
  EXPECT_EQ(lb.totals().requests_completed, 4u);
  EXPECT_EQ(lb.data_plane()->totals().responses_returned, 4u);
  EXPECT_EQ(lb.data_plane()->totals().parse_errors, 0u);
  EXPECT_EQ(lb.live_connections(), 0u);
}

TEST(DataPlaneTest, PoolMissCostsHandshakeAndHitCostsNothingAtAnySize) {
  // A request's extra service cost comes from the backend pool alone: a
  // miss charges kBackendHandshakeCost, a hit charges nothing, whatever
  // the request's size.
  DataPlane::Config dc;
  dc.enabled = true;
  DataPlane dp(dc, /*num_workers=*/1, /*obs=*/nullptr);
  constexpr uint64_t kSizes[] = {1, 700, 64 * 1024, 1 << 20};
  Request req;
  req.conn = 7;
  SimTime now{};
  // Worker 0 visits every backend once per round: cold, then warm.
  for (int round = 0; round < 2; ++round) {
    for (uint32_t b = 0; b < DataPlane::kNumBackends; ++b) {
      ++req.id;
      req.bytes = kSizes[(b + static_cast<uint32_t>(round)) % 4];
      now += SimTime::micros(10);
      const SimTime cost = dp.on_request(0, req, /*last_on_conn=*/false, now);
      EXPECT_EQ(cost, round == 0 ? DataPlane::kBackendHandshakeCost
                                 : SimTime{})
          << "round " << round << ", " << req.bytes << " bytes";
      dp.on_response(0, req, now);
    }
  }
  EXPECT_EQ(dp.totals().pool_misses, DataPlane::kNumBackends);
  EXPECT_EQ(dp.totals().pool_hits, DataPlane::kNumBackends);
}

TEST(DataPlaneTest, PoolReusesWarmBackendConnections) {
  LbDevice lb(dp_config(/*zero_copy=*/true));
  run_keepalive_mix(lb);
  const DataPlane::Totals& t = lb.data_plane()->totals();
  EXPECT_EQ(t.pool_hits + t.pool_misses, t.requests_forwarded);
  // Sequential keep-alive requests: a backend's first request per idle
  // period establishes, nearly everything after reuses.
  EXPECT_GT(t.pool_hits, t.pool_misses);
  EXPECT_GE(t.pool_misses, 1u);
}

TEST(DataPlaneTest, PoolExpiryReflectsIdleTimeout) {
  LbDevice::Config cfg = dp_config(/*zero_copy=*/true);
  cfg.data_plane.pool.idle_expiry = SimTime::micros(100);  // aggressive
  LbDevice lb(cfg);
  run_keepalive_mix(lb);  // request gaps are 500µs > expiry
  const DataPlane::Totals& t = lb.data_plane()->totals();
  EXPECT_GT(t.pool_expiries, 0u);
  EXPECT_GT(t.pool_misses, t.pool_hits);  // warm conns keep dying
}

TEST(DataPlaneTest, RateLimiterRefusesAdmission) {
  LbDevice::Config cfg = dp_config(/*zero_copy=*/true);
  cfg.rate_limit.rate_per_sec = 10;
  cfg.rate_limit.burst = 4;
  cfg.rate_limit.buckets = 1;  // global bucket: deterministic drops
  LbDevice lb(cfg);
  ASSERT_NE(lb.rate_limiter(), nullptr);

  LbDevice::ConnPlan plan;
  plan.remaining = 1;
  plan.cost_us = DistSpec::constant(50);
  size_t opened = 0;
  for (int i = 0; i < 32; ++i) {
    if (lb.open_connection(0, plan) != 0) ++opened;
  }
  lb.eq().run_until(SimTime::millis(100));
  // Burst of 4 admitted instantly; 10/s refill adds ~1 more within the
  // same instant window — the rest are refused at admission.
  EXPECT_LE(opened, 5u);
  EXPECT_EQ(lb.totals().rate_limited, 32 - opened);
  EXPECT_EQ(lb.totals().rate_limited, lb.rate_limiter()->drops());
  EXPECT_EQ(lb.totals().requests_completed, opened);
  // Admission refusals are not connection drops (no backlog involved).
  EXPECT_EQ(lb.totals().conns_dropped, 0u);
}

TEST(DataPlaneTest, FleetAggregatesDataPlaneTotals) {
  Fleet::Config fcfg;
  fcfg.num_lbs = 3;
  fcfg.device = dp_config(/*zero_copy=*/true);
  fcfg.device.num_workers = 2;
  Fleet fleet(fcfg);

  LbDevice::ConnPlan plan;
  plan.remaining = 4;
  plan.cost_us = DistSpec::constant(100);
  plan.gap_us = DistSpec::constant(500);
  const size_t established = fleet.open_burst(0, plan, 64);
  ASSERT_GT(established, 0u);
  for (size_t i = 0; i < fleet.device_count(); ++i) {
    fleet.device(i).eq().run_until(SimTime::seconds(1));
  }

  const DataPlane::Totals agg = fleet.data_plane_totals();
  uint64_t fwd = 0, hash_xor = 0;
  for (size_t i = 0; i < fleet.device_count(); ++i) {
    const DataPlane* dp = fleet.device(i).data_plane();
    ASSERT_NE(dp, nullptr);
    fwd += dp->totals().requests_forwarded;
    hash_xor ^= dp->totals().backend_stream_hash;
  }
  EXPECT_EQ(agg.requests_forwarded, fwd);
  EXPECT_EQ(agg.requests_forwarded, established * 4u);
  EXPECT_EQ(agg.backend_stream_hash, hash_xor);
  EXPECT_EQ(agg.bytes_copied, 0u);
}

TEST(DataPlaneTest, ObservabilityCountersMirrorTotals) {
  LbDevice lb(dp_config(/*zero_copy=*/true));
  run_keepalive_mix(lb);
  const DataPlane::Totals& t = lb.data_plane()->totals();
  const obs::PipelineMetrics& m = lb.obs()->metrics;
  EXPECT_EQ(m.http_requests_forwarded->value(),
            static_cast<int64_t>(t.requests_forwarded));
  EXPECT_EQ(m.http_bytes_zero_copied->value(),
            static_cast<int64_t>(t.bytes_zero_copied));
  EXPECT_EQ(m.http_bytes_copied->value(), 0);
  EXPECT_EQ(m.pool_hits->value(), static_cast<int64_t>(t.pool_hits));
  EXPECT_EQ(m.pool_misses->value(), static_cast<int64_t>(t.pool_misses));
  EXPECT_EQ(m.ratelimit_drops->value(), 0);
}

TEST(DataPlaneTest, PoolShardsMatchPoolCountsUnderFastExpiry) {
  // The registry's pool.* counters are bumped per acquire by the worker
  // that forwarded the request; pool.occupancy tracks the idle count.
  LbDevice::Config cfg = dp_config(/*zero_copy=*/true);
  cfg.data_plane.pool.idle_expiry = SimTime::micros(100);
  LbDevice lb(cfg);
  run_keepalive_mix(lb);
  const DataPlane& dp = *lb.data_plane();
  const core::BackendConnectionPool::Stats& s = dp.pool().stats();
  ASSERT_GT(s.expiries, 0u);
  ASSERT_GT(s.hits, 0u);
  const obs::PipelineMetrics& m = lb.obs()->metrics;
  uint64_t hits = 0, misses = 0, expiries = 0;
  for (WorkerId w = 0; w < lb.num_workers(); ++w) {
    EXPECT_EQ(m.pool_hits->shard_value(w) + m.pool_misses->shard_value(w),
              m.http_requests_forwarded->shard_value(w))
        << "worker " << w;
    hits += m.pool_hits->shard_value(w);
    misses += m.pool_misses->shard_value(w);
    expiries += m.pool_expiries->shard_value(w);
  }
  EXPECT_EQ(hits, s.hits);
  EXPECT_EQ(misses, s.misses);
  EXPECT_EQ(expiries, s.expiries);
  EXPECT_EQ(m.pool_occupancy->value(),
            static_cast<int64_t>(dp.pool().idle_total()));
  EXPECT_EQ(dp.totals().pool_expiries, s.expiries);
  EXPECT_EQ(dp.totals().pool_evictions, s.evictions);
}

TEST(DataPlaneTest, SyntheticProbeLeavesTheDataPlaneUntouched) {
  // A per-core probe completes on its worker like any request, but was
  // never forwarded: the data plane's pool, pending table and streams
  // stay as they were.
  LbDevice lb(dp_config(/*zero_copy=*/true));
  run_keepalive_mix(lb);
  const DataPlane& dp = *lb.data_plane();
  const DataPlane::Totals before = dp.totals();
  const uint64_t idle_before = dp.pool().idle_total();
  const uint64_t completed = lb.totals().requests_completed;
  ASSERT_EQ(dp.pending_requests(), 0u);

  lb.inject_core_probe(1);
  lb.eq().run_until(SimTime::seconds(2));

  ASSERT_EQ(lb.totals().requests_completed, completed + 1);
  const DataPlane::Totals after = dp.totals();
  EXPECT_EQ(after.requests_forwarded, before.requests_forwarded);
  EXPECT_EQ(after.responses_returned, before.responses_returned);
  EXPECT_EQ(after.bytes_out, before.bytes_out);
  EXPECT_EQ(after.backend_stream_hash, before.backend_stream_hash);
  EXPECT_EQ(after.client_stream_hash, before.client_stream_hash);
  EXPECT_EQ(after.pool_hits, before.pool_hits);
  EXPECT_EQ(after.pool_misses, before.pool_misses);
  EXPECT_EQ(after.pool_expiries, before.pool_expiries);
  EXPECT_EQ(after.pool_evictions, before.pool_evictions);
  EXPECT_EQ(dp.pool().idle_total(), idle_before);
  EXPECT_EQ(dp.pending_requests(), 0u);
}

}  // namespace
}  // namespace hermes::sim
