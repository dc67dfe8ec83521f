// Fleet tests: Maglev table properties (balance, minimal disruption on
// membership churn), front-tier routing consistency, PCC violation
// accounting under LB add/remove, and fleet-scale imbalance.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "sim/fleet.h"

namespace hermes::sim {
namespace {

LbDevice::ConnPlan sticky_plan() {
  // Connections that stay open: many requests with a long constant gap, so
  // the live set is stable while audits run.
  LbDevice::ConnPlan plan;
  plan.remaining = 1000;
  plan.cost_us = DistSpec::constant(50);
  plan.bytes = DistSpec::constant(400);
  plan.gap_us = DistSpec::constant(5'000'000);  // 5 s between requests
  return plan;
}

Fleet::Config small_fleet(uint32_t num_lbs) {
  Fleet::Config fc;
  fc.num_lbs = num_lbs;
  fc.device.mode = netsim::DispatchMode::HermesMode;
  fc.device.num_workers = 2;
  fc.device.num_ports = 4;
  fc.device.backlog = 4096;
  fc.device.observability = false;
  fc.seed = 7;
  return fc;
}

TEST(MaglevTest, SlotsBalancedAcrossBackends) {
  MaglevTable table(65537);
  const std::vector<uint32_t> backends = {0, 1, 2, 3, 4};
  table.build(backends);
  std::map<uint32_t, uint32_t> owned;
  for (uint32_t s = 0; s < table.size(); ++s) ++owned[table.slot_owner(s)];
  ASSERT_EQ(owned.size(), backends.size());
  const double expect = 65537.0 / 5.0;
  for (const auto& [id, n] : owned) {
    EXPECT_GT(n, expect * 0.99) << "backend " << id;
    EXPECT_LT(n, expect * 1.01) << "backend " << id;
  }
}

TEST(MaglevTest, RemovalDisruptsOnlyRemovedBackendsSlots) {
  MaglevTable before(65537), after(65537);
  before.build({0, 1, 2, 3});
  after.build({0, 1, 3});
  uint32_t moved_surviving = 0, total_surviving = 0;
  for (uint32_t s = 0; s < before.size(); ++s) {
    if (before.slot_owner(s) == 2) continue;  // removed backend's slots
    ++total_surviving;
    if (after.slot_owner(s) != before.slot_owner(s)) ++moved_surviving;
  }
  // Maglev's disruption bound: slots owned by survivors barely move.
  EXPECT_LT(static_cast<double>(moved_surviving) /
                static_cast<double>(total_surviving),
            0.03);
}

TEST(MaglevTest, AdditionRemapsRoughlyOneNth) {
  MaglevTable before(65537), after(65537);
  before.build({0, 1, 2, 3});
  after.build({0, 1, 2, 3, 4});
  uint32_t moved = 0;
  for (uint32_t s = 0; s < before.size(); ++s) {
    if (after.slot_owner(s) != before.slot_owner(s)) ++moved;
  }
  const double frac = static_cast<double>(moved) / 65537.0;
  EXPECT_GT(frac, 0.15);  // the new backend must take ~1/5
  EXPECT_LT(frac, 0.30);  // ...but not much more than that
}

TEST(FleetTest, OpenBurstRoutesByTupleHashWithZeroViolations) {
  Fleet fleet(small_fleet(4));
  const size_t established = fleet.open_burst(0, sticky_plan(), 2000);
  EXPECT_GT(established, 1900u);
  // Every connection sits on the device its tuple hash routes to.
  const auto audit = fleet.audit_pcc();
  EXPECT_EQ(audit.checked, established);
  EXPECT_EQ(audit.maglev_violations, 0u);
  // Devices all got a share.
  for (size_t d = 0; d < fleet.device_count(); ++d) {
    EXPECT_GT(fleet.device(d).live_connections(), 0u) << "device " << d;
  }
}

TEST(FleetTest, RequestsCompleteAcrossFleetInLockstep) {
  Fleet fleet(small_fleet(3));
  fleet.open_burst(0, sticky_plan(), 600);
  fleet.run_until(SimTime::millis(500));
  // Every accepted connection delivered (at least) its first request.
  EXPECT_GT(fleet.total_completed(), 500u);
  EXPECT_EQ(fleet.now(), SimTime::millis(500));
}

TEST(FleetTest, AddLbRemapsSmallFractionUnderMaglev) {
  Fleet fleet(small_fleet(4));
  const size_t established = fleet.open_burst(0, sticky_plan(), 4000);
  fleet.run_until(SimTime::millis(200));

  fleet.add_lb();
  const auto audit = fleet.audit_pcc();
  EXPECT_EQ(audit.checked, established);
  // Maglev: ~1/5 of connections remap; the mod-N baseline breaks most of
  // the fleet (canonical stateless-LB comparison).
  const double maglev_frac = static_cast<double>(audit.maglev_violations) /
                             static_cast<double>(audit.checked);
  const double modn_frac = static_cast<double>(audit.modn_violations) /
                           static_cast<double>(audit.checked);
  EXPECT_GT(maglev_frac, 0.10);
  EXPECT_LT(maglev_frac, 0.30);
  EXPECT_GT(modn_frac, 0.5);
  EXPECT_GT(modn_frac, maglev_frac * 2);
}

TEST(FleetTest, RemoveLbBreaksItsConnectionsOnly) {
  Fleet fleet(small_fleet(4));
  fleet.open_burst(0, sticky_plan(), 4000);
  fleet.run_until(SimTime::millis(200));  // let accepts drain

  const uint64_t victim_live = fleet.device(2).live_connections();
  ASSERT_GT(victim_live, 0u);
  const uint64_t live_before = fleet.total_live();

  fleet.remove_lb(2);
  EXPECT_FALSE(fleet.active(2));
  EXPECT_EQ(fleet.active_count(), 3u);
  // Broken = exactly the removed device's connections.
  EXPECT_EQ(fleet.broken_total(), victim_live);

  // Survivors: Maglev leaves nearly all of them routed where they live
  // (only the removed device's hash-space moved).
  const auto audit = fleet.audit_pcc();
  EXPECT_GE(audit.checked, live_before - victim_live - 10);
  const double maglev_frac = static_cast<double>(audit.maglev_violations) /
                             static_cast<double>(audit.checked);
  EXPECT_LT(maglev_frac, 0.05);

  // New traffic only lands on active devices.
  const uint64_t on_victim = fleet.device(2).live_connections();
  fleet.open_burst(1, sticky_plan(), 1000);
  EXPECT_EQ(fleet.device(2).live_connections(), on_victim);
}

TEST(FleetTest, ImbalanceReflectsPerDeviceConnCounts) {
  Fleet fleet(small_fleet(4));
  fleet.open_burst(0, sticky_plan(), 8000);
  const auto im = fleet.imbalance();
  EXPECT_GT(im.conn_avg, 0);
  EXPECT_GE(im.conn_max, im.conn_min);
  // Hash spread over 4 devices: max/avg stays near 1.
  EXPECT_GT(im.max_over_avg, 0.9);
  EXPECT_LT(im.max_over_avg, 1.3);
}

TEST(FleetTest, OpenBurstCountsRefusalsAndBacklogDrops) {
  constexpr size_t kCount = 400;
  constexpr uint64_t kBurst = 25;
  // Each leg opens kCount connections, then runs past every SYN-retry
  // timeout: front-tier drops are final, so nothing more is opened.
  auto run = [&](Fleet::Config fc) {
    fc.device.syn_retries = 2;
    Fleet fleet(fc);
    const size_t established = fleet.open_burst(0, sticky_plan(), kCount);
    fleet.run_until(SimTime::seconds(5));
    LbDevice::Totals sum;
    for (size_t d = 0; d < fleet.device_count(); ++d) {
      const LbDevice::Totals& t = fleet.device(d).totals();
      sum.conns_opened += t.conns_opened;
      sum.conns_dropped += t.conns_dropped;
      sum.rate_limited += t.rate_limited;
      sum.syn_retransmits += t.syn_retransmits;
    }
    EXPECT_EQ(sum.conns_opened, established);
    EXPECT_EQ(sum.conns_dropped, fleet.total_dropped());
    EXPECT_EQ(established + sum.rate_limited + sum.conns_dropped, kCount);
    EXPECT_EQ(sum.syn_retransmits, 0u);
    return sum;
  };

  // One global bucket per device: each admits kBurst SYNs at t=0 and
  // refuses the rest. A refusal is not a backlog drop.
  Fleet::Config limited = small_fleet(4);
  limited.device.rate_limit = {/*rate_per_sec=*/1, kBurst, /*buckets=*/1};
  const LbDevice::Totals refused = run(limited);
  EXPECT_EQ(refused.conns_opened, 4 * kBurst);
  EXPECT_EQ(refused.rate_limited, kCount - 4 * kBurst);
  EXPECT_EQ(refused.conns_dropped, 0u);

  // A tiny backlog: each device queues at most 2 workers x 4 SYNs on the
  // tenant's port and drops the rest.
  Fleet::Config tiny = small_fleet(4);
  tiny.device.backlog = 4;
  const LbDevice::Totals dropped = run(tiny);
  EXPECT_GT(dropped.conns_opened, 0u);
  EXPECT_LE(dropped.conns_opened, 4u * 2 * 4);
  EXPECT_EQ(dropped.rate_limited, 0u);
}

}  // namespace
}  // namespace hermes::sim
