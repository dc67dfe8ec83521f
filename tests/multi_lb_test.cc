// Multi-device fleet operations: front-tier spraying, canary draining,
// tenant pinning, lockstep time, and how drains and pins meet the PCC
// audit.
#include <gtest/gtest.h>

#include "sim/fleet.h"

namespace hermes::sim {
namespace {

Fleet::Config fleet_cfg(uint32_t n, netsim::DispatchMode mode) {
  Fleet::Config fc;
  fc.num_lbs = n;
  fc.device.mode = mode;
  fc.device.num_workers = 4;
  fc.device.num_ports = 4;
  fc.seed = 5;
  return fc;
}

// Opens one connection and returns the device that admitted it (SIZE_MAX
// if none did).
size_t open_one(Fleet& fleet, TenantId tenant,
                const LbDevice::ConnPlan& plan) {
  std::vector<uint64_t> before(fleet.device_count());
  for (size_t d = 0; d < fleet.device_count(); ++d) {
    before[d] = fleet.device(d).totals().conns_opened;
  }
  if (fleet.open_burst(tenant, plan, 1) == 0) return SIZE_MAX;
  for (size_t d = 0; d < fleet.device_count(); ++d) {
    if (fleet.device(d).totals().conns_opened != before[d]) return d;
  }
  return SIZE_MAX;
}

TEST(MultiLbTest, SpraysAcrossAllDevices) {
  Fleet fleet(fleet_cfg(4, netsim::DispatchMode::HermesMode));
  LbDevice::ConnPlan plan;
  plan.cost_us = DistSpec::constant(100);
  std::vector<int> per_dev(4, 0);
  for (int i = 0; i < 800; ++i) {
    const size_t dev = open_one(fleet, 0, plan);
    ASSERT_LT(dev, 4u);
    ++per_dev[dev];
  }
  for (int n : per_dev) EXPECT_NEAR(n, 200, 70);
  fleet.run_until(SimTime::seconds(1));
  EXPECT_EQ(fleet.total_completed(), 800u);
}

TEST(MultiLbTest, DrainingDeviceGetsNoNewConnections) {
  Fleet fleet(fleet_cfg(3, netsim::DispatchMode::HermesMode));
  fleet.drain(1);
  EXPECT_FALSE(fleet.active(1));
  EXPECT_EQ(fleet.active_count(), 2u);
  LbDevice::ConnPlan plan;
  for (int i = 0; i < 300; ++i) {
    const size_t dev = open_one(fleet, 0, plan);
    EXPECT_NE(dev, 1u);
    EXPECT_NE(dev, SIZE_MAX);
  }
  EXPECT_EQ(fleet.device(1).totals().conns_opened, 0u);
}

TEST(MultiLbTest, DrainingDeviceFinishesExistingConnections) {
  Fleet fleet(fleet_cfg(2, netsim::DispatchMode::HermesMode));
  // Long-lived conns everywhere, then drain device 0.
  LbDevice::ConnPlan plan;
  plan.remaining = 5;
  plan.cost_us = DistSpec::constant(100);
  plan.gap_us = DistSpec::constant(100'000);
  for (int i = 0; i < 100; ++i) fleet.open_burst(0, plan, 1);
  fleet.run_until(SimTime::millis(50));
  const uint64_t live_before = fleet.device(0).live_connections();
  fleet.drain(0);
  // Existing connections on device 0 still complete their requests.
  fleet.run_until(SimTime::seconds(2));
  EXPECT_GT(live_before, 0u);
  EXPECT_EQ(fleet.device(0).live_connections(), 0u);
  EXPECT_EQ(fleet.device(0).totals().requests_completed,
            5 * fleet.device(0).totals().conns_opened);
}

TEST(MultiLbTest, AllDrainingRoutesNowhere) {
  Fleet fleet(fleet_cfg(2, netsim::DispatchMode::Reuseport));
  fleet.drain(0);
  fleet.drain(1);
  for (uint32_t h : {0u, 123456u, 0xffffffffu}) {
    EXPECT_EQ(fleet.route(h), SIZE_MAX);
    EXPECT_EQ(fleet.route_mod(h), SIZE_MAX);
  }
  LbDevice::ConnPlan plan;
  EXPECT_EQ(fleet.open_burst(0, plan, 1), 0u);
  EXPECT_EQ(fleet.device(0).totals().conns_opened +
                fleet.device(1).totals().conns_opened,
            0u);
}

TEST(MultiLbTest, LockstepKeepsClocksAligned) {
  Fleet fleet(fleet_cfg(3, netsim::DispatchMode::EpollExclusive));
  fleet.run_until(SimTime::seconds(1), SimTime::millis(50));
  for (size_t i = 0; i < fleet.device_count(); ++i) {
    EXPECT_EQ(fleet.device(i).eq().now(), SimTime::seconds(1));
  }
  EXPECT_EQ(fleet.now(), SimTime::seconds(1));
  // A device added later joins at the fleet clock, in its own mode.
  const size_t added = fleet.add_lb(netsim::DispatchMode::HermesMode);
  EXPECT_EQ(fleet.device(added).eq().now(), SimTime::seconds(1));
  EXPECT_EQ(fleet.device(added).config().mode,
            netsim::DispatchMode::HermesMode);
  EXPECT_EQ(fleet.device(0).config().mode,
            netsim::DispatchMode::EpollExclusive);
}

TEST(MultiLbTest, RoutingIsHashConsistent) {
  Fleet fleet(fleet_cfg(4, netsim::DispatchMode::HermesMode));
  for (uint32_t h : {0u, 123456u, 0xffffffffu}) {
    EXPECT_EQ(fleet.route(h), fleet.route(h));
    EXPECT_LT(fleet.route(h), 4u);
  }
  // Every connection sits where its tuple hash routes.
  LbDevice::ConnPlan plan;
  plan.remaining = 100;
  plan.gap_us = DistSpec::constant(10'000'000);
  for (int i = 0; i < 200; ++i) fleet.open_burst(0, plan, 1);
  const auto audit = fleet.audit_pcc();
  EXPECT_EQ(audit.checked, 200u);
  EXPECT_EQ(audit.maglev_violations, 0u);
}

TEST(MultiLbTest, SandboxPinOverridesRotation) {
  Fleet fleet(fleet_cfg(3, netsim::DispatchMode::HermesMode));
  fleet.drain(2);  // device 2 = sandbox, out of rotation
  fleet.pin_tenant(7, 2);
  LbDevice::ConnPlan plan;
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(open_one(fleet, 7, plan), 2u);  // pinned tenant
    EXPECT_NE(open_one(fleet, 1, plan), 2u);  // others never
  }
  EXPECT_EQ(fleet.device(2).totals().conns_opened, 50u);
  // Removing the sandbox drops the pin: the tenant goes back to the hash.
  fleet.remove_lb(2);
  EXPECT_NE(open_one(fleet, 7, plan), 2u);
}

TEST(MultiLbTest, UnpinRestoresNormalRouting) {
  Fleet fleet(fleet_cfg(2, netsim::DispatchMode::HermesMode));
  fleet.pin_tenant(3, 1);
  LbDevice::ConnPlan plan;
  for (int i = 0; i < 20; ++i) EXPECT_EQ(open_one(fleet, 3, plan), 1u);
  fleet.unpin_tenant(3);
  // Routing goes back through the hash (device 0 reachable again).
  bool saw_dev0 = false;
  for (int i = 0; i < 100 && !saw_dev0; ++i) {
    saw_dev0 = open_one(fleet, 3, plan) == 0;
  }
  EXPECT_TRUE(saw_dev0);
}

TEST(MultiLbTest, CloseFractionShedsRoughlyThatShare) {
  Fleet fleet(fleet_cfg(1, netsim::DispatchMode::HermesMode));
  LbDevice::ConnPlan plan;
  plan.remaining = 100;
  plan.gap_us = DistSpec::constant(10'000'000);
  for (int i = 0; i < 400; ++i) fleet.open_burst(0, plan, 1);
  fleet.run_until(SimTime::millis(200));
  const uint64_t before = fleet.device(0).live_connections();
  const uint64_t shed = fleet.device(0).close_fraction(0.5);
  EXPECT_NEAR(static_cast<double>(shed), before * 0.5, before * 0.12);
  EXPECT_EQ(fleet.device(0).live_connections(), before - shed);
}

TEST(MultiLbTest, DrainKeepsConnectionsUnbroken) {
  // Two identical fleets, same traffic; one drains device 1, the other
  // removes it.
  LbDevice::ConnPlan plan;
  plan.remaining = 3;
  plan.cost_us = DistSpec::constant(100);
  plan.gap_us = DistSpec::constant(100'000);
  Fleet drained(fleet_cfg(3, netsim::DispatchMode::HermesMode));
  Fleet removed(fleet_cfg(3, netsim::DispatchMode::HermesMode));
  for (Fleet* f : {&drained, &removed}) {
    f->open_burst(0, plan, 300);
    f->run_until(SimTime::millis(50));
  }
  const uint64_t victim_live = drained.device(1).live_connections();
  ASSERT_GT(victim_live, 0u);
  ASSERT_EQ(removed.device(1).live_connections(), victim_live);
  const uint64_t live_before = drained.total_live();

  drained.drain(1);
  EXPECT_EQ(drained.broken_total(), 0u);
  EXPECT_EQ(drained.total_live(), live_before);  // still counted
  drained.run_until(SimTime::seconds(2));
  EXPECT_EQ(drained.broken_total(), 0u);
  EXPECT_EQ(drained.device(1).live_connections(), 0u);
  // Every request of every connection it held was served.
  EXPECT_EQ(drained.device(1).totals().requests_completed,
            3 * drained.device(1).totals().conns_opened);
  // The canary's last step: removing the emptied device breaks nothing.
  drained.remove_lb(1);
  EXPECT_EQ(drained.broken_total(), 0u);

  removed.remove_lb(1);
  EXPECT_EQ(removed.broken_total(), victim_live);
  EXPECT_EQ(removed.total_live(), live_before - victim_live);
  removed.run_until(SimTime::seconds(2));
  EXPECT_LT(removed.device(1).totals().requests_completed,
            3 * removed.device(1).totals().conns_opened);
}

TEST(MultiLbTest, PinnedTenantIsNotAPccViolation) {
  Fleet fleet(fleet_cfg(4, netsim::DispatchMode::HermesMode));
  LbDevice::ConnPlan plan;
  plan.remaining = 100;
  plan.gap_us = DistSpec::constant(10'000'000);
  fleet.pin_tenant(5, 1);  // an active device
  const size_t pinned = fleet.open_burst(5, plan, 400);
  const size_t unpinned =
      fleet.open_burst(0, plan, 600) + fleet.open_burst(2, plan, 600);
  ASSERT_EQ(pinned, 400u);
  // Device 1 holds the pinned connections plus its hash share of the rest;
  // about 3/4 of the pinned ones hash to another device.
  EXPECT_GT(fleet.device(1).live_connections(), pinned);
  const auto audit = fleet.audit_pcc();
  EXPECT_EQ(audit.checked, pinned + unpinned);
  EXPECT_EQ(audit.maglev_violations, 0u);
  // Mod-N disagrees with Maglev on most unpinned connections, but never
  // on a pinned one.
  EXPECT_LE(audit.modn_violations, unpinned);
}

}  // namespace
}  // namespace hermes::sim
