// End-to-end scheduling-policy runs through the full LB device: every
// policy's generated program attaches (prove-before-load), dispatches
// real traffic, and shows up in the sched.policy.* observability
// counters; the weighted policy skews connections toward faster cores in
// a heterogeneous fleet; per-worker speed scales the cost model.
//
// A policy is chosen only by Config::policy (cascade by default); every
// test here names the one it runs.
#include <gtest/gtest.h>

#include <string>

#include "sim/lb.h"
#include "sim/workload.h"

namespace hermes::sim {
namespace {

LbDevice::Config policy_config(core::PolicyKind kind, uint32_t workers = 8) {
  LbDevice::Config cfg;
  cfg.mode = netsim::DispatchMode::HermesMode;
  cfg.num_workers = workers;
  cfg.num_ports = 8;
  cfg.policy = kind;
  return cfg;
}

void run_case(LbDevice& lb, double load = 1.0, double seconds = 1.0) {
  const SimTime end = SimTime::from_seconds_f(seconds);
  lb.start_pattern(case_pattern(3, lb.num_workers(), load), 0,
                   lb.config().num_ports, end);
  lb.eq().run_until(end);
}

TEST(PolicySimTest, EveryPolicyServesTrafficEndToEnd) {
  // A config that names no policy runs the paper's cascade.
  EXPECT_EQ(LbDevice::Config{}.policy, core::PolicyKind::Cascade);
  EXPECT_EQ(core::HermesRuntime::Options{}.policy, core::PolicyKind::Cascade);
  for (size_t k = 0; k < core::kPolicyCount; ++k) {
    const auto kind = static_cast<core::PolicyKind>(k);
    LbDevice lb(policy_config(kind));
    ASSERT_NE(lb.hermes(), nullptr);
    EXPECT_EQ(lb.hermes()->policy_kind(), kind);
    run_case(lb);

    const char* name = core::to_string(kind);
    EXPECT_GT(lb.totals().requests_completed, 100u) << name;
    ASSERT_NE(lb.obs(), nullptr);
    const auto& m = lb.obs()->metrics;
    // The active policy's program made selections and its userspace half
    // published; the other three policies' counters stayed at zero.
    EXPECT_GT(m.policy_dispatches[k]->value(), 0u) << name;
    EXPECT_GT(m.policy_publishes[k]->value(), 0u) << name;
    for (size_t other = 0; other < core::kPolicyCount; ++other) {
      if (other == k) continue;
      EXPECT_EQ(m.policy_dispatches[other]->value(), 0u)
          << name << " leaked into "
          << core::to_string(static_cast<core::PolicyKind>(other));
      EXPECT_EQ(m.policy_publishes[other]->value(), 0u) << name;
    }
  }
}

TEST(PolicySimTest, PolicyCountersAppearInRegistryDump) {
  LbDevice lb(policy_config(core::PolicyKind::P2c));
  run_case(lb, 1.0, 0.5);
  const std::string dump = lb.obs()->registry.text_dump();
  EXPECT_NE(dump.find("sched.policy.p2c.dispatches"), std::string::npos);
  EXPECT_NE(dump.find("sched.policy.p2c.publishes"), std::string::npos);
  EXPECT_NE(dump.find("sched.policy.cascade.dispatches"), std::string::npos);
}

TEST(PolicySimTest, LoadAwarePoliciesOnlyDispatchInsideEligibleSet) {
  // The dispatch conservation law per policy: every established
  // connection was placed either by the policy program or by the hash
  // fallback — no third path, no double counting.
  for (size_t k = 0; k < core::kPolicyCount; ++k) {
    const auto kind = static_cast<core::PolicyKind>(k);
    LbDevice lb(policy_config(kind));
    run_case(lb);
    const auto& m = lb.obs()->metrics;
    EXPECT_EQ(m.policy_dispatches[k]->value(), m.dispatch_bpf->value())
        << core::to_string(kind);
    EXPECT_EQ(m.dispatch_bpf->value() + m.dispatch_fallback->value() +
                  m.dispatch_hash->value(),
              m.dispatch_picks->value())
        << core::to_string(kind);
  }
}

TEST(PolicySimTest, WeightedPolicySkewsTowardFastCores) {
  // Heterogeneous fleet: workers 0-1 run at 2x. The weighted program's
  // lottery (weights ∝ speed) must route more connections to the fast
  // cores than the slow ones.
  LbDevice::Config cfg = policy_config(core::PolicyKind::Weighted, 4);
  cfg.worker_speeds = {2.0, 2.0, 1.0, 1.0};
  LbDevice lb(cfg);
  run_case(lb, 2.0, 2.0);

  uint64_t fast = 0, slow = 0;
  for (WorkerId w = 0; w < 4; ++w) {
    (w < 2 ? fast : slow) += lb.worker(w).requests_done();
  }
  EXPECT_GT(lb.totals().requests_completed, 500u);
  EXPECT_GT(fast, slow);
}

TEST(PolicySimTest, WorkerSpeedScalesServiceCost) {
  // Same seed, same traffic; quadrupling every core's speed must cut the
  // fleet's total busy time (the per-event cost divides by the factor).
  auto busy_total = [](LbDevice& lb) {
    SimTime total{};
    for (WorkerId w = 0; w < lb.num_workers(); ++w) {
      total = total + lb.worker(w).busy_time();
    }
    return total;
  };
  LbDevice::Config slow_cfg = policy_config(core::PolicyKind::Cascade, 4);
  LbDevice slow_lb(slow_cfg);
  run_case(slow_lb);

  LbDevice::Config fast_cfg = policy_config(core::PolicyKind::Cascade, 4);
  fast_cfg.worker_speeds = {4.0, 4.0, 4.0, 4.0};
  LbDevice fast_lb(fast_cfg);
  run_case(fast_lb);

  EXPECT_GE(fast_lb.totals().requests_completed,
            slow_lb.totals().requests_completed);
  EXPECT_LT(busy_total(fast_lb).ns(), busy_total(slow_lb).ns() / 2);
}

TEST(PolicySimTest, AuxPublishesTrackSchedules) {
  // Policies with an aux map refresh it on every schedule (the staleness
  // bound queue_est's estimates rely on); the cascade has no aux state.
  LbDevice lb(policy_config(core::PolicyKind::QueueEst));
  run_case(lb, 1.0, 0.5);
  const auto& c = lb.hermes()->counters();
  EXPECT_GT(c.aux_publishes, 0u);
  EXPECT_GE(c.schedules, c.aux_publishes);

  LbDevice cascade_lb(policy_config(core::PolicyKind::Cascade));
  run_case(cascade_lb, 1.0, 0.5);
  EXPECT_EQ(cascade_lb.hermes()->counters().aux_publishes, 0u);
}

}  // namespace
}  // namespace hermes::sim
