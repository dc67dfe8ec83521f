// Unit semantics of the pluggable scheduling policies (core/policy.h):
// name round-trips, the cascade's byte-identity guarantee, and each
// load-aware policy's userspace half (fill_aux) + C++ decision mirror
// (reference_dispatch) — the torture sweep separately proves the mirrors
// agree with the generated programs.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "bpf/insn.h"
#include "core/policy.h"

namespace hermes::core {
namespace {

PolicyProgramParams params(uint32_t groups, uint32_t wpg,
                           uint32_t min_workers = 1) {
  PolicyProgramParams p;
  p.base.num_groups = groups;
  p.base.workers_per_group = wpg;
  p.base.min_workers = min_workers;
  return p;
}

PolicyAuxInputs aux_inputs(const int64_t* conns, const int64_t* pending,
                           uint32_t limit, const ScheduleResult* sr) {
  PolicyAuxInputs in;
  in.loop_enter_ns = conns;
  in.pending_events = pending;
  in.connections = conns;
  in.limit = limit;
  in.base = 0;
  in.result = sr;
  return in;
}

TEST(PolicyTest, NameRoundTripsForEveryKind) {
  for (size_t k = 0; k < kPolicyCount; ++k) {
    const auto kind = static_cast<PolicyKind>(k);
    PolicyKind parsed;
    ASSERT_TRUE(parse_policy(to_string(kind), &parsed)) << to_string(kind);
    EXPECT_EQ(parsed, kind);
  }
}

TEST(PolicyTest, ParseRejectsUnknownNames) {
  PolicyKind k;
  EXPECT_FALSE(parse_policy("", &k));
  EXPECT_FALSE(parse_policy("p3c", &k));
  EXPECT_FALSE(parse_policy("Cascade", &k));
  EXPECT_FALSE(parse_policy("queue-est", &k));
}

TEST(PolicyTest, MakePolicyReportsItsKind) {
  for (size_t k = 0; k < kPolicyCount; ++k) {
    const auto kind = static_cast<PolicyKind>(k);
    const auto policy = make_policy(kind);
    EXPECT_EQ(policy->kind(), kind);
    EXPECT_STREQ(policy->name(), to_string(kind));
  }
}

TEST(PolicyTest, CascadeProgramByteIdenticalToLegacyBuilder) {
  // The framework refactor must not change a single emitted instruction
  // of the paper's program: existing proofs, benches, and attached-fleet
  // behaviour all key off it.
  for (uint32_t groups : {1u, 2u, 16u}) {
    const auto p = params(groups, 16, 2);
    const bpf::Program via_policy =
        make_policy(PolicyKind::Cascade)->build_program(p);
    const bpf::Program legacy = build_dispatch_program(p.base);
    ASSERT_EQ(via_policy.size(), legacy.size()) << groups << " groups";
    for (size_t i = 0; i < legacy.size(); ++i) {
      EXPECT_EQ(bpf::disassemble(via_policy[i]), bpf::disassemble(legacy[i]))
          << "insn " << i << " (" << groups << " groups)";
    }
  }
}

TEST(PolicyTest, CascadeNeedsNoAuxMap) {
  EXPECT_EQ(make_policy(PolicyKind::Cascade)->aux_value_bytes(), 0u);
}

TEST(PolicyTest, P2cAuxSentinelsPastLiveSlice) {
  const auto policy = make_policy(PolicyKind::P2c);
  int64_t conns[kMaxWorkersPerGroup] = {3, 1, -7, 2};
  int64_t pending[kMaxWorkersPerGroup] = {};
  uint64_t words[kMaxWorkersPerGroup];
  policy->fill_aux(aux_inputs(conns, pending, /*limit=*/4, nullptr), words);
  EXPECT_EQ(words[0], 3u);
  EXPECT_EQ(words[1], 1u);
  EXPECT_EQ(words[2], 0u);  // negative WST word clamps to zero
  EXPECT_EQ(words[3], 2u);
  for (uint32_t i = 4; i < kMaxWorkersPerGroup; ++i) {
    EXPECT_EQ(words[i], UINT64_MAX) << i;  // can never win a comparison
  }
}

TEST(PolicyTest, P2cPrefersLessLoadedWorker) {
  const auto policy = make_policy(PolicyKind::P2c);
  const auto p = params(1, 8);
  const uint64_t bitmap = 0x3;  // workers 0 and 1 eligible
  uint64_t loads[kMaxWorkersPerGroup] = {};
  loads[0] = 100;
  loads[1] = 0;
  int picked1 = 0, picked0 = 0;
  for (uint32_t h = 0; h < 512; ++h) {
    const uint32_t hash = h * 0x61c88647u + 13;
    const WorkerId got = policy->reference_dispatch(
        p, &bitmap, reinterpret_cast<uint8_t*>(loads), sizeof(loads), hash,
        hash ^ 0xa5a5);
    ASSERT_TRUE(got == 0 || got == 1) << got;
    (got == 1 ? picked1 : picked0) += 1;
  }
  // Worker 1 wins every trial where either sample hit it; worker 0 only
  // wins double-collisions. With two workers that is a strict majority.
  EXPECT_GT(picked1, picked0);
  EXPECT_GT(picked0, 0);  // double-collisions do occur
}

TEST(PolicyTest, WeightedLotteryAllotsSlotsProportionally) {
  const auto policy =
      make_policy(PolicyKind::Weighted, PolicyConfig{{3, 1}});
  ScheduleResult sr;
  sr.bitmap = 0x3;
  int64_t zeros[kMaxWorkersPerGroup] = {};
  uint64_t words[kMaxWorkersPerGroup / 8];
  policy->fill_aux(aux_inputs(zeros, zeros, /*limit=*/2, &sr), words);
  const auto* table = reinterpret_cast<const uint8_t*>(words);
  int count0 = 0, count1 = 0;
  for (uint32_t s = 0; s < kMaxWorkersPerGroup; ++s) {
    ASSERT_TRUE(table[s] == 0 || table[s] == 1) << "slot " << s;
    (table[s] == 0 ? count0 : count1) += 1;
  }
  // weight 3:1 over 64 slots -> exactly 48:16 with the deterministic
  // cumulative allotment.
  EXPECT_EQ(count0, 48);
  EXPECT_EQ(count1, 16);
}

TEST(PolicyTest, WeightedPoisonsTableWhenNothingEligible) {
  const auto policy = make_policy(PolicyKind::Weighted);
  ScheduleResult sr;
  sr.bitmap = 0;
  int64_t zeros[kMaxWorkersPerGroup] = {};
  uint64_t words[kMaxWorkersPerGroup / 8];
  policy->fill_aux(aux_inputs(zeros, zeros, /*limit=*/8, &sr), words);
  const auto* table = reinterpret_cast<const uint8_t*>(words);
  for (uint32_t s = 0; s < kMaxWorkersPerGroup; ++s) {
    EXPECT_EQ(table[s], 0xFF) << "slot " << s;
  }
  // And the mirror turns the poison into a fallback, never a dispatch.
  const auto p = params(1, 8);
  const uint64_t bitmap = 0;
  uint8_t aux[kMaxWorkersPerGroup];
  std::memset(aux, 0xFF, sizeof(aux));
  EXPECT_EQ(policy->reference_dispatch(p, &bitmap, aux, sizeof(aux), 1, 2),
            kInvalidWorker);
}

TEST(PolicyTest, WeightedStaleTableFallsBackOnMembershipCheck) {
  // Table built while worker 0 was eligible; bitmap has since dropped it.
  // A slot pointing at worker 0 must fall back, not dispatch outside the
  // eligible set.
  const auto policy = make_policy(PolicyKind::Weighted);
  const auto p = params(1, 8);
  uint8_t table[kMaxWorkersPerGroup];
  std::memset(table, 0, sizeof(table));  // every slot -> worker 0
  const uint64_t bitmap = 0x2;           // only worker 1 eligible now
  EXPECT_EQ(policy->reference_dispatch(p, &bitmap, table, sizeof(table),
                                       0xdeadbeef, 7),
            kInvalidWorker);
}

TEST(PolicyTest, QueueEstArgminFollowsIncrements) {
  const auto policy = make_policy(PolicyKind::QueueEst);
  const auto p = params(1, 8);
  const uint64_t bitmap = 0x7;  // workers 0..2
  uint64_t est[kMaxWorkersPerGroup] = {};
  est[0] = 5;
  est[1] = 1;
  est[2] = 3;
  auto* aux = reinterpret_cast<uint8_t*>(est);
  // Argmin with the in-decision increment: 1 stays cheapest until its
  // estimate crosses worker 2's, then the pick moves over — consecutive
  // dispatches between refreshes spread instead of herding.
  EXPECT_EQ(policy->reference_dispatch(p, &bitmap, aux, 512, 0, 0), 1u);
  EXPECT_EQ(est[1], 2u);
  EXPECT_EQ(policy->reference_dispatch(p, &bitmap, aux, 512, 0, 0), 1u);
  EXPECT_EQ(policy->reference_dispatch(p, &bitmap, aux, 512, 0, 0), 1u);
  EXPECT_EQ(est[1], 4u);
  EXPECT_EQ(policy->reference_dispatch(p, &bitmap, aux, 512, 0, 0), 2u);
  EXPECT_EQ(est[2], 4u);
}

TEST(PolicyTest, QueueEstIgnoresIneligibleMinimum) {
  const auto policy = make_policy(PolicyKind::QueueEst);
  const auto p = params(1, 8);
  const uint64_t bitmap = 0x4;  // only worker 2
  uint64_t est[kMaxWorkersPerGroup] = {};
  est[0] = 0;  // global minimum, but not eligible
  est[2] = 99;
  EXPECT_EQ(policy->reference_dispatch(
                p, &bitmap, reinterpret_cast<uint8_t*>(est), 512, 0, 0),
            2u);
}

TEST(PolicyTest, MinWorkersGateAppliesToEveryPolicy) {
  uint8_t aux[kMaxWorkersPerGroup * 8] = {};
  const uint64_t bitmap = 0x1;  // one survivor, min_workers = 2
  for (size_t k = 0; k < kPolicyCount; ++k) {
    const auto policy = make_policy(static_cast<PolicyKind>(k));
    const auto p = params(1, 8, /*min_workers=*/2);
    EXPECT_EQ(policy->reference_dispatch(p, &bitmap, aux, sizeof(aux), 5, 9),
              kInvalidWorker)
        << policy->name();
  }
}

}  // namespace
}  // namespace hermes::core
