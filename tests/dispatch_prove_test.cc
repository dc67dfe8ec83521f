// Machine-checked proof of the dispatch program's key invariant (paper
// Algo. 2): the socket index handed to sk_select_reuseport is always
// < nr_socks, and the program returns use-selection or fallback — for
// every pool geometry Hermes supports, over *all* executions (any context
// hash, any bitmap contents including corrupt ones, any map state). The
// proof reads the abstract interpreter's result, so this is a build-time
// theorem, not a sampled test. Here each program is analysed fresh; the
// runtime proves from the verifier's own analysis instead
// (VerifiedImage::analysis()), and the last test pins the two together.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bpf/analysis/prove.h"
#include "bpf/maps.h"
#include "core/dispatch_prog.h"
#include "core/hermes.h"
#include "core/policy.h"

namespace hermes::core {
namespace {

using bpf::ArrayMap;
using bpf::Map;
using bpf::ReuseportSockArray;
using bpf::analysis::AnalysisResult;
using bpf::analysis::analyze;
using bpf::analysis::DispatchProof;
using bpf::analysis::prove_dispatch;

uint64_t nr_socks_of(const DispatchProgramParams& p) {
  return static_cast<uint64_t>(p.num_groups) * p.workers_per_group;
}

AnalysisResult analyze_params(const DispatchProgramParams& p) {
  ArrayMap sel(p.num_groups, /*value_size=*/8);
  ReuseportSockArray socks(static_cast<uint32_t>(nr_socks_of(p)));
  std::vector<Map*> maps = {&sel, &socks};
  return analyze(build_dispatch_program(p), maps);
}

DispatchProof prove_params(const DispatchProgramParams& p) {
  return prove_dispatch(analyze_params(p), nr_socks_of(p));
}

TEST(DispatchProveTest, SingleGroupAllPoolSizes) {
  // Every single-level geometry the paper's testbed uses: 1..64 workers.
  for (uint32_t w = 1; w <= 64; ++w) {
    DispatchProgramParams p;
    p.num_groups = 1;
    p.workers_per_group = w;
    p.min_workers = 1;
    const DispatchProof proof = prove_params(p);
    EXPECT_TRUE(proof) << "nr_socks=" << w << ":\n" << proof.detail;
  }
}

TEST(DispatchProveTest, SingleGroupDefaultMinWorkers) {
  for (uint32_t w : {2u, 8u, 24u, 64u}) {
    DispatchProgramParams p;
    p.num_groups = 1;
    p.workers_per_group = w;
    p.min_workers = 2;
    const DispatchProof proof = prove_params(p);
    EXPECT_TRUE(proof) << proof.detail;
  }
}

TEST(DispatchProveTest, TwoLevelConfigs) {
  // Paper §7 / Appendix C: >64 workers via group sharding.
  struct Geometry {
    uint32_t groups, per_group;
  };
  for (const auto [groups, per_group] : {Geometry{2, 64}, Geometry{4, 32},
                                         Geometry{8, 64}, Geometry{16, 16},
                                         Geometry{64, 64}}) {
    DispatchProgramParams p;
    p.num_groups = groups;
    p.workers_per_group = per_group;
    p.min_workers = 2;
    const DispatchProof proof = prove_params(p);
    EXPECT_TRUE(proof) << groups << "x" << per_group << ":\n"
                       << proof.detail;
  }
}

TEST(DispatchProveTest, ProofDetailNamesEveryCallSite) {
  DispatchProgramParams p;
  p.num_groups = 4;
  p.workers_per_group = 16;
  const AnalysisResult analysis = analyze_params(p);
  const DispatchProof proof = prove_dispatch(analysis, nr_socks_of(p));
  ASSERT_TRUE(proof) << proof.detail;
  EXPECT_NE(proof.detail.find("key"), std::string::npos);
  EXPECT_NE(proof.detail.find("return value"), std::string::npos);
  EXPECT_GT(analysis.analysis_steps, 0u);
}

// Every scheduling policy's generated program must carry the same proof:
// the runtime refuses to attach an unproven program (hermes.cc), so a
// policy whose emitter drops a guard must fail HERE, not in production.
DispatchProof prove_policy(const SchedulingPolicy& policy,
                           const PolicyProgramParams& p) {
  const uint64_t nr_socks = static_cast<uint64_t>(p.base.num_groups) *
                            p.base.workers_per_group;
  ArrayMap sel(p.base.num_groups, /*value_size=*/8);
  ReuseportSockArray socks(static_cast<uint32_t>(nr_socks));
  std::vector<Map*> maps = {&sel, &socks};
  std::unique_ptr<ArrayMap> aux;
  if (policy.aux_value_bytes() > 0) {
    aux = std::make_unique<ArrayMap>(p.base.num_groups,
                                     policy.aux_value_bytes());
    maps.push_back(aux.get());
  }
  return prove_dispatch(analyze(policy.build_program(p), maps), nr_socks);
}

TEST(DispatchProveTest, EveryPolicyProvenOnEveryGeometry) {
  struct Geometry {
    uint32_t groups, per_group;
  };
  for (size_t k = 0; k < kPolicyCount; ++k) {
    const auto policy = make_policy(static_cast<PolicyKind>(k),
                                    PolicyConfig{{4, 4, 2, 1}});
    for (const auto [groups, per_group] :
         {Geometry{1, 2}, Geometry{1, 8}, Geometry{2, 8}, Geometry{2, 64},
          Geometry{4, 16}, Geometry{3, 5}, Geometry{16, 16},
          Geometry{64, 64}}) {
      PolicyProgramParams p;
      p.base.num_groups = groups;
      p.base.workers_per_group = per_group;
      p.base.min_workers = 1;
      const DispatchProof proof = prove_policy(*policy, p);
      EXPECT_TRUE(proof) << policy->name() << " " << groups << "x"
                         << per_group << ":\n"
                         << proof.detail;
    }
  }
}

TEST(DispatchProveTest, PlantedOutOfRangeSelectionFailsProofPerPolicy) {
  // The negative control per policy: plant_out_of_range omits the range
  // guards in front of the socket selection, so the selected key can
  // exceed nr_socks — prove.h MUST reject every such program (a planted
  // program is never loaded). This is what stops a future policy author
  // from shipping an unguarded index.
  for (size_t k = 0; k < kPolicyCount; ++k) {
    const auto policy = make_policy(static_cast<PolicyKind>(k),
                                    PolicyConfig{{4, 4, 2, 1}});
    PolicyProgramParams p;
    p.base.num_groups = 2;
    p.base.workers_per_group = 16;
    p.base.min_workers = 1;
    p.plant_out_of_range = true;
    const DispatchProof proof = prove_policy(*policy, p);
    EXPECT_FALSE(proof) << policy->name()
                        << ": planted out-of-range selection was proven";
    // The rejection may trip at the sk_select key bound ("not proven") or
    // earlier, when the unguarded index walks out of the aux map value —
    // either way the program must not load.
    EXPECT_TRUE(proof.detail.find("not proven") != std::string::npos ||
                proof.detail.find("out of bounds") != std::string::npos)
        << policy->name() << ":\n"
        << proof.detail;
  }
}

TEST(DispatchProveTest, NegativeControlUnguardedIndexFailsProof) {
  // Sanity that the proof has teeth: a sockarray smaller than the worker
  // id space must NOT be provable (the guard bounds the index below
  // num_groups * workers_per_group, not below an arbitrary bound).
  DispatchProgramParams p;
  p.num_groups = 1;
  p.workers_per_group = 64;
  p.min_workers = 1;
  ArrayMap sel(1, 8);
  ReuseportSockArray socks(32);  // too small: ids 32..63 overflow it
  std::vector<Map*> maps = {&sel, &socks};
  const DispatchProof proof = prove_dispatch(
      analyze(build_dispatch_program(p), maps), /*nr_socks=*/32);
  EXPECT_FALSE(proof);
  EXPECT_NE(proof.detail.find("not proven"), std::string::npos);
}

TEST(DispatchProveTest, RuntimeProofFromVerifierAnalysisMatchesFreshAnalysis) {
  // attach_port proves the program from the analysis Vm::load's verifier
  // ran, kept on the image. For every policy and geometry that kept
  // analysis must give the same verdict and detail as analysing the
  // loaded program against its maps afresh. The key bound is also tight:
  // the proof fails one socket short, so it really compares against
  // nr_socks.
  struct Geometry {
    uint32_t groups, per_group;
  };
  for (size_t k = 0; k < kPolicyCount; ++k) {
    const auto kind = static_cast<PolicyKind>(k);
    for (const auto [groups, per_group] :
         {Geometry{1, 2}, Geometry{1, 8}, Geometry{2, 8}, Geometry{2, 64},
          Geometry{4, 16}, Geometry{3, 5}, Geometry{16, 16},
          Geometry{64, 64}}) {
      SCOPED_TRACE(::testing::Message() << to_string(kind) << " " << groups
                                        << "x" << per_group);
      HermesRuntime::Options o;
      o.num_workers = groups * per_group;
      o.config.workers_per_group = per_group;
      o.policy = kind;
      o.worker_weights = {4, 4, 2, 1};
      HermesRuntime rt(o);
      std::vector<uint64_t> cookies(o.num_workers);
      for (uint32_t w = 0; w < o.num_workers; ++w) cookies[w] = 1000 + w;
      const PortAttachment att = rt.attach_port(cookies);
      const bpf::LoadedProgram& lp = *att.program;

      const uint64_t nr_socks = att.sock_map->max_entries();
      ASSERT_EQ(nr_socks, uint64_t{groups} * per_group);
      const AnalysisResult& kept = lp.image()->analysis();
      const AnalysisResult fresh = analyze(lp.insns(), lp.maps());
      EXPECT_EQ(kept.analysis_steps, fresh.analysis_steps);
      const DispatchProof from_kept = prove_dispatch(kept, nr_socks);
      const DispatchProof from_fresh = prove_dispatch(fresh, nr_socks);
      EXPECT_TRUE(from_kept) << from_kept.detail;
      EXPECT_EQ(from_kept.ok, from_fresh.ok);
      EXPECT_EQ(from_kept.detail, from_fresh.detail);
      const DispatchProof short_one = prove_dispatch(kept, nr_socks - 1);
      EXPECT_FALSE(short_one) << short_one.detail;
    }
  }
}

}  // namespace
}  // namespace hermes::core
