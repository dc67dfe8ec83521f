// Execution-plan unit tests (src/bpf/plan.h): superinstruction fusion and
// its boundary conditions, instruction-count parity with the reference
// interpreter across fusion, check elision at proven sites, plan reuse
// across reuseport attach/detach, and batch-vs-scalar socket selection
// equality. The broad semantic equivalence claim (the plan byte-identical
// to bpf::ref_run over >= 10k fuzzed programs) lives in
// torture_bpf_diff_test; this file pins the plan compiler's structure.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bpf/assembler.h"
#include "bpf/maps.h"
#include "bpf/plan.h"
#include "bpf/ref_interpreter.h"
#include "bpf/vm.h"
#include "core/dispatch_prog.h"
#include "netsim/listening_socket.h"
#include "netsim/reuseport.h"
#include "simcore/rng.h"

namespace hermes::bpf {
namespace {

// The 19-insn branch-free popcount core/dispatch_prog.cc emits
// (d = popcount(s), clobbering s and c). `mid` optionally binds a label on
// the sequence's second instruction — a jump target inside the segment,
// which must block fusion.
void emit_popcount(Assembler& a, R d, R s, R c, const char* mid = nullptr) {
  a.mov(d, s);
  if (mid != nullptr) a.label(mid);
  a.rsh(d, 1);
  a.ld_imm64(c, 0x5555555555555555ull);
  a.and_(d, c);
  a.sub(s, d);
  a.mov(d, s);
  a.rsh(d, 2);
  a.ld_imm64(c, 0x3333333333333333ull);
  a.and_(d, c);
  a.and_(s, c);
  a.add(d, s);
  a.mov(s, d);
  a.rsh(s, 4);
  a.add(d, s);
  a.ld_imm64(c, 0x0f0f0f0f0f0f0f0full);
  a.and_(d, c);
  a.ld_imm64(c, 0x0101010101010101ull);
  a.mul(d, c);
  a.rsh(d, 56);
}

struct Loaded {
  Vm vm;
  std::unique_ptr<LoadedProgram> prog;
};

Loaded load(const Program& p, std::vector<Map*> maps = {}) {
  Loaded l;
  std::string err;
  l.prog = l.vm.load(p, std::move(maps), &err);
  EXPECT_NE(l.prog, nullptr) << err;
  return l;
}

// The plan's run and the reference interpreter's agree on r0 and on the
// source-instruction count.
void expect_matches_reference(const Loaded& l, const ReuseportCtx& ctx0) {
  ReuseportCtx ctx = ctx0;
  const Vm::RunResult got = l.vm.run(*l.prog, ctx);
  ReuseportCtx ref_ctx = ctx0;
  const RefResult ref = ref_run(l.prog->insns(), l.prog->maps(), ref_ctx);
  ASSERT_FALSE(ref.trapped) << ref.trap << " at pc " << ref.trap_pc;
  EXPECT_EQ(got.ret, ref.ret);
  EXPECT_EQ(got.insns_executed, ref.insns_executed);
}

TEST(BpfPlan, PopcountSequenceFusesToOneMicroOp) {
  Assembler a;
  a.mov(r1, 0x00ff00ff00ff00ffll);
  emit_popcount(a, r0, r1, r2);
  a.exit();
  const Program p = a.finish();

  auto l = load(p);
  const auto& st = l.prog->plan().stats();
  EXPECT_EQ(st.fused_popcount, 1u);
  EXPECT_EQ(st.n_insns, p.size());
  EXPECT_EQ(st.n_uops, st.n_insns - 18);  // 19 insns -> 1 micro-op

  ReuseportCtx ctx;
  const auto run = l.vm.run(*l.prog, ctx);
  EXPECT_EQ(run.ret, 32u);
  EXPECT_EQ(run.fused_hits, 1u);
}

TEST(BpfPlan, JumpIntoSegmentBlocksFusionButKeepsSemantics) {
  // A never-taken branch targets the popcount sequence's second
  // instruction. Fusing would make that target vanish, so the compiler
  // must fall back to 1:1 micro-ops — and still compute the same value.
  Assembler a;
  a.mov(r0, 0);
  a.mov(r1, 0xffll);
  a.jeq(r1, 0, "mid");  // never taken; lands mid-sequence
  emit_popcount(a, r0, r1, r2, "mid");
  a.exit();
  const Program p = a.finish();

  auto l = load(p);
  EXPECT_EQ(l.prog->plan().stats().fused_popcount, 0u);

  ReuseportCtx ctx;
  const auto run = l.vm.run(*l.prog, ctx);
  EXPECT_EQ(run.ret, 8u);
  EXPECT_EQ(run.fused_hits, 0u);

  // The reference interpreter agrees, including on the instruction count.
  expect_matches_reference(l, ReuseportCtx{});
}

TEST(BpfPlan, BlsrNearMissDoesNotFuse) {
  // mov t,v; sub t,2; and v,t — one immediate off the clear-lowest-bit
  // idiom. Must stay 1:1.
  Assembler a;
  a.mov(r1, 0b1100);
  a.mov(r2, r1);
  a.sub(r2, 2);
  a.and_(r1, r2);
  a.mov(r0, r1);
  a.exit();

  auto l = load(a.finish());
  EXPECT_EQ(l.prog->plan().stats().fused_blsr, 0u);
  ReuseportCtx ctx;
  EXPECT_EQ(l.vm.run(*l.prog, ctx).ret, 0b1100u & 0b1010u);
}

TEST(BpfPlan, InsnCountIsTierInvariantAcrossFusion) {
  // The fused popcount is one micro-op but charges its 19 source
  // instructions, so the plan reports the reference interpreter's count.
  Assembler a;
  a.mov(r1, 0x1234567812345678ll);
  emit_popcount(a, r0, r1, r2);
  a.exit();

  auto l = load(a.finish());
  ReuseportCtx ctx;
  const auto run = l.vm.run(*l.prog, ctx);
  EXPECT_EQ(run.fused_hits, 1u);
  EXPECT_EQ(run.insns_executed, 21u);
  expect_matches_reference(l, ReuseportCtx{});
}

TEST(BpfPlan, ElidesChecksAtProvenSites) {
  // ctx load + stack store/load: all proven by the verifier, so the plan
  // drops all three runtime checks. The ctx load behind the never-taken
  // fall-through is range-dead — the analysis never visits it — so it
  // keeps its check.
  Assembler a;
  a.ldx_w(r0, r1, 16);      // ctx.hash
  a.stx_w(r10, -4, r0);
  a.ldx_w(r0, r10, -4);
  a.mov(r2, 0);
  a.jeq(r2, 0, "out");      // always taken
  a.ldx_w(r0, r1, 20);      // range-dead
  a.label("out");
  a.exit();

  auto l = load(a.finish());
  EXPECT_EQ(l.prog->plan().stats().elided_sites, 3u);
  EXPECT_EQ(l.prog->plan().stats().checked_sites, 1u);
  ReuseportCtx ctx;
  ctx.hash = 0xabcd;
  const auto run = l.vm.run(*l.prog, ctx);
  EXPECT_EQ(run.ret, 0xabcdu);
  EXPECT_EQ(run.elided_checks, 3u);
  expect_matches_reference(l, ctx);
}

TEST(BpfPlan, PlanReusedAcrossAttachDetach) {
  // The plan is compiled once at Vm::load and owned by the LoadedProgram;
  // reuseport attach/detach cycles must not recompile or invalidate it.
  core::DispatchProgramParams params;
  params.num_groups = 1;
  params.workers_per_group = 8;
  ArrayMap sel(1, sizeof(uint64_t));
  sel.store_u64(0, 0xff);
  ReuseportSockArray socks(8);
  for (uint32_t w = 0; w < 8; ++w) socks.update(w, 100 + w);

  Vm vm;
  std::string err;
  auto loaded =
      vm.load(core::build_dispatch_program(params), {&sel, &socks}, &err);
  ASSERT_NE(loaded, nullptr) << err;
  const ExecutionPlan* plan_before = &loaded->plan();

  netsim::ReuseportGroup group(80);
  std::vector<std::unique_ptr<netsim::ListeningSocket>> ls;
  for (WorkerId w = 0; w < 8; ++w) {
    ls.push_back(std::make_unique<netsim::ListeningSocket>(80, 16, w));
    group.add_socket(ls.back().get());
    socks.update(w, ls.back()->cookie());
  }

  sim::Rng rng(3);
  std::vector<netsim::ListeningSocket*> first;
  for (int round = 0; round < 3; ++round) {
    group.attach_program(&vm, loaded.get());
    for (int i = 0; i < 64; ++i) {
      netsim::FourTuple t{static_cast<uint32_t>(rng.next_u64()), 1,
                          static_cast<uint16_t>(i + 1024), 80};
      netsim::ListeningSocket* s = group.select(t);
      if (round == 0) {
        first.push_back(s);
      } else {
        EXPECT_EQ(s, first[static_cast<size_t>(i)]) << "round " << round;
      }
    }
    EXPECT_EQ(&loaded->plan(), plan_before) << "plan recompiled";
    group.detach_program();
    rng = sim::Rng(3);  // same tuples every round
  }
  EXPECT_GT(group.stats().bpf_selections, 0u);
}

TEST(BpfPlan, BatchSelectMatchesScalarSelect) {
  core::DispatchProgramParams params;
  params.num_groups = 2;
  params.workers_per_group = 8;
  ArrayMap sel(2, sizeof(uint64_t));
  sel.store_u64(0, 0xad);
  sel.store_u64(1, 0x5f);
  ReuseportSockArray socks(16);

  Vm vm;
  std::string err;
  auto loaded =
      vm.load(core::build_dispatch_program(params), {&sel, &socks}, &err);
  ASSERT_NE(loaded, nullptr) << err;

  netsim::ReuseportGroup group(443);
  std::vector<std::unique_ptr<netsim::ListeningSocket>> ls;
  for (WorkerId w = 0; w < 16; ++w) {
    ls.push_back(std::make_unique<netsim::ListeningSocket>(443, 16, w));
    group.add_socket(ls.back().get());
    socks.update(w, ls.back()->cookie());
  }
  group.attach_program(&vm, loaded.get());

  sim::Rng rng(11);
  std::vector<netsim::FourTuple> tuples(256);
  for (auto& t : tuples) {
    t.saddr = static_cast<uint32_t>(rng.next_u64());
    t.daddr = static_cast<uint32_t>(rng.next_u64());
    t.sport = static_cast<uint16_t>(1024 + (rng.next_u64() % 60000));
    t.dport = 443;
  }

  std::vector<netsim::ListeningSocket*> scalar(tuples.size());
  for (size_t i = 0; i < tuples.size(); ++i) scalar[i] = group.select(tuples[i]);
  const auto mid = group.stats();

  std::vector<netsim::ListeningSocket*> batched(tuples.size());
  group.select_batch(tuples, batched);
  const auto after = group.stats();

  EXPECT_EQ(batched, scalar);
  // The batch path accounts identically to 256 scalar selects.
  EXPECT_EQ(after.bpf_selections - mid.bpf_selections, mid.bpf_selections);
  EXPECT_EQ(after.bpf_fallbacks - mid.bpf_fallbacks, mid.bpf_fallbacks);
  EXPECT_EQ(after.bpf_insns - mid.bpf_insns, mid.bpf_insns);
  EXPECT_GT(mid.bpf_selections, 0u);

  // No-program batch path: pure hash fallback, still identical.
  group.detach_program();
  std::vector<netsim::ListeningSocket*> hash_scalar(tuples.size());
  for (size_t i = 0; i < tuples.size(); ++i) {
    hash_scalar[i] = group.select(tuples[i]);
  }
  std::vector<netsim::ListeningSocket*> hash_batched(tuples.size());
  group.select_batch(tuples, hash_batched);
  EXPECT_EQ(hash_batched, hash_scalar);
}

TEST(BpfPlan, DispatchProgramPlanShape) {
  // The production program's plan: 2 fused popcounts, the full
  // (workers_per_group-1)-unit blsr ladder, 1 isolate-lowest-bit, and
  // every memory/helper site elided (straight-line program — the analysis
  // visits everything).
  core::DispatchProgramParams params;
  params.num_groups = 2;
  params.workers_per_group = 8;
  ArrayMap sel(2, sizeof(uint64_t));
  ReuseportSockArray socks(16);

  Vm vm;
  std::string err;
  auto loaded =
      vm.load(core::build_dispatch_program(params), {&sel, &socks}, &err);
  ASSERT_NE(loaded, nullptr) << err;
  const auto& st = loaded->plan().stats();
  EXPECT_EQ(st.fused_popcount, 2u);
  EXPECT_EQ(st.fused_blsr, 63u);
  EXPECT_EQ(st.fused_isolate, 1u);
  EXPECT_EQ(st.checked_sites, 0u);
  EXPECT_GT(st.elided_sites, 0u);
  EXPECT_LT(st.n_uops, st.n_insns);
}

}  // namespace
}  // namespace hermes::bpf
