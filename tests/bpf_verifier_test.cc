// Verifier: every safety rule gets at least one accept and one reject case.
#include <gtest/gtest.h>

#include <memory>

#include "bpf/assembler.h"
#include "bpf/maps.h"
#include "bpf/ref_interpreter.h"
#include "bpf/verifier.h"

namespace hermes::bpf {
namespace {

class VerifierTest : public ::testing::Test {
 protected:
  VerifierTest()
      : array_map_(std::make_unique<ArrayMap>(1, 8)),
        sock_map_(std::make_unique<ReuseportSockArray>(64)) {
    maps_ = {array_map_.get(), sock_map_.get()};
  }

  VerifyResult verify_prog(Program p) { return verify(p, maps_); }

  std::unique_ptr<ArrayMap> array_map_;
  std::unique_ptr<ReuseportSockArray> sock_map_;
  std::vector<Map*> maps_;
};

TEST_F(VerifierTest, MinimalProgramAccepted) {
  Assembler a;
  a.mov(r0, 0);
  a.exit();
  EXPECT_TRUE(verify_prog(a.finish()));
}

TEST_F(VerifierTest, EmptyProgramRejected) {
  const auto res = verify_prog({});
  EXPECT_FALSE(res);
  EXPECT_NE(res.error.find("empty"), std::string::npos);
}

TEST_F(VerifierTest, TooLongProgramRejected) {
  Program p(kMaxProgramLen + 1, Insn{Op::MovImm, 0, 0, 0, 0});
  p.back() = Insn{Op::Exit};
  EXPECT_FALSE(verify_prog(std::move(p)));
}

TEST_F(VerifierTest, FallThroughOffEndRejected) {
  Assembler a;
  a.mov(r0, 0);  // no exit
  const auto res = verify_prog(a.finish());
  EXPECT_FALSE(res);
  EXPECT_NE(res.error.find("fall-through"), std::string::npos);
}

TEST_F(VerifierTest, BackwardJumpRejected) {
  // An infinite loop: while (r0 == 0) goto top.
  Program p = {
      {Op::MovImm, 0, 0, 0, 0},
      {Op::JeqImm, 0, 0, -2, 0},
      {Op::Exit},
  };
  const auto res = verify_prog(std::move(p));
  EXPECT_FALSE(res);
  EXPECT_EQ(res.error_pc, 1u);
  EXPECT_NE(res.error.find("backward edge"), std::string::npos);
}

TEST_F(VerifierTest, BoundedLoopRejectedAsBackwardEdge) {
  // A loop that provably ends after 8 trips is still a backward edge: the
  // dialect is forward-only, as on the paper's 4.19 kernels.
  Assembler a;
  a.mov(r7, 0);
  a.mov(r0, 0);
  a.label("top");
  a.add(r0, 2);
  a.add(r7, 1);
  a.jlt(r7, 8, "top");  // pc 4
  a.exit();
  const auto res = verify_prog(a.finish());
  EXPECT_FALSE(res);
  EXPECT_EQ(res.error_pc, 4u);
  EXPECT_NE(res.error.find("backward edge"), std::string::npos);
}

TEST_F(VerifierTest, JumpOutOfBoundsRejected) {
  Program p = {
      {Op::Ja, 0, 0, 100, 0},
      {Op::Exit},
  };
  EXPECT_FALSE(verify_prog(std::move(p)));
}

TEST_F(VerifierTest, UnreachableCodeRejected) {
  Assembler a;
  a.mov(r0, 0);
  a.exit();
  a.mov(r0, 1);  // dead
  a.exit();
  const auto res = verify_prog(a.finish());
  EXPECT_FALSE(res);
  EXPECT_NE(res.error.find("unreachable"), std::string::npos);
}

TEST_F(VerifierTest, ReadUninitializedRegisterRejected) {
  Assembler a;
  a.mov(r0, r5);  // r5 never written
  a.exit();
  const auto res = verify_prog(a.finish());
  EXPECT_FALSE(res);
  EXPECT_NE(res.error.find("uninitialized"), std::string::npos);
}

TEST_F(VerifierTest, WriteToFramePointerRejected) {
  Assembler a;
  a.mov(r10, 0);
  a.mov(r0, 0);
  a.exit();
  const auto res = verify_prog(a.finish());
  EXPECT_FALSE(res);
  EXPECT_NE(res.error.find("frame pointer"), std::string::npos);
}

TEST_F(VerifierTest, ExitWithoutR0Rejected) {
  Assembler a;
  a.exit();
  EXPECT_FALSE(verify_prog(a.finish()));
}

TEST_F(VerifierTest, ExitWithPointerR0Rejected) {
  Assembler a;
  a.mov(r0, r10);
  a.exit();
  const auto res = verify_prog(a.finish());
  EXPECT_FALSE(res);
}

TEST_F(VerifierTest, DivByZeroImmediateRejected) {
  Assembler a;
  a.mov(r0, 10);
  a.div(r0, 0);
  a.exit();
  const auto res = verify_prog(a.finish());
  EXPECT_FALSE(res);
  EXPECT_NE(res.error.find("zero"), std::string::npos);
}

TEST_F(VerifierTest, StackAccessInBoundsAccepted) {
  Assembler a;
  a.mov(r2, 7);
  a.stx_dw(r10, -8, r2);
  a.ldx_dw(r0, r10, -8);
  a.exit();
  EXPECT_TRUE(verify_prog(a.finish()));
}

TEST_F(VerifierTest, StackOverflowRejected) {
  Assembler a;
  a.mov(r2, 7);
  a.stx_dw(r10, -520, r2);  // below the 512-byte frame
  a.mov(r0, 0);
  a.exit();
  EXPECT_FALSE(verify_prog(a.finish()));
}

TEST_F(VerifierTest, StackUnderflowRejected) {
  Assembler a;
  a.mov(r2, 7);
  a.stx_dw(r10, 0, r2);  // at/above r10
  a.mov(r0, 0);
  a.exit();
  EXPECT_FALSE(verify_prog(a.finish()));
}

TEST_F(VerifierTest, StackPointerArithmeticTracked) {
  Assembler a;
  a.mov(r2, r10);
  a.add(r2, -16);
  a.st_w(r2, 4, 1);  // [-16+4] = -12: fine
  a.mov(r0, 0);
  a.exit();
  EXPECT_TRUE(verify_prog(a.finish()));

  Assembler b;
  b.mov(r2, r10);
  b.add(r2, 16);     // points above the frame
  b.st_w(r2, 0, 1);
  b.mov(r0, 0);
  b.exit();
  EXPECT_FALSE(verify_prog(b.finish()));
}

TEST_F(VerifierTest, ContextReadAcceptedWriteRejected) {
  Assembler a;
  a.ldx_w(r0, r1, kCtxOffHash);
  a.exit();
  EXPECT_TRUE(verify_prog(a.finish()));

  Assembler b;
  b.mov(r2, 1);
  b.stx_w(r1, kCtxOffHash, r2);
  b.mov(r0, 0);
  b.exit();
  const auto res = verify_prog(b.finish());
  EXPECT_FALSE(res);
  EXPECT_NE(res.error.find("read-only"), std::string::npos);
}

TEST_F(VerifierTest, ContextOutOfBoundsReadRejected) {
  Assembler a;
  a.ldx_dw(r0, r1, static_cast<int32_t>(kCtxReadableBytes) - 4);
  a.exit();
  EXPECT_FALSE(verify_prog(a.finish()));
}

TEST_F(VerifierTest, MapLookupRequiresNullCheck) {
  Assembler a;
  a.st_w(r10, -4, 0);
  a.ld_map_fd(r1, 0);
  a.mov(r2, r10);
  a.add(r2, -4);
  a.call(HelperId::MapLookupElem);
  a.ldx_dw(r0, r0, 0);  // deref without null check
  a.exit();
  const auto res = verify_prog(a.finish());
  EXPECT_FALSE(res);
  EXPECT_NE(res.error.find("null"), std::string::npos);
}

TEST_F(VerifierTest, MapLookupWithNullCheckAccepted) {
  Assembler a;
  a.st_w(r10, -4, 0);
  a.ld_map_fd(r1, 0);
  a.mov(r2, r10);
  a.add(r2, -4);
  a.call(HelperId::MapLookupElem);
  a.jeq(r0, 0, "miss");
  a.ldx_dw(r0, r0, 0);
  a.exit();
  a.label("miss");
  a.mov(r0, 0);
  a.exit();
  const auto res = verify_prog(a.finish());
  EXPECT_TRUE(res) << res.error;
}

TEST_F(VerifierTest, MapValueOutOfBoundsRejected) {
  Assembler a;
  a.st_w(r10, -4, 0);
  a.ld_map_fd(r1, 0);
  a.mov(r2, r10);
  a.add(r2, -4);
  a.call(HelperId::MapLookupElem);
  a.jeq(r0, 0, "miss");
  a.ldx_dw(r0, r0, 8);  // value_size is 8: offset 8 overruns
  a.exit();
  a.label("miss");
  a.mov(r0, 0);
  a.exit();
  const auto res = verify_prog(a.finish());
  EXPECT_FALSE(res);
  EXPECT_NE(res.error.find("map value"), std::string::npos);
}

TEST_F(VerifierTest, UnknownMapSlotRejected) {
  Assembler a;
  a.ld_map_fd(r1, 9);
  a.mov(r0, 0);
  a.exit();
  EXPECT_FALSE(verify_prog(a.finish()));
}

TEST_F(VerifierTest, UnknownHelperRejected) {
  Program p = {
      {Op::Call, 0, 0, 0, 999},
      {Op::Exit},
  };
  EXPECT_FALSE(verify_prog(std::move(p)));
}

TEST_F(VerifierTest, OnlyLookupAndSkSelectHelpersExist) {
  // The dialect has helper ids 1 and 3 only: the ids around them are
  // rejected by the verifier and trap in the reference interpreter.
  for (const int64_t id : {2, 4, 5}) {
    const Program p = {
        {Op::Call, 0, 0, 0, id},
        {Op::MovImm, 0, 0, 0, 0},
        {Op::Exit},
    };
    const auto res = verify_prog(p);
    EXPECT_FALSE(res) << "helper " << id;
    EXPECT_EQ(res.error_pc, 0u) << "helper " << id;
    EXPECT_NE(res.error.find("unknown helper"), std::string::npos)
        << "helper " << id;

    ReuseportCtx ctx;
    const RefResult ref = ref_run(p, maps_, ctx);
    EXPECT_TRUE(ref.trapped) << "helper " << id;
    EXPECT_EQ(ref.trap_pc, 0u) << "helper " << id;
    EXPECT_NE(ref.trap.find("unknown helper"), std::string::npos)
        << "helper " << id;
  }
}

TEST_F(VerifierTest, HelperArgTypeMismatchRejected) {
  // MapLookupElem with a scalar instead of a map handle in r1.
  Assembler a;
  a.mov(r1, 0);
  a.mov(r2, r10);
  a.add(r2, -4);
  a.call(HelperId::MapLookupElem);
  a.mov(r0, 0);
  a.exit();
  EXPECT_FALSE(verify_prog(a.finish()));
}

TEST_F(VerifierTest, HelperWrongMapTypeRejected) {
  // SkSelectReuseport requires a sockarray; pass the array map instead.
  Assembler a;
  a.st_w(r10, -4, 0);
  a.mov(r3, r10);
  a.add(r3, -4);
  a.ld_map_fd(r2, 0);  // slot 0 = ArrayMap
  a.mov(r4, 0);
  a.call(HelperId::SkSelectReuseport);
  a.mov(r0, 0);
  a.exit();
  const auto res = verify_prog(a.finish());
  EXPECT_FALSE(res);
  EXPECT_NE(res.error.find("map type"), std::string::npos);
}

TEST_F(VerifierTest, CallClobbersCallerSavedRegs) {
  Assembler a;
  a.st_w(r10, -4, 0);
  a.mov(r2, r10);
  a.add(r2, -4);
  a.ld_map_fd(r1, 0);
  a.mov(r3, 5);
  a.call(HelperId::MapLookupElem);
  a.mov(r0, r3);  // r3 was clobbered by the call
  a.exit();
  const auto res = verify_prog(a.finish());
  EXPECT_FALSE(res);
  EXPECT_NE(res.error.find("uninitialized"), std::string::npos);
}

TEST_F(VerifierTest, CalleeSavedRegsSurviveCall) {
  Assembler a;
  a.st_w(r10, -4, 0);
  a.mov(r2, r10);
  a.add(r2, -4);
  a.ld_map_fd(r1, 0);
  a.mov(r6, 5);
  a.call(HelperId::MapLookupElem);
  a.mov(r0, r6);  // r6 survives
  a.exit();
  EXPECT_TRUE(verify_prog(a.finish()));
}

TEST_F(VerifierTest, PointerArithmeticWithRegisterRejected) {
  // Variable pointer offsets are legal now, but only when the range
  // analysis can bound them: an unknown offset still can't be accessed.
  Assembler a;
  a.ldx_w(r0, r1, kCtxOffHash);  // r0: any u32
  a.mov(r3, r10);
  a.add(r3, r0);
  a.ldx_w(r2, r3, -8);
  a.mov(r0, 0);
  a.exit();
  const auto res = verify_prog(a.finish());
  EXPECT_FALSE(res);
  EXPECT_NE(res.error.find("stack access out of bounds"), std::string::npos);
}

TEST_F(VerifierTest, RangeProvenVariableStackAccessAccepted) {
  // Previously impossible under the constant-offset-only model: the
  // masked index keeps fp[-16 + 4i], i in [0,3], provably in-bounds.
  Assembler a;
  a.ldx_w(r0, r1, kCtxOffHash);
  a.and_(r0, 3);
  a.lsh(r0, 2);
  a.mov(r3, r10);
  a.add(r3, -16);
  a.add(r3, r0);
  a.ldx_w(r2, r3, 0);
  a.mov(r0, 0);
  a.exit();
  const auto res = verify_prog(a.finish());
  EXPECT_TRUE(res) << res.error;
}

TEST_F(VerifierTest, RangeProvenVariableMapValueAccessAccepted) {
  Assembler a;
  a.st_w(r10, -4, 0);
  a.mov(r2, r10);
  a.add(r2, -4);
  a.ld_map_fd(r1, 0);
  a.call(HelperId::MapLookupElem);
  a.jeq(r0, 0, "out");
  a.ldx_w(r3, r0, 0);
  a.and_(r3, 7);  // value_size is 8: offsets [0,7] for a byte read
  a.mov(r4, r0);
  a.add(r4, r3);
  a.ldx_b(r5, r4, 0);
  a.label("out");
  a.mov(r0, 0);
  a.exit();
  const auto res = verify_prog(a.finish());
  EXPECT_TRUE(res) << res.error;
}

TEST_F(VerifierTest, DeadBranchIsPrunedNotVerified) {
  // The taken edge is infeasible (r0 == 3 can't be > 5); the code behind
  // it would be invalid but is never abstractly reached.
  Assembler a;
  a.mov(r0, 3);
  a.jgt(r0, 5, "bad");
  a.mov(r0, 0);
  a.exit();
  a.label("bad");
  a.ldx_w(r2, r10, 0);  // out-of-bounds if it were live
  a.exit();
  const auto res = verify_prog(a.finish());
  EXPECT_TRUE(res) << res.error;
  EXPECT_GE(res.dead_edges, 1u);
  EXPECT_EQ(res.dead_insns, 2u);
}

TEST_F(VerifierTest, SpilledScalarRangeRoundTrips) {
  // A bounded scalar keeps its range through a stack spill/fill, so it
  // can still prove a variable access after a helper clobbers r0.
  Assembler a;
  a.ldx_w(r0, r1, kCtxOffHash);
  a.and_(r0, 7);
  a.stx_dw(r10, -8, r0);
  a.st_w(r10, -12, 0);
  a.mov(r2, r10);
  a.add(r2, -12);
  a.ld_map_fd(r1, 0);
  a.call(HelperId::MapLookupElem);
  a.ldx_dw(r3, r10, -8);  // fill: range [0,7] restored
  a.mov(r2, r10);
  a.add(r2, -8);
  a.add(r2, r3);
  a.ldx_b(r4, r2, 0);  // fp-8 .. fp-1: in-bounds
  a.mov(r0, 0);
  a.exit();
  const auto res = verify_prog(a.finish());
  EXPECT_TRUE(res) << res.error;
}

TEST_F(VerifierTest, HelperContextArgMustBeContextBase) {
  // The VM hands r1 to sk_select_reuseport as the raw context pointer;
  // anything but the context base would misinterpret memory.
  Assembler a;
  a.st_w(r10, -4, 0);
  a.mov(r3, r10);
  a.add(r3, -4);
  a.ld_map_fd(r2, 1);
  a.add(r1, 8);
  a.mov(r4, 0);
  a.call(HelperId::SkSelectReuseport);
  a.mov(r0, 0);
  a.exit();
  const auto res = verify_prog(a.finish());
  EXPECT_FALSE(res);
  EXPECT_NE(res.error.find("context base"), std::string::npos);
}

TEST_F(VerifierTest, PointerComparisonWithImmediateRejected) {
  Assembler a;
  a.jgt(r1, 5, "x");  // r1 is ctx pointer
  a.label("x");
  a.mov(r0, 0);
  a.exit();
  EXPECT_FALSE(verify_prog(a.finish()));
}

TEST_F(VerifierTest, BranchMergeLosesMismatchedTypes) {
  // r2 is a stack pointer on one path and a scalar on the other; using it
  // as a pointer after the merge must be rejected.
  Assembler a;
  a.ldx_w(r3, r1, kCtxOffHash);
  a.mov(r2, r10);
  a.jeq(r3, 0, "join_scalar");
  a.ja("join");
  a.label("join_scalar");
  a.mov(r2, 4);
  a.label("join");
  a.ldx_dw(r0, r2, -8);  // r2 type is the meet: unusable
  a.exit();
  const auto res = verify_prog(a.finish());
  EXPECT_FALSE(res);
}

TEST_F(VerifierTest, ErrorReportsPcAndDisassembly) {
  Assembler a;
  a.mov(r0, r5);
  a.exit();
  const auto res = verify_prog(a.finish());
  ASSERT_FALSE(res);
  EXPECT_EQ(res.error_pc, 0u);
  EXPECT_NE(res.error.find("pc 0"), std::string::npos);
  EXPECT_NE(res.error.find("mov"), std::string::npos);
}

}  // namespace
}  // namespace hermes::bpf
