// VM interpreter semantics: ALU ops, memory, jumps, helpers, maps.
#include <gtest/gtest.h>

#include <memory>

#include "bpf/assembler.h"
#include "bpf/maps.h"
#include "bpf/vm.h"
#include "param_names.h"
#include "simcore/rng.h"

namespace hermes::bpf {
namespace {

class VmTest : public ::testing::Test {
 protected:
  uint64_t run(Assembler& a, std::vector<Map*> maps = {}) {
    std::string err;
    auto prog = vm_.load(a.finish(), std::move(maps), &err);
    EXPECT_NE(prog, nullptr) << err;
    if (!prog) return ~0ull;
    ReuseportCtx ctx;
    ctx.hash = 0xdeadbeef;
    return vm_.run(*prog, ctx).ret;
  }

  Vm vm_;
};

TEST_F(VmTest, MovAndExit) {
  Assembler a;
  a.mov(r0, 42);
  a.exit();
  EXPECT_EQ(run(a), 42u);
}

TEST_F(VmTest, Arithmetic64) {
  Assembler a;
  a.mov(r1, 1000);
  a.mov(r2, 7);
  a.mov(r0, r1);
  a.mul(r0, r2);   // 7000
  a.add(r0, 11);   // 7011
  a.sub(r0, r2);   // 7004
  a.div(r0, 2);    // 3502
  a.mod(r0, 100);  // 2
  a.exit();
  EXPECT_EQ(run(a), 2u);
}

TEST_F(VmTest, UnsignedDivModSemantics) {
  Assembler a;
  a.mov(r0, -8);   // 2^64 - 8 as unsigned
  a.div(r0, 2);
  a.exit();
  EXPECT_EQ(run(a), (~0ull - 7) / 2);
}

TEST_F(VmTest, DivByZeroRegisterYieldsZero) {
  Assembler a;
  a.mov(r0, 100);
  a.mov(r1, 0);
  a.div(r0, r1);
  a.exit();
  EXPECT_EQ(run(a), 0u);  // modern eBPF: div by 0 -> 0
}

TEST_F(VmTest, ModByZeroRegisterKeepsDst) {
  Assembler a;
  a.mov(r0, 100);
  a.mov(r1, 0);
  a.mod(r0, r1);
  a.exit();
  EXPECT_EQ(run(a), 100u);  // modern eBPF: mod by 0 -> dst unchanged
}

TEST_F(VmTest, BitwiseOps) {
  Assembler a;
  a.mov(r0, 0b1100);
  a.and_(r0, 0b1010);  // 0b1000
  a.or_(r0, 0b0001);   // 0b1001
  a.xor_(r0, 0b1111);  // 0b0110
  a.exit();
  EXPECT_EQ(run(a), 0b0110u);
}

TEST_F(VmTest, Shifts) {
  Assembler a;
  a.mov(r0, 1);
  a.lsh(r0, 40);
  a.rsh(r0, 8);
  a.exit();
  EXPECT_EQ(run(a), 1ull << 32);
}

TEST_F(VmTest, ArithmeticShiftSignExtends) {
  Assembler a;
  a.mov(r0, -16);
  a.arsh(r0, 2);
  a.exit();
  EXPECT_EQ(static_cast<int64_t>(run(a)), -4);
}

TEST_F(VmTest, NegWraps) {
  Assembler a;
  a.mov(r0, 5);
  a.neg(r0);
  a.exit();
  EXPECT_EQ(run(a), static_cast<uint64_t>(-5));
}

TEST_F(VmTest, Mov32ZeroExtends) {
  Assembler a;
  a.ld_imm64(r1, 0xaaaaBBBBccccDDDDull);
  a.mov(r0, r1);
  a.mov32(r0, r0);
  a.exit();
  EXPECT_EQ(run(a), 0xccccDDDDull);
}

TEST_F(VmTest, LdImm64FullWidth) {
  Assembler a;
  a.ld_imm64(r0, 0x0102030405060708ull);
  a.exit();
  EXPECT_EQ(run(a), 0x0102030405060708ull);
}

TEST_F(VmTest, StackStoreLoadRoundTripAllSizes) {
  Assembler a;
  a.ld_imm64(r2, 0x1122334455667788ull);
  a.stx_dw(r10, -8, r2);
  a.ldx_b(r3, r10, -8);   // LE low byte
  a.ldx_h(r4, r10, -8);
  a.ldx_w(r5, r10, -8);
  a.ldx_dw(r0, r10, -8);
  // r0 == full, verify partials via arithmetic: r0 ^= expected parts
  a.xor_(r0, r2);         // 0 if full load matched
  a.mov(r1, r3);
  a.xor_(r1, 0x88);
  a.or_(r0, r1);
  a.mov(r1, r4);
  a.xor_(r1, 0x7788);
  a.or_(r0, r1);
  a.mov(r1, r5);
  a.ld_imm64(r6, 0x55667788ull);
  a.xor_(r1, r6);
  a.or_(r0, r1);
  a.exit();
  EXPECT_EQ(run(a), 0u);  // all partial loads matched little-endian slices
}

TEST_F(VmTest, StoreImmediateForms) {
  Assembler a;
  a.st_w(r10, -4, 77);
  a.ldx_w(r0, r10, -4);
  a.exit();
  EXPECT_EQ(run(a), 77u);
}

TEST_F(VmTest, StackIsZeroedEachRun) {
  Assembler a;
  a.ldx_dw(r0, r10, -64);
  a.exit();
  std::string err;
  auto prog = vm_.load(a.finish(), {}, &err);
  ASSERT_NE(prog, nullptr) << err;
  ReuseportCtx ctx;
  EXPECT_EQ(vm_.run(*prog, ctx).ret, 0u);
  EXPECT_EQ(vm_.run(*prog, ctx).ret, 0u);
}

TEST_F(VmTest, ConditionalJumpsUnsigned) {
  // r0 = (0xffffffffffffffff > 1) ? 1 : 2 using unsigned compare
  Assembler a;
  a.mov(r1, -1);
  a.jgt(r1, 1, "big");
  a.mov(r0, 2);
  a.exit();
  a.label("big");
  a.mov(r0, 1);
  a.exit();
  EXPECT_EQ(run(a), 1u);  // unsigned: ~0 > 1
}

TEST_F(VmTest, ConditionalJumpsSignedViaProgram) {
  Program p = {
      {Op::MovImm, 1, 0, 0, -1},
      {Op::JsgtImm, 1, 0, /*off=*/2, 1},  // signed -1 > 1 ? no
      {Op::MovImm, 0, 0, 0, 7},
      {Op::Exit},
      {Op::MovImm, 0, 0, 0, 8},
      {Op::Exit},
  };
  std::string err;
  auto prog = vm_.load(std::move(p), {}, &err);
  ASSERT_NE(prog, nullptr) << err;
  ReuseportCtx ctx;
  EXPECT_EQ(vm_.run(*prog, ctx).ret, 7u);
}

TEST_F(VmTest, JsetTestsBits) {
  Assembler a;
  a.mov(r1, 0b1010);
  a.jset(r1, 0b0010, "has");
  a.mov(r0, 0);
  a.exit();
  a.label("has");
  a.mov(r0, 1);
  a.exit();
  EXPECT_EQ(run(a), 1u);
}

TEST_F(VmTest, ContextHashReadable) {
  Assembler a;
  a.ldx_w(r0, r1, kCtxOffHash);
  a.exit();
  EXPECT_EQ(run(a), 0xdeadbeefu);
}

TEST_F(VmTest, ArrayMapLookupAndReadThroughPointer) {
  ArrayMap map(4, 8);
  const uint64_t v = 0x1234567890abcdefull;
  ASSERT_TRUE(map.update(2, &v));

  Assembler a;
  a.st_w(r10, -4, 2);  // key = 2
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
  EXPECT_EQ(run(a, {&map}), v);
}

TEST_F(VmTest, ArrayMapOutOfRangeKeyReturnsNull) {
  ArrayMap map(4, 8);
  Assembler a;
  a.st_w(r10, -4, 99);  // out of range
  a.ld_map_fd(r1, 0);
  a.mov(r2, r10);
  a.add(r2, -4);
  a.call(HelperId::MapLookupElem);
  a.jeq(r0, 0, "miss");
  a.ldx_dw(r0, r0, 0);
  a.exit();
  a.label("miss");
  a.mov(r0, 12345);
  a.exit();
  EXPECT_EQ(run(a, {&map}), 12345u);
}

TEST_F(VmTest, SkSelectReuseportRecordsCookie) {
  ArrayMap sel(1, 8);
  ReuseportSockArray socks(8);
  ASSERT_TRUE(socks.update(3, /*cookie=*/777));

  Assembler a;
  a.st_w(r10, -4, 3);
  a.mov(r1, r1);  // keep ctx in r1 (already there)
  a.ld_map_fd(r2, 1);
  a.mov(r3, r10);
  a.add(r3, -4);
  a.mov(r4, 0);
  a.call(HelperId::SkSelectReuseport);
  a.exit();  // r0 = helper result (0 on success)

  std::string err;
  auto prog = vm_.load(a.finish(), {&sel, &socks}, &err);
  ASSERT_NE(prog, nullptr) << err;
  ReuseportCtx ctx;
  const auto res = vm_.run(*prog, ctx);
  EXPECT_EQ(res.ret, 0u);
  EXPECT_TRUE(ctx.selection_made);
  EXPECT_EQ(ctx.selected_socket, 777u);
}

TEST_F(VmTest, SkSelectReuseportEmptySlotFails) {
  ArrayMap sel(1, 8);
  ReuseportSockArray socks(8);  // slot 3 not populated

  Assembler a;
  a.st_w(r10, -4, 3);
  a.ld_map_fd(r2, 1);
  a.mov(r3, r10);
  a.add(r3, -4);
  a.mov(r4, 0);
  a.call(HelperId::SkSelectReuseport);
  a.exit();

  std::string err;
  auto prog = vm_.load(a.finish(), {&sel, &socks}, &err);
  ASSERT_NE(prog, nullptr) << err;
  ReuseportCtx ctx;
  const auto res = vm_.run(*prog, ctx);
  EXPECT_NE(res.ret, 0u);
  EXPECT_FALSE(ctx.selection_made);
}

// Parameterized ALU sweep: random operand pairs, each op checked against
// the host CPU's semantics.
struct AluCase {
  Op op;
  // gtest lists a param it cannot print as its raw bytes, and those bytes
  // become part of the CTest name. Spell out the padding after `op` as
  // zeros, so the name does not carry stack garbage that changes per build.
  uint8_t zero_pad[7] = {};
  const char* name;
  uint64_t (*eval)(uint64_t, uint64_t);
};

// Each case's name, at the offset that gives the CTest names this sweep has
// always been listed under (see param_names.h).
constexpr auto kAluNames = hermes::testing::param_name_table<0x17>(
    "add\0sub\0mul\0div\0mod\0and\0xor\0lsh\0arsh");

class VmAluSweep : public ::testing::TestWithParam<AluCase> {};

TEST_P(VmAluSweep, MatchesHostSemantics) {
  const AluCase& c = GetParam();
  Vm vm;
  sim::Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    uint64_t x = rng.next_u64();
    uint64_t y = rng.next_u64();
    if (i % 3 == 0) y &= 0xff;  // exercise small operands too
    Program p = {
        {Op::LdImm64, 1, 0, 0, static_cast<int64_t>(x)},
        {Op::LdImm64, 2, 0, 0, static_cast<int64_t>(y)},
        {Op::MovReg, 0, 1, 0, 0},
        {c.op, 0, 2, 0, 0},
        {Op::Exit},
    };
    std::string err;
    auto prog = vm.load(std::move(p), {}, &err);
    ASSERT_NE(prog, nullptr) << err;
    ReuseportCtx ctx;
    ASSERT_EQ(vm.run(*prog, ctx).ret, c.eval(x, y))
        << c.name << " x=" << x << " y=" << y;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, VmAluSweep,
    ::testing::Values(
        AluCase{.op = Op::AddReg,
                .name = kAluNames["add"],
                .eval = [](uint64_t x, uint64_t y) { return x + y; }},
        AluCase{.op = Op::SubReg,
                .name = kAluNames["sub"],
                .eval = [](uint64_t x, uint64_t y) { return x - y; }},
        AluCase{.op = Op::MulReg,
                .name = kAluNames["mul"],
                .eval = [](uint64_t x, uint64_t y) { return x * y; }},
        AluCase{.op = Op::DivReg,
                .name = kAluNames["div"],
                .eval = [](uint64_t x, uint64_t y) { return y ? x / y : 0; }},
        AluCase{.op = Op::ModReg,
                .name = kAluNames["mod"],
                .eval = [](uint64_t x, uint64_t y) { return y ? x % y : x; }},
        AluCase{.op = Op::AndReg,
                .name = kAluNames["and"],
                .eval = [](uint64_t x, uint64_t y) { return x & y; }},
        AluCase{.op = Op::OrReg,
                .name = kAluNames["or"],
                .eval = [](uint64_t x, uint64_t y) { return x | y; }},
        AluCase{.op = Op::XorReg,
                .name = kAluNames["xor"],
                .eval = [](uint64_t x, uint64_t y) { return x ^ y; }},
        AluCase{.op = Op::LshReg,
                .name = kAluNames["lsh"],
                .eval = [](uint64_t x, uint64_t y) { return x << (y & 63); }},
        AluCase{.op = Op::RshReg,
                .name = kAluNames["rsh"],
                .eval = [](uint64_t x, uint64_t y) { return x >> (y & 63); }},
        AluCase{.op = Op::ArshReg,
                .name = kAluNames["arsh"],
                .eval = [](uint64_t x, uint64_t y) {
                  return static_cast<uint64_t>(static_cast<int64_t>(x) >>
                                               (y & 63));
                }}),
    [](const ::testing::TestParamInfo<AluCase>& case_info) {
      return case_info.param.name;
    });

}  // namespace
}  // namespace hermes::bpf
