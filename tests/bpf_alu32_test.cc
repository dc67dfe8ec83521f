// ALU32 instruction family: low-32-bit operation with zero-extension,
// swept against host semantics, plus verifier typing rules.
#include <gtest/gtest.h>

#include "bpf/assembler.h"
#include "bpf/vm.h"
#include "param_names.h"
#include "simcore/rng.h"

namespace hermes::bpf {
namespace {

struct Alu32Case {
  Op op;
  // gtest lists a param it cannot print as its raw bytes, and those bytes
  // become part of the CTest name. Spell out the padding after `op` as
  // zeros, so the name does not carry stack garbage that changes per build.
  uint8_t zero_pad[7] = {};
  const char* name;
  uint64_t (*eval)(uint64_t, uint64_t);
};

uint32_t lo(uint64_t v) { return static_cast<uint32_t>(v); }

// Each case's name, pinned in one table (see param_names.h).
constexpr auto kAlu32Names = hermes::testing::param_name_table<0>(
    "add32\0sub32\0mul32\0div32\0mod32\0and32\0or32\0xor32\0lsh32\0"
    "rsh32\0arsh32");

class Alu32Sweep : public ::testing::TestWithParam<Alu32Case> {};

TEST_P(Alu32Sweep, MatchesHostSemantics) {
  const Alu32Case& c = GetParam();
  Vm vm;
  sim::Rng rng(4242);
  for (int i = 0; i < 200; ++i) {
    const uint64_t x = rng.next_u64();
    uint64_t y = rng.next_u64();
    if (i % 4 == 0) y &= 0x1f;
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
    const uint64_t got = vm.run(*prog, ctx).ret;
    const uint64_t want = c.eval(x, y);
    ASSERT_EQ(got, want) << c.name << " x=" << x << " y=" << y;
    // Zero-extension property: the upper 32 bits are always clear.
    ASSERT_EQ(got >> 32, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, Alu32Sweep,
    ::testing::Values(
        Alu32Case{.op = Op::Add32Reg,
                  .name = kAlu32Names["add32"],
                  .eval = [](uint64_t x, uint64_t y) -> uint64_t {
                    return lo(x + y);
                  }},
        Alu32Case{.op = Op::Sub32Reg,
                  .name = kAlu32Names["sub32"],
                  .eval = [](uint64_t x, uint64_t y) -> uint64_t {
                    return lo(x - y);
                  }},
        Alu32Case{.op = Op::Mul32Reg,
                  .name = kAlu32Names["mul32"],
                  .eval = [](uint64_t x, uint64_t y) -> uint64_t {
                    return lo(x * y);
                  }},
        Alu32Case{.op = Op::Div32Reg,
                  .name = kAlu32Names["div32"],
                  .eval = [](uint64_t x, uint64_t y) -> uint64_t {
                    return lo(y) ? lo(x) / lo(y) : 0;
                  }},
        Alu32Case{.op = Op::Mod32Reg,
                  .name = kAlu32Names["mod32"],
                  .eval = [](uint64_t x, uint64_t y) -> uint64_t {
                    return lo(y) ? lo(x) % lo(y) : lo(x);
                  }},
        Alu32Case{.op = Op::And32Reg,
                  .name = kAlu32Names["and32"],
                  .eval = [](uint64_t x, uint64_t y) -> uint64_t {
                    return lo(x & y);
                  }},
        Alu32Case{.op = Op::Or32Reg,
                  .name = kAlu32Names["or32"],
                  .eval = [](uint64_t x, uint64_t y) -> uint64_t {
                    return lo(x | y);
                  }},
        Alu32Case{.op = Op::Xor32Reg,
                  .name = kAlu32Names["xor32"],
                  .eval = [](uint64_t x, uint64_t y) -> uint64_t {
                    return lo(x ^ y);
                  }},
        Alu32Case{.op = Op::Lsh32Reg,
                  .name = kAlu32Names["lsh32"],
                  .eval = [](uint64_t x, uint64_t y) -> uint64_t {
                    return lo(lo(x) << (y & 31));
                  }},
        Alu32Case{.op = Op::Rsh32Reg,
                  .name = kAlu32Names["rsh32"],
                  .eval = [](uint64_t x, uint64_t y) -> uint64_t {
                    return lo(x) >> (y & 31);
                  }},
        Alu32Case{.op = Op::Arsh32Reg,
                  .name = kAlu32Names["arsh32"],
                  .eval = [](uint64_t x, uint64_t y) -> uint64_t {
                    return static_cast<uint32_t>(
                        static_cast<int32_t>(lo(x)) >> (y & 31));
                  }}),
    [](const ::testing::TestParamInfo<Alu32Case>& info) {
      return info.param.name;
    });

TEST(Alu32Test, Neg32ZeroExtends) {
  Vm vm;
  Assembler a;
  a.mov(r0, 5);
  a.neg32(r0);
  a.exit();
  std::string err;
  auto prog = vm.load(a.finish(), {}, &err);
  ASSERT_NE(prog, nullptr) << err;
  ReuseportCtx ctx;
  EXPECT_EQ(vm.run(*prog, ctx).ret, 0xfffffffbull);  // not sign-extended
}

TEST(Alu32Test, ImmediateFormsWork) {
  Vm vm;
  Assembler a;
  a.ld_imm64(r0, 0xffffffff00000001ull);
  a.add32(r0, 10);       // -> 11 (upper bits dropped)
  a.mul32(r0, 3);        // -> 33
  a.xor32(r0, 0x21);     // -> 0x00
  a.or32(r0, 0x40);      // -> 0x40
  a.exit();
  std::string err;
  auto prog = vm.load(a.finish(), {}, &err);
  ASSERT_NE(prog, nullptr) << err;
  ReuseportCtx ctx;
  EXPECT_EQ(vm.run(*prog, ctx).ret, 0x40u);
}

TEST(Alu32VerifierTest, Div32ByZeroImmediateRejected) {
  Assembler a;
  a.mov(r0, 7);
  a.div32(r0, 0);
  a.exit();
  std::vector<Map*> no_maps;
  EXPECT_FALSE(verify(a.finish(), no_maps));
}

TEST(Alu32VerifierTest, PointerOperandsRejected) {
  // add32 on the frame pointer copy would truncate a pointer.
  Assembler a;
  a.mov(r2, r10);
  a.add32(r2, 4);
  a.mov(r0, 0);
  a.exit();
  std::vector<Map*> no_maps;
  const auto res = verify(a.finish(), no_maps);
  EXPECT_FALSE(res);
}

TEST(Alu32Test, ReciprocalScale32InBytecode) {
  // reciprocal_scale written with the 32-bit family: (u64)hash * n >> 32,
  // then confirm the result matches the kernel formula for sample inputs.
  Vm vm;
  for (const auto& [hash, n, want] :
       {std::tuple<uint32_t, uint32_t, uint32_t>{0u, 10u, 0u},
        std::tuple<uint32_t, uint32_t, uint32_t>{0xffffffffu, 10u, 9u},
        std::tuple<uint32_t, uint32_t, uint32_t>{0x80000000u, 8u, 4u}}) {
    Assembler a;
    a.mov32(r1, static_cast<int32_t>(hash));
    a.mov32(r2, static_cast<int32_t>(n));
    a.mov(r0, r1);
    a.mul(r0, r2);  // 64-bit product of two zero-extended 32-bit values
    a.rsh(r0, 32);
    a.exit();
    std::string err;
    auto prog = vm.load(a.finish(), {}, &err);
    ASSERT_NE(prog, nullptr) << err;
    ReuseportCtx ctx;
    EXPECT_EQ(vm.run(*prog, ctx).ret, want) << hash << " " << n;
  }
}

}  // namespace
}  // namespace hermes::bpf
