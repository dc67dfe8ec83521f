// Instruction set of the in-repo eBPF virtual machine.
//
// This mirrors the semantics (not the binary encoding) of Linux eBPF as of
// the 4.19-era kernels the paper deploys on:
//   * 11 registers r0..r10; r10 is the read-only frame pointer,
//   * a 512-byte stack,
//   * forward-only control flow: the verifier rejects every backward edge,
//     as the paper's 4.19 deployment target does — hence the dispatch
//     program's branch-free popcount and select-bit tricks,
//   * two helpers with typed signatures, map_lookup_elem and
//     sk_select_reuseport (the only ones the dispatch programs call),
//   * maps bound at load time (LdMapFd pseudo-instruction, as in the real
//     BPF_LD_IMM64 + BPF_PSEUDO_MAP_FD).
//
// The Hermes dispatch program (core/dispatch_prog.cc) is written against
// this ISA and must pass bpf::Verifier before it can run — preserving the
// paper's central implementation constraint.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace hermes::bpf {

inline constexpr int kNumRegs = 11;   // r0..r10
inline constexpr int kFramePointer = 10;
inline constexpr size_t kStackSize = 512;
inline constexpr size_t kMaxProgramLen = 4096;
inline constexpr uint64_t kMaxInsnsExecuted = 1 << 20;

using Reg = uint8_t;

enum class Op : uint8_t {
  // ALU64, dst = dst <op> src/imm
  AddReg, AddImm,
  SubReg, SubImm,
  MulReg, MulImm,
  DivReg, DivImm,   // unsigned; div-by-zero yields 0 (modern eBPF semantics)
  ModReg, ModImm,   // unsigned; mod-by-zero leaves dst (modern eBPF semantics)
  AndReg, AndImm,
  OrReg, OrImm,
  XorReg, XorImm,
  LshReg, LshImm,   // shift amounts taken mod 64
  RshReg, RshImm,   // logical
  ArshReg, ArshImm, // arithmetic
  Neg,
  MovReg, MovImm,
  // ALU32: operate on the low 32 bits, zero-extend into the register
  // (BPF_ALU class; BPF_ALU64 above).
  Add32Reg, Add32Imm,
  Sub32Reg, Sub32Imm,
  Mul32Reg, Mul32Imm,
  Div32Reg, Div32Imm,
  Mod32Reg, Mod32Imm,
  And32Reg, And32Imm,
  Or32Reg, Or32Imm,
  Xor32Reg, Xor32Imm,
  Lsh32Reg, Lsh32Imm,  // shift amounts taken mod 32
  Rsh32Reg, Rsh32Imm,
  Arsh32Reg, Arsh32Imm,
  Neg32,
  Mov32Reg, Mov32Imm,  // 32-bit move: zero-extends into the 64-bit register

  // Wide immediate: dst = (uint64)imm64 (split across imm/next like real
  // eBPF's BPF_LD_IMM64; we carry it in one Insn for simplicity).
  LdImm64,
  // dst = handle of map `imm` in the program's bound-map table.
  LdMapFd,

  // Memory. Address = src + off for loads, dst + off for stores.
  LdxB, LdxH, LdxW, LdxDW,   // dst = *(u8/u16/u32/u64*)(src + off), zero-ext
  StxB, StxH, StxW, StxDW,   // *(size*)(dst + off) = src
  StB, StH, StW, StDW,       // *(size*)(dst + off) = imm

  // Jumps. Target = pc + 1 + off (off >= 0 enforced by verifier).
  Ja,
  JeqReg, JeqImm,
  JneReg, JneImm,
  JgtReg, JgtImm,    // unsigned >
  JgeReg, JgeImm,    // unsigned >=
  JltReg, JltImm,    // unsigned <
  JleReg, JleImm,    // unsigned <=
  JsgtReg, JsgtImm,  // signed >
  JsgeReg, JsgeImm,
  JsltReg, JsltImm,
  JsleReg, JsleImm,
  JsetReg, JsetImm,  // jump if (dst & src) != 0

  Call,  // helper call: imm = HelperId; args r1..r5, result r0
  Exit,  // return r0
};

struct Insn {
  Op op{};
  Reg dst = 0;
  Reg src = 0;
  int32_t off = 0;     // jump offset or memory displacement
  int64_t imm = 0;     // immediate (int64 so LdImm64 fits in one Insn)
};

using Program = std::vector<Insn>;

// Helper function identifiers: the two the dispatch programs call. Any
// other id is rejected by the verifier and traps in bpf::ref_run.
enum class HelperId : int32_t {
  MapLookupElem = 1,      // r1=map, r2=key ptr -> r0 = value ptr or NULL
  SkSelectReuseport = 3,  // r1=ctx, r2=sockarray, r3=key ptr, r4=flags -> r0
};

// Context passed to reuseport programs; modeled on struct sk_reuseport_md.
// Programs read it with LdxW at these fixed offsets.
struct ReuseportCtx {
  uint32_t len = 0;           // packet length
  uint32_t eth_protocol = 0;
  uint32_t ip_protocol = 0;
  uint32_t bind_inany = 0;
  uint32_t hash = 0;   // 4-tuple hash, precomputed by the "kernel"
  uint32_t hash2 = 0;  // (daddr, dport) hash for locality-aware grouping
  // Set by bpf_sk_select_reuseport on success; consumed by the runtime.
  uint64_t selected_socket = ~0ull;
  bool selection_made = false;
};

inline constexpr int32_t kCtxOffLen = 0;
inline constexpr int32_t kCtxOffEthProtocol = 4;
inline constexpr int32_t kCtxOffIpProtocol = 8;
inline constexpr int32_t kCtxOffBindInany = 12;
inline constexpr int32_t kCtxOffHash = 16;
inline constexpr int32_t kCtxOffHash2 = 20;  // locality hash (DIP, Dport)
inline constexpr uint32_t kCtxReadableBytes = 24;  // fields programs may read

// Program return codes for reuseport programs (mirrors SK_PASS/SK_DROP use).
inline constexpr uint64_t kRetUseSelection = 0;  // use socket picked via helper
inline constexpr uint64_t kRetFallback = 1;      // no decision: default hashing

std::string to_string(Op op);
std::string disassemble(const Insn& insn);
std::string disassemble(const Program& prog);

}  // namespace hermes::bpf
