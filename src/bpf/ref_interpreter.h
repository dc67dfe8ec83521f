// Reference eBPF interpreter for differential testing.
//
// A second, independent implementation of the instruction semantics in
// insn.h, deliberately structured differently from bpf::Vm:
//
//   * it assumes NOTHING about the program — every register index, memory
//     access, jump target, helper id and instruction budget is checked
//     dynamically and reported as a *trap* instead of aborting the process
//     (Vm aborts, because for it a violation means the verifier is broken).
//     It runs unverified programs too, loops included, so it checks the
//     kMaxInsnsExecuted budget, which the forward-only verified plan does
//     not need;
//   * ALU semantics are routed through two generic evaluators (64-bit and
//     32-bit) instead of a per-opcode switch body, so an opcode-level slip
//     in one implementation does not automatically appear in the other.
//
// The differential fuzzer (tests/torture_bpf_diff_test.cc) generates random
// programs, keeps the verifier-accepted ones, and demands that Vm and this
// interpreter agree on: return value, instruction count, reuseport
// selection side effects, and final map contents — and that no accepted
// program ever traps here. Any disagreement is a bug in the verifier, the
// VM, or this file; the failing seed pinpoints it.
#pragma once

#include <span>
#include <string>

#include "bpf/insn.h"
#include "bpf/maps.h"

namespace hermes::bpf {

struct RefResult {
  bool trapped = false;     // dynamic safety violation (bad access, ...)
  std::string trap;         // human-readable reason, empty when !trapped
  size_t trap_pc = 0;       // instruction index of the trap
  uint64_t ret = 0;         // r0 at exit (valid when !trapped)
  uint64_t insns_executed = 0;
};

// Execute `prog` against `ctx` with the given bound maps. Never aborts on
// program misbehaviour: traps instead, also on a helper id other than
// map_lookup_elem and sk_select_reuseport.
RefResult ref_run(const Program& prog, std::span<Map* const> maps,
                  ReuseportCtx& ctx);

}  // namespace hermes::bpf
