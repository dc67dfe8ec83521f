// Static verifier for bpf::Program, modeling the safety rules the paper's
// dispatch logic must live under (§5.1.3 "Harness the limited
// programmability of eBPF"). Since the abstract-interpretation rework the
// verifier is a thin wrapper over bpf/analysis/ — a CFG-based engine with
// kernel-style value tracking:
//
//   * every register carries a type (scalar vs. pointer-to-stack /
//     pointer-to-context / pointer-to-map-value / map handle) plus a value
//     range: a tnum (known bits) refined by unsigned and signed intervals,
//     narrowed at conditional branches;
//   * memory accesses are bounds-checked against the 512-byte stack, the
//     readable context prefix, or the map value size — including
//     variable-offset accesses, which verify when the offset's range
//     proves them in-bounds;
//   * bounded loops are accepted (post-5.3 kernel semantics): a backward
//     edge is legal iff the abstract state proves the loop exits within a
//     configurable trip bound; loops must be properly nested regions
//     entered only through their header;
//   * branches whose edge is infeasible under the tracked ranges are
//     pruned (dead-branch detection); structurally unreachable code is
//     still rejected, as in the kernel's check_cfg;
//   * map-value pointers are null until proven otherwise by a JEQ/JNE 0
//     check (PTR_TO_MAP_VALUE_OR_NULL); spill/fill round-trips full
//     register state, for pointers and ranged scalars alike;
//   * helper calls are checked against typed signatures (buffer sizes,
//     map types, a context argument that really is the context base);
//     r1-r5 are clobbered and r0 gets the helper's documented range;
//   * r10 (frame pointer) is read-only; division by a zero immediate is
//     rejected; rejections report the offending abstract register state
//     plus a disassembly window around the failing pc.
//
// Remaining deliberate simplifications vs. the kernel (documented in
// DESIGN.md "Static analysis"): no 32-bit sub-register bounds alongside
// the 64-bit ones (ALU32 results are modeled by truncating the 64-bit
// domain), no precision back-propagation (the kernel's mark_chain_
// precision), loops are re-analyzed per abstract iteration instead of
// using widening to a fixpoint (simpler, and exact for the trip counts
// Hermes programs need), and reads of individual bytes of a spilled
// pointer degrade to an unknown scalar instead of tracking pointer bytes.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "bpf/analysis/interp.h"
#include "bpf/insn.h"
#include "bpf/maps.h"

namespace hermes::bpf {

struct VerifyResult {
  bool ok = false;
  std::string error;       // empty when ok; includes a disassembly window
  size_t error_pc = 0;     // instruction index of the failure
  size_t insn_count = 0;   // program length (for reporting)

  // Analysis facts, populated on success and failure alike.
  size_t dead_insns = 0;      // structurally reachable but range-pruned
  size_t dead_edges = 0;      // branch edges proven infeasible
  uint32_t max_loop_trips = 0;  // deepest per-loop iteration proof needed

  // The full abstract-interpretation result. On success this carries the
  // per-callsite helper facts and per-pc memory-access proofs that the
  // execution plan (bpf/plan.h) compiles against — its check elision is
  // licensed exclusively by these facts.
  analysis::AnalysisResult analysis;

  explicit operator bool() const { return ok; }
};

// `maps` is the load-time map table the program's LdMapFd slots refer to
// (may contain nullptr only if the program never references that slot).
VerifyResult verify(const Program& prog, std::span<Map* const> maps,
                    const analysis::AnalysisOptions& opts = {});

}  // namespace hermes::bpf
