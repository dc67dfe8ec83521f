// CFG-based abstract interpreter for the in-repo eBPF dialect.
//
// This is the analysis engine the verifier (bpf/verifier.cc) runs on: each
// register carries a type (Kind) plus a ValueRange (tnum + signed/unsigned
// intervals), refined at conditional branches; the 512-byte stack is
// tracked as 4-byte cells with kernel-style spill/fill of full register
// states; states merge (with widening) at join points.
//
// Control flow follows the kernel's pre-5.3 check_cfg rule: every jump
// goes forward, so a program is a DAG, one in-order pass over it is the
// complete analysis (each reachable pc is stepped once), and an accepted
// program executes at most kMaxProgramLen instructions.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bpf/analysis/value_range.h"
#include "bpf/insn.h"
#include "bpf/maps.h"

namespace hermes::bpf::analysis {

enum class Kind : uint8_t {
  Uninit,            // also the lattice top: join of mismatched kinds
  Scalar,
  PtrStack,          // fp-relative; delta + val gives the offset range
  PtrCtx,            // delta from context start
  PtrMapValue,       // non-null, delta from value start; map_slot valid
  PtrMapValueOrNull, // must be null-checked before dereference
  MapHandle,         // map_slot valid
};

bool is_pointer(Kind k);

struct RegState {
  Kind kind = Kind::Uninit;
  int64_t delta = 0;      // constant part of a pointer offset
  int32_t map_slot = -1;  // PtrMapValue*/MapHandle only
  // Scalar: the value. Pointer kinds: the variable part of the offset
  // (konst(0) until register-operand pointer arithmetic happens).
  ValueRange val = ValueRange::unknown();

  static RegState scalar(const ValueRange& v) {
    return {Kind::Scalar, 0, -1, v};
  }
  static RegState pointer(Kind k, int64_t delta, int32_t slot) {
    return {k, delta, slot, ValueRange::konst(0)};
  }

  bool operator==(const RegState&) const = default;
};

std::string to_string(const RegState& r);

// The stack is tracked as 4-byte cells (the smallest granule the Hermes
// programs address). An aligned 64-bit store of any register spills its
// full RegState across a SpillLo/SpillHi pair — this is what lets both
// pointers and *ranged scalars* round-trip through the stack.
struct Cell {
  enum class Tag : uint8_t { Data, SpillLo, SpillHi };
  Tag tag = Tag::Data;
  // Data: the 32-bit content; the VM zeroes the stack, so cells start as
  // konst(0).
  ValueRange v32 = ValueRange::konst(0);
  RegState spilled{};  // SpillLo only

  bool operator==(const Cell&) const = default;
};

inline constexpr size_t kNumCells = kStackSize / 4;

struct AbsState {
  std::array<RegState, kNumRegs> regs{};
  std::array<Cell, kNumCells> cells{};
  bool reachable = false;

  bool operator==(const AbsState&) const = default;
};

struct HelperCallInfo {
  size_t pc = 0;
  HelperId id{};
  int32_t map_slot = -1;  // slot of the map/sockarray argument
  // True when the u32 key buffer's contents were tracked precisely;
  // `key` is their range.
  bool key_known = false;
  ValueRange key;
};

struct AnalysisResult {
  bool ok = false;
  std::string error;
  size_t error_pc = 0;
  std::string error_state;  // abstract registers at the failing pc

  size_t dead_insns = 0;   // structurally reachable but range-pruned
  size_t dead_edges = 0;   // branch edges proven infeasible
  uint64_t analysis_steps = 0;  // pcs stepped: one per reachable pc

  bool ret_reachable = false;
  ValueRange ret;  // join of r0 over all reachable exits
  std::vector<HelperCallInfo> helper_calls;  // one entry per visited Call pc
  // The load/store pcs the analysis visited, ascending. In an accepted
  // program every visited access is bounds-proven by construction (a
  // failing check rejects the program), so an entry is the license the
  // execution plan (bpf/plan.h) uses to elide the runtime check at that
  // pc. Range-dead accesses are never visited and get no entry — the plan
  // compiler keeps the checked micro-op there.
  std::vector<size_t> mem_access_pcs;

  explicit operator bool() const { return ok; }
};

AnalysisResult analyze(const Program& prog, std::span<Map* const> maps);

}  // namespace hermes::bpf::analysis
