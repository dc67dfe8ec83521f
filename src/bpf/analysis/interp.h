// CFG-based abstract interpreter for the in-repo eBPF dialect.
//
// This is the analysis engine the verifier (bpf/verifier.cc) runs on: each
// register carries a type (Kind) plus a ValueRange (tnum + signed/unsigned
// intervals), refined at conditional branches; the 512-byte stack is
// tracked as 4-byte cells with kernel-style spill/fill of full register
// states; states merge (with widening) at join points.
//
// Control flow follows post-5.3 kernel semantics: backward edges are
// accepted iff the abstract state proves the loop exits within a
// configurable trip bound. Loops are required to be properly nested
// regions entered only through their header; each region is re-analyzed
// per abstract iteration — the header state of iteration k+1 is the
// back-edge state of iteration k (no cross-iteration merge), and the loop
// is accepted when the back edge becomes infeasible. Because every
// concrete instruction executed inside a loop corresponds to at least one
// abstract step, `max_analysis_steps` (default 2^18) also bounds the
// concrete instruction count of accepted programs below the VM's 2^20
// execution budget.
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

struct AnalysisOptions {
  // Iterations within which a backward edge must become infeasible.
  uint32_t max_trip_count = 128;
  // Global abstract-step budget; also bounds accepted programs' concrete
  // loop execution (must stay below bpf::kMaxInsnsExecuted).
  uint64_t max_analysis_steps = uint64_t{1} << 18;
  // Merges into one pc before the join is widened.
  uint32_t widen_after = 32;
};

struct HelperCallInfo {
  size_t pc = 0;
  HelperId id{};
  int32_t map_slot = -1;  // the map/sockarray argument, if any
  // True when the key buffer's contents were tracked precisely at every
  // visit of this call site; `key` is the join of the key ranges.
  bool key_known = false;
  ValueRange key;
};

// Per-pc fact about a load/store: which region kind the base pointer had,
// and whether every visit of this pc passed the abstract bounds check with
// a consistent base kind. In an accepted program every *visited* access is
// bounds-proven by construction (a failing check rejects the program), so
// `proven` is the license the execution plan (bpf/plan.h) uses to elide the
// runtime check at that pc. Range-dead accesses are never visited and get
// no entry — the plan compiler keeps the checked micro-op there.
struct MemAccessInfo {
  size_t pc = 0;
  Kind base_kind = Kind::Uninit;
  bool proven = false;
};

struct AnalysisResult {
  bool ok = false;
  std::string error;
  size_t error_pc = 0;
  std::string error_state;  // abstract registers at the failing pc

  size_t dead_insns = 0;   // structurally reachable but range-pruned
  size_t dead_edges = 0;   // branch edges proven infeasible
  uint64_t analysis_steps = 0;
  uint32_t max_loop_trips = 0;  // deepest iteration count any proof needed

  bool ret_reachable = false;
  ValueRange ret;  // join of r0 over all reachable exits
  std::vector<HelperCallInfo> helper_calls;  // one entry per visited Call pc
  std::vector<MemAccessInfo> mem_accesses;   // one entry per visited ld/st pc

  explicit operator bool() const { return ok; }
};

AnalysisResult analyze(const Program& prog, std::span<Map* const> maps,
                       const AnalysisOptions& opts = {});

}  // namespace hermes::bpf::analysis
