// The eBPF execution engine: an ExecutionPlan is a pre-decoded,
// direct-threaded form of a verified program, compiled once per verified
// image (bpf/vm.h) and bound to each map set that runs it.
//
// compile_plan turns the program into a flat micro-op array: forward
// jump offsets resolved to absolute indices, LdMapFd slots and helper
// calls with a pinned map recorded as map sites, helper calls specialized
// per helper id, and the popcount / rank-select idioms that
// core/dispatch_prog.cc emits fused into superinstructions (19-insn
// Hamming weight -> 1 micro-op, 3-insn clear-lowest-bit -> 1, 4-insn
// isolate-lowest-bit -> 1). Dispatch uses computed goto. Runtime bounds
// checks are elided at accesses the abstract interpreter (bpf/analysis/)
// proved in-bounds for every execution — which, for a verified program,
// is every access it visited; accesses the analysis range-pruned as dead
// keep the checked micro-op. A verified program has no backward edge, so
// a run executes each micro-op at most once: no jump checks a budget.
//
// Semantics match the trapping reference interpreter (bpf::ref_run,
// bpf/ref_interpreter.h) by construction and by test: a fused micro-op
// writes the exact final register values of the sequence it replaces
// (including clobbered scratch registers) and charges the sequence's full
// instruction count, so ExecResult::insns_executed — the Table 5 overhead
// metric — is the source-instruction count. tests/torture_bpf_diff_test
// compares the plan with ref_run over >= 10k fuzzed programs and demands
// byte-identical results.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bpf/insn.h"
#include "bpf/maps.h"

namespace hermes::bpf {

namespace analysis {
struct AnalysisResult;
}  // namespace analysis

// The one execution engine, named for reporting: the bpf.tierN_dispatches
// counter slot it bumps and the config line the repository benchmark
// prints. The value 2 is the slot index those readers expect.
enum class ExecTier : uint8_t {
  Elide = 2,  // the verified plan with check elision
};

const char* to_string(ExecTier t);

constexpr ExecTier default_tier() { return ExecTier::Elide; }

// A contiguous byte region a checked access may touch.
struct MemRegion {
  uint8_t* base = nullptr;
  size_t size = 0;
};

// One pre-decoded instruction. `code` is the Op value for micro-ops that
// keep 1:1 instruction semantics, or one of the extended codes below.
struct MicroOp {
  uint16_t code = 0;
  uint8_t dst = 0;
  uint8_t src = 0;
  uint8_t aux = 0;      // scratch register of a fused popcount
  int32_t off = 0;      // memory displacement
  uint32_t target = 0;  // taken-jump successor (absolute micro-op index)
  int64_t imm = 0;      // immediate, or pre-resolved pointer bits
};

inline constexpr uint16_t kOpCount = static_cast<uint16_t>(Op::Exit) + 1;

// Extended micro-op codes (contiguous after the Op range so the threaded
// dispatch table stays dense).
enum UExt : uint16_t {
  ULdMapPtr = kOpCount,  // dst = imm (map pointer resolved at bind time)
  UPopcount,             // fused emit_popcount: dst, src, aux as documented
  UBlsr,                 // fused v &= v-1 triplet: dst &= dst-1, src = old-1
  UIsolateLow,           // fused (v & -v) - 1 prologue into dst from src
  // Unchecked loads/stores (analysis-proven accesses only).
  ULdxBNC, ULdxHNC, ULdxWNC, ULdxDWNC,
  UStxBNC, UStxHNC, UStxWNC, UStxDWNC,
  UStBNC, UStHNC, UStWNC, UStDWNC,
  // Helper calls, specialized per id; the NC variants' imm carries the
  // pre-downcast map pointer of the slot the analysis pinned, set at bind.
  // The NC variants skip the key buffer bounds check (the helper
  // signature check proved that buffer in-bounds).
  UCallLookup, UCallLookupNC,
  UCallSelect, UCallSelectNC,
  kUopCodeCount,  // dispatch-table size
};

class ExecutionPlan {
 public:
  struct Stats {
    uint32_t n_insns = 0;        // source program length
    uint32_t n_uops = 0;         // micro-ops after fusion
    uint32_t fused_popcount = 0; // segments fused per rule
    uint32_t fused_blsr = 0;
    uint32_t fused_isolate = 0;
    uint32_t elided_sites = 0;   // static count of unchecked micro-ops
    uint32_t checked_sites = 0;  // memory/helper sites that kept the check
  };

  struct ExecResult {
    uint64_t ret = 0;
    uint64_t insns_executed = 0;  // source instructions, fused ones included
    uint32_t fused_hits = 0;      // fused micro-ops executed this run
    uint32_t elided_checks = 0;   // unchecked accesses executed this run
  };

  const Stats& stats() const { return stats_; }

  // A copy of this plan with every map site pointing into `maps` and the
  // checked-access regions rebuilt from its array maps. `maps` must have
  // the slot types the plan was compiled against (Vm::bind checks the
  // full verified shape before calling this).
  ExecutionPlan bind(std::span<Map* const> maps) const;

  // Run the plan. Register/stack/helper semantics mirror bpf::ref_run;
  // violations abort (the program was verified — a trip here is a repo
  // bug, where ref_run would report a trap). Only a bound plan runs.
  ExecResult execute(ReuseportCtx& ctx) const;

 private:
  friend ExecutionPlan compile_plan(const Program& prog,
                                    std::span<Map* const> maps,
                                    const analysis::AnalysisResult& facts);

  // A micro-op whose imm is a map pointer (ULdMapPtr, UCallLookupNC,
  // UCallSelectNC) and the map slot it names. compile_plan leaves imm 0
  // there; bind() fills it in.
  struct MapSite {
    uint32_t uop;
    uint32_t slot;
  };

  std::vector<MicroOp> ops_;
  std::vector<MapSite> map_sites_;
  std::vector<MemRegion> map_regions_;  // array-map stores, set by bind()
  Stats stats_;
};

// Compile a verified program into an unbound plan. `facts` (the verifier's
// AnalysisResult) licenses check elision and helper-map pre-resolution;
// `maps` supplies the slot types those decisions depend on, and no
// pointer into them is kept.
ExecutionPlan compile_plan(const Program& prog, std::span<Map* const> maps,
                           const analysis::AnalysisResult& facts);

}  // namespace hermes::bpf
