// ExecutionPlan compiler: pre-decodes a verified program into the flat
// micro-op form bpf/plan_exec.cc dispatches over. See plan.h for the engine
// model. Compilation is structural — fusion matches the exact instruction
// shapes core/dispatch_prog.cc emits (any register allocation), and every
// rewrite preserves final register state and instruction accounting.
#include "bpf/plan.h"

#include "bpf/analysis/interp.h"
#include "util/check.h"

namespace hermes::bpf {

const char* to_string(ExecTier t) {
  switch (t) {
    case ExecTier::Elide: return "elide";
  }
  return "?";
}

namespace {

constexpr uint32_t kNoUop = ~0u;
constexpr uint32_t kNoSlot = ~0u;

bool is_jump_op(Op op) {
  return op == Op::Ja ||
         (op >= Op::JeqReg && op <= Op::JsetImm);
}

// 0 when `op` has no unchecked twin.
uint16_t unchecked_code(Op op) {
  switch (op) {
    case Op::LdxB: return ULdxBNC;
    case Op::LdxH: return ULdxHNC;
    case Op::LdxW: return ULdxWNC;
    case Op::LdxDW: return ULdxDWNC;
    case Op::StxB: return UStxBNC;
    case Op::StxH: return UStxHNC;
    case Op::StxW: return UStxWNC;
    case Op::StxDW: return UStxDWNC;
    case Op::StB: return UStBNC;
    case Op::StH: return UStHNC;
    case Op::StW: return UStWNC;
    case Op::StDW: return UStDWNC;
    default: return 0;
  }
}

bool alu_r(const Insn& i, Op op, Reg dst, Reg src) {
  return i.op == op && i.dst == dst && i.src == src;
}
bool alu_i(const Insn& i, Op op, Reg dst, int64_t imm) {
  return i.op == op && i.dst == dst && i.imm == imm;
}

// The 19-instruction Hamming-weight reduction from emit_popcount
// (core/dispatch_prog.cc). Given regs d/s/c (all distinct) and s = v on
// entry, the sequence ends with d = popcount(v), s = b >> 4 where
// b = (a & 0x33..) + ((a >> 2) & 0x33..) and a = v - ((v >> 1) & 0x55..),
// and c = 0x0101010101010101 — the fused micro-op reproduces all three.
bool match_popcount(const Program& prog, size_t pc, MicroOp* out) {
  if (pc + 19 > prog.size()) return false;
  const Insn* w = prog.data() + pc;
  if (w[0].op != Op::MovReg) return false;
  const Reg d = w[0].dst, s = w[0].src, c = w[2].dst;
  if (d == s || d == c || s == c) return false;
  const bool ok =
      alu_i(w[1], Op::RshImm, d, 1) &&
      alu_i(w[2], Op::LdImm64, c, 0x5555555555555555ll) &&
      alu_r(w[3], Op::AndReg, d, c) &&
      alu_r(w[4], Op::SubReg, s, d) &&
      alu_r(w[5], Op::MovReg, d, s) &&
      alu_i(w[6], Op::RshImm, d, 2) &&
      alu_i(w[7], Op::LdImm64, c, 0x3333333333333333ll) &&
      alu_r(w[8], Op::AndReg, d, c) &&
      alu_r(w[9], Op::AndReg, s, c) &&
      alu_r(w[10], Op::AddReg, d, s) &&
      alu_r(w[11], Op::MovReg, s, d) &&
      alu_i(w[12], Op::RshImm, s, 4) &&
      alu_r(w[13], Op::AddReg, d, s) &&
      alu_i(w[14], Op::LdImm64, c, 0x0f0f0f0f0f0f0f0fll) &&
      alu_r(w[15], Op::AndReg, d, c) &&
      alu_i(w[16], Op::LdImm64, c, 0x0101010101010101ll) &&
      alu_r(w[17], Op::MulReg, d, c) &&
      alu_i(w[18], Op::RshImm, d, 56);
  if (!ok) return false;
  out->code = UPopcount;
  out->dst = d;
  out->src = s;
  out->aux = c;
  return true;
}

// ctz prologue at "rank_done": mov c,v; neg c; and c,v; sub c,1 leaves
// c = (v & -v) - 1 with v untouched.
bool match_isolate_low(const Program& prog, size_t pc, MicroOp* out) {
  if (pc + 4 > prog.size()) return false;
  const Insn* w = prog.data() + pc;
  if (w[0].op != Op::MovReg) return false;
  const Reg c = w[0].dst, v = w[0].src;
  if (c == v) return false;
  if (!(w[1].op == Op::Neg && w[1].dst == c)) return false;
  if (!alu_r(w[2], Op::AndReg, c, v)) return false;
  if (!alu_i(w[3], Op::SubImm, c, 1)) return false;
  out->code = UIsolateLow;
  out->dst = c;
  out->src = v;
  return true;
}

// Rank-select body: mov t,v; sub t,1; and v,t clears the lowest set bit
// of v and leaves t = v_old - 1.
bool match_blsr(const Program& prog, size_t pc, MicroOp* out) {
  if (pc + 3 > prog.size()) return false;
  const Insn* w = prog.data() + pc;
  if (w[0].op != Op::MovReg) return false;
  const Reg t = w[0].dst, v = w[0].src;
  if (t == v) return false;
  if (!alu_i(w[1], Op::SubImm, t, 1)) return false;
  if (!alu_r(w[2], Op::AndReg, v, t)) return false;
  out->code = UBlsr;
  out->dst = v;
  out->src = t;
  return true;
}

int64_t ptr_bits(const void* p) {
  return static_cast<int64_t>(reinterpret_cast<uintptr_t>(p));
}

}  // namespace

ExecutionPlan compile_plan(const Program& prog, std::span<Map* const> maps,
                           const analysis::AnalysisResult& facts) {
  HERMES_CHECK(!prog.empty());

  ExecutionPlan plan;
  plan.stats_.n_insns = static_cast<uint32_t>(prog.size());

  // Jump-target set: a fused segment may start at a target but must not
  // contain one, or the pc->uop mapping for the incoming edge would land
  // mid-superinstruction.
  std::vector<uint8_t> is_target(prog.size(), 0);
  for (size_t pc = 0; pc < prog.size(); ++pc) {
    // The handlers index regs[] by both fields regardless of op; the
    // verifier's structural prescan guarantees this for loaded programs.
    HERMES_CHECK_MSG(prog[pc].dst < kNumRegs && prog[pc].src < kNumRegs,
                     "bpf plan: bad register field");
    // Forward-only jumps are what lets execute() run without a budget.
    if (is_jump_op(prog[pc].op)) {
      const int64_t t = static_cast<int64_t>(pc) + 1 + prog[pc].off;
      HERMES_CHECK_MSG(prog[pc].off >= 0 &&
                           t < static_cast<int64_t>(prog.size()),
                       "bpf plan: backward or out-of-range jump");
      is_target[static_cast<size_t>(t)] = 1;
    }
  }

  // Per-pc facts from the verifier's abstract interpretation. Unvisited
  // pcs (range-dead) have no entry and keep their runtime checks.
  std::vector<uint8_t> mem_proven(prog.size(), 0);
  std::vector<int32_t> call_slot(prog.size(), -2);  // -2 = call not visited
  for (const size_t access_pc : facts.mem_access_pcs) {
    if (access_pc < prog.size()) mem_proven[access_pc] = 1;
  }
  for (const auto& h : facts.helper_calls) {
    if (h.pc < prog.size()) call_slot[h.pc] = h.map_slot;
  }

  std::vector<uint32_t> uop_of_pc(prog.size(), kNoUop);
  struct Fixup {
    size_t uop;
    size_t target_pc;
  };
  std::vector<Fixup> fixups;

  size_t pc = 0;
  while (pc < prog.size()) {
    const auto segment_clear = [&](size_t len) {
      for (size_t k = 1; k < len; ++k) {
        if (is_target[pc + k] != 0) return false;
      }
      return true;
    };

    MicroOp u{};
    size_t len = 1;
    uint32_t map_slot = kNoSlot;
    bool needs_fixup = false;
    size_t target_pc = 0;

    if (match_popcount(prog, pc, &u) && segment_clear(19)) {
      len = 19;
      ++plan.stats_.fused_popcount;
    } else if (match_isolate_low(prog, pc, &u) && segment_clear(4)) {
      len = 4;
      ++plan.stats_.fused_isolate;
    } else if (match_blsr(prog, pc, &u) && segment_clear(3)) {
      len = 3;
      ++plan.stats_.fused_blsr;
    } else {
      const Insn& in = prog[pc];
      u = MicroOp{};
      u.code = static_cast<uint16_t>(in.op);
      u.dst = in.dst;
      u.src = in.src;
      u.off = in.off;
      u.imm = in.imm;

      if (in.op == Op::LdMapFd) {
        HERMES_CHECK(static_cast<uint64_t>(in.imm) < maps.size());
        u.code = ULdMapPtr;
        u.imm = 0;
        map_slot = static_cast<uint32_t>(in.imm);
      } else if (uint16_t nc = unchecked_code(in.op); nc != 0) {
        if (mem_proven[pc] != 0) {
          u.code = nc;
          ++plan.stats_.elided_sites;
        } else {
          ++plan.stats_.checked_sites;
        }
      } else if (is_jump_op(in.op)) {
        needs_fixup = true;
        target_pc = static_cast<size_t>(static_cast<int64_t>(pc) + 1 + in.off);
      } else if (in.op == Op::Call) {
        const auto id = static_cast<HelperId>(in.imm);
        const int32_t slot = call_slot[pc];
        // A map argument the analysis pinned to one slot of the helper's
        // map type makes an unchecked site whose pointer bind() fills in.
        const auto pin = [&](MapType type, uint16_t checked,
                             uint16_t unchecked) {
          if (slot >= 0 && static_cast<size_t>(slot) < maps.size() &&
              maps[slot] != nullptr && maps[slot]->type() == type) {
            u.code = unchecked;
            map_slot = static_cast<uint32_t>(slot);
            ++plan.stats_.elided_sites;
          } else {
            u.code = checked;
            ++plan.stats_.checked_sites;
          }
        };
        switch (id) {
          case HelperId::MapLookupElem:
            pin(MapType::Array, UCallLookup, UCallLookupNC);
            break;
          case HelperId::SkSelectReuseport:
            pin(MapType::ReuseportSockArray, UCallSelect, UCallSelectNC);
            break;
          default:
            // Unknown id at a range-dead pc: keep the generic Call code,
            // whose handler aborts — it can never execute in a verified
            // program.
            break;
        }
      }
    }

    uop_of_pc[pc] = static_cast<uint32_t>(plan.ops_.size());
    if (map_slot != kNoSlot) {
      plan.map_sites_.push_back(
          {static_cast<uint32_t>(plan.ops_.size()), map_slot});
    }
    plan.ops_.push_back(u);
    if (needs_fixup) {
      fixups.push_back({plan.ops_.size() - 1, target_pc});
    }
    pc += len;
  }

  for (const Fixup& f : fixups) {
    const uint32_t t = uop_of_pc[f.target_pc];
    HERMES_CHECK_MSG(t != kNoUop, "bpf plan: jump into fused segment");
    plan.ops_[f.uop].target = t;
  }

  plan.stats_.n_uops = static_cast<uint32_t>(plan.ops_.size());

  return plan;
}

ExecutionPlan ExecutionPlan::bind(std::span<Map* const> maps) const {
  ExecutionPlan bound = *this;
  for (const MapSite& site : map_sites_) {
    HERMES_CHECK(site.slot < maps.size());
    Map* m = maps[site.slot];
    MicroOp& u = bound.ops_[site.uop];
    if (u.code == ULdMapPtr) {
      u.imm = ptr_bits(m);
    } else if (u.code == UCallSelectNC) {
      ReuseportSockArray* sa = as_sock_array(m);
      HERMES_CHECK_MSG(sa != nullptr,
                       "bpf plan: select site needs a sock array");
      u.imm = ptr_bits(sa);
    } else {
      ArrayMap* am = as_array_map(m);
      HERMES_CHECK_MSG(am != nullptr, "bpf plan: map site needs an array map");
      u.imm = ptr_bits(am);
    }
  }
  bound.map_regions_.clear();
  for (Map* m : maps) {
    if (ArrayMap* am = as_array_map(m)) {
      bound.map_regions_.push_back({am->storage_base(), am->storage_bytes()});
    }
  }
  return bound;
}

}  // namespace hermes::bpf
