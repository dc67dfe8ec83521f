#include "bpf/analysis/interp.h"

#include <sstream>

namespace hermes::bpf::analysis {

namespace {

constexpr uint64_t kU32Max = 0xffffffffull;

// Merges into one pc before the join is widened.
constexpr uint32_t kWidenAfter = 32;

ValueRange unknown32() { return ValueRange::bounded(0, kU32Max); }

// Range of a zero-extended `size`-byte load.
ValueRange size_bounded(int size) {
  if (size >= 8) return ValueRange::unknown();
  return ValueRange::bounded(0, (uint64_t{1} << (8 * size)) - 1);
}

Cell data_cell(const ValueRange& v32) {
  return Cell{Cell::Tag::Data, v32, RegState{}};
}

Cell unknown_cell() { return data_cell(unknown32()); }

// value = lo + (hi << 32), with both halves in [0, 2^32). The interval
// combination is exact for independent halves and a sound bound otherwise.
ValueRange combine64(const ValueRange& lo, const ValueRange& hi) {
  ValueRange r = ValueRange::unknown();
  r.tn = Tnum{(lo.tn.value & kU32Max) | (hi.tn.value << 32),
              (lo.tn.mask & kU32Max) | (hi.tn.mask << 32)};
  r.umin = lo.umin + (hi.umin << 32);
  r.umax = lo.umax + (hi.umax << 32);
  if (!r.sync()) return ValueRange::unknown();
  return r;
}

// ---- lattice operations ----

RegState join_reg(const RegState& a, const RegState& b, bool widen) {
  if (a == b) return a;
  if (a.kind != b.kind) return RegState{};  // mismatched kinds: unusable
  auto joined_val = [&] {
    return widen ? ValueRange::widen(a.val, b.val)
                 : ValueRange::join(a.val, b.val);
  };
  switch (a.kind) {
    case Kind::Scalar:
      return RegState::scalar(joined_val());
    case Kind::PtrStack:
    case Kind::PtrCtx:
    case Kind::PtrMapValue:
    case Kind::PtrMapValueOrNull:
      if (a.delta != b.delta || a.map_slot != b.map_slot) return RegState{};
      return RegState{a.kind, a.delta, a.map_slot, joined_val()};
    case Kind::MapHandle:
      return a.map_slot == b.map_slot ? a : RegState{};
    case Kind::Uninit:
      return RegState{};
  }
  return RegState{};
}

Cell join_cell(const Cell& a, const Cell& b, bool widen) {
  if (a == b) return a;
  if (a.tag != b.tag) return unknown_cell();
  switch (a.tag) {
    case Cell::Tag::Data:
      return data_cell(widen ? ValueRange::widen(a.v32, b.v32)
                             : ValueRange::join(a.v32, b.v32));
    case Cell::Tag::SpillLo: {
      RegState j = join_reg(a.spilled, b.spilled, widen);
      if (j.kind == Kind::Uninit) return unknown_cell();
      return Cell{Cell::Tag::SpillLo, ValueRange::konst(0), j};
    }
    case Cell::Tag::SpillHi:
      return a;
  }
  return unknown_cell();
}

// Cell-wise joins can break SpillLo/SpillHi pairing (one half degrades to
// Data); restore the invariant by degrading orphaned halves.
void normalize_spill_pairs(std::array<Cell, kNumCells>& cells) {
  for (size_t i = 0; i < kNumCells; ++i) {
    if (cells[i].tag == Cell::Tag::SpillLo &&
        (i + 1 >= kNumCells || cells[i + 1].tag != Cell::Tag::SpillHi)) {
      cells[i] = unknown_cell();
    }
    if (cells[i].tag == Cell::Tag::SpillHi &&
        (i == 0 || cells[i - 1].tag != Cell::Tag::SpillLo)) {
      cells[i] = unknown_cell();
    }
  }
}

void merge_into(AbsState& dst, const AbsState& src, bool widen) {
  if (!src.reachable) return;
  if (!dst.reachable) {
    dst = src;
    return;
  }
  for (size_t i = 0; i < dst.regs.size(); ++i) {
    dst.regs[i] = join_reg(dst.regs[i], src.regs[i], widen);
  }
  for (size_t i = 0; i < kNumCells; ++i) {
    dst.cells[i] = join_cell(dst.cells[i], src.cells[i], widen);
  }
  normalize_spill_pairs(dst.cells);
}

// ---- helper signatures ----

// Argument kinds in r1..r4. Each helper takes one map of `map_type` and
// one PtrStack argument: a 4-byte u32 key buffer.
struct HelperSig {
  HelperId id;
  int num_args;
  Kind arg[4];
  MapType map_type;
};

const HelperSig* find_sig(int64_t imm) {
  static const HelperSig kSigs[] = {
      {HelperId::MapLookupElem, 2, {Kind::MapHandle, Kind::PtrStack},
       MapType::Array},
      {HelperId::SkSelectReuseport, 4,
       {Kind::PtrCtx, Kind::MapHandle, Kind::PtrStack, Kind::Scalar},
       MapType::ReuseportSockArray},
  };
  for (const auto& s : kSigs) {
    if (static_cast<int64_t>(s.id) == imm) return &s;
  }
  return nullptr;
}

int access_size(Op op) {
  switch (op) {
    case Op::LdxB: case Op::StxB: case Op::StB: return 1;
    case Op::LdxH: case Op::StxH: case Op::StH: return 2;
    case Op::LdxW: case Op::StxW: case Op::StW: return 4;
    case Op::LdxDW: case Op::StxDW: case Op::StDW: return 8;
    default: return 0;
  }
}

bool is_cond_jump(Op op) {
  return op >= Op::JeqReg && op <= Op::JsetImm;
}

// ---- the analyzer ----

class Analyzer {
 public:
  Analyzer(const Program& prog, std::span<Map* const> maps)
      : prog_(prog), maps_(maps) {}

  AnalysisResult run() {
    AnalysisResult res;
    if (prog_.empty()) return fail(res, 0, "empty program");
    if (prog_.size() > kMaxProgramLen) {
      return fail(res, 0, "program too long");
    }
    if (auto e = structural_checks(); !e.empty()) {
      return fail(res, err_pc_, e);
    }

    states_.assign(prog_.size(), AbsState{});
    merge_counts_.assign(prog_.size(), 0);
    AbsState entry;
    entry.reachable = true;
    entry.regs[1] = RegState::pointer(Kind::PtrCtx, 0, -1);
    entry.regs[kFramePointer] = RegState::pointer(Kind::PtrStack, 0, -1);
    states_[0] = entry;

    if (auto e = scan(); !e.empty()) return fail(res, err_pc_, e);

    res.ok = true;
    res.analysis_steps = steps_;
    res.dead_edges = dead_edges_;
    res.dead_insns = prog_.size() - steps_;  // each reachable pc: 1 step
    res.ret_reachable = ret_reachable_;
    res.ret = ret_;
    res.helper_calls = std::move(helper_calls_);
    res.mem_access_pcs = std::move(mem_access_pcs_);
    return res;
  }

 private:
  AnalysisResult fail(AnalysisResult& res, size_t pc, const std::string& msg) {
    res.ok = false;
    res.error = msg;
    res.error_pc = pc;
    res.analysis_steps = steps_;
    if (pc < states_.size() && states_[pc].reachable) {
      res.error_state = dump_regs(states_[pc]);
    }
    return res;
  }

  static std::string dump_regs(const AbsState& st) {
    std::ostringstream os;
    for (int i = 0; i < kNumRegs; ++i) {
      if (st.regs[i].kind == Kind::Uninit) continue;
      os << "r" << i << " = " << to_string(st.regs[i]) << "\n";
    }
    return os.str();
  }

  std::string structural_checks() {
    // Register fields must name real registers: the VM indexes regs[] by
    // both fields unconditionally.
    for (size_t pc = 0; pc < prog_.size(); ++pc) {
      if (prog_[pc].dst >= kNumRegs || prog_[pc].src >= kNumRegs) {
        err_pc_ = pc;
        return "bad register field";
      }
    }
    // Every jump goes forward (the kernel's pre-5.3 check_cfg rule: no
    // loops), and every successor lands inside the program.
    for (size_t pc = 0; pc < prog_.size(); ++pc) {
      const Insn& in = prog_[pc];
      if (in.op == Op::Exit) continue;
      if (in.op == Op::Ja || is_cond_jump(in.op)) {
        if (in.off < 0) {
          err_pc_ = pc;
          return "backward edge (loops are not allowed)";
        }
        if (pc + 1 + static_cast<size_t>(in.off) >= prog_.size()) {
          err_pc_ = pc;
          return "jump out of bounds";
        }
      }
      if (in.op != Op::Ja && pc + 1 >= prog_.size()) {
        err_pc_ = pc;
        return "fall-through off program end";
      }
    }
    // Structural reachability (kernel check_cfg): dead code is rejected
    // outright; range-pruned branches are handled later by the abstract
    // pass and are legal. Edges go forward, so a pc's predecessors all
    // come before it.
    std::vector<char> seen(prog_.size(), 0);
    seen[0] = 1;
    for (size_t pc = 0; pc < prog_.size(); ++pc) {
      if (!seen[pc]) {
        err_pc_ = pc;
        return "unreachable instruction";
      }
      const Insn& in = prog_[pc];
      if (in.op == Op::Exit) continue;
      if (in.op != Op::Ja) seen[pc + 1] = 1;
      if (in.op == Op::Ja || is_cond_jump(in.op)) {
        seen[pc + 1 + static_cast<size_t>(in.off)] = 1;
      }
    }
    return {};
  }

  // Every edge goes forward, so one in-order pass sees each pc after all
  // of its predecessors: it is the complete fixpoint, and each reachable
  // pc is stepped exactly once.
  std::string scan() {
    for (size_t pc = 0; pc < prog_.size(); ++pc) {
      if (!states_[pc].reachable) continue;
      ++steps_;
      if (auto e = step(pc); !e.empty()) {
        err_pc_ = pc;
        return e;
      }
    }
    return {};
  }

  void propagate(size_t target, const AbsState& st) {
    const bool widen = ++merge_counts_[target] > kWidenAfter;
    merge_into(states_[target], st, widen);
  }

  // ---- memory helpers ----

  // Validate an access through `base` and return the fp-frame byte span
  // [*abs_lo, *abs_last + size) for stack pointers (0 = frame base,
  // kStackSize = r10). Uses 128-bit arithmetic so unbounded variable
  // offsets simply fail the bounds test instead of wrapping.
  std::string check_mem(const RegState& base, int32_t off, int size,
                        bool is_write, int64_t* abs_lo = nullptr,
                        int64_t* abs_last = nullptr) {
    const auto fixed = static_cast<__int128>(base.delta) + off;
    const __int128 lo = fixed + base.val.umin;
    const __int128 hi = fixed + base.val.umax;  // start of last access
    auto detail = [&]() -> std::string {
      if (base.val.is_const()) return "";
      std::ostringstream os;
      os << " (variable offset " << to_string(base.val) << ")";
      return os.str();
    };
    switch (base.kind) {
      case Kind::PtrStack: {
        if (lo < -static_cast<int64_t>(kStackSize) || hi + size > 0) {
          return "stack access out of bounds" + detail();
        }
        if (abs_lo != nullptr) {
          *abs_lo = static_cast<int64_t>(kStackSize) +
                    static_cast<int64_t>(lo);
          *abs_last = static_cast<int64_t>(kStackSize) +
                      static_cast<int64_t>(hi);
        }
        return {};
      }
      case Kind::PtrCtx:
        if (is_write) return "context is read-only";
        if (lo < 0 || hi + size > static_cast<int64_t>(kCtxReadableBytes)) {
          return "context access out of bounds" + detail();
        }
        return {};
      case Kind::PtrMapValue: {
        const Map* m = maps_[static_cast<size_t>(base.map_slot)];
        if (lo < 0 || hi + size > static_cast<int64_t>(m->value_size())) {
          return "map value access out of bounds" + detail();
        }
        return {};
      }
      case Kind::PtrMapValueOrNull:
        return "dereference of possibly-null map value (missing null "
               "check)";
      default:
        return "memory access via non-pointer";
    }
  }

  // Degrade cell `i` to unknown data; if it was half of a spill pair the
  // partner half degrades too (partial overwrite invalidates the spill).
  static void degrade_cell(AbsState& st, size_t i) {
    if (i >= kNumCells) return;
    const Cell::Tag tag = st.cells[i].tag;
    if (tag == Cell::Tag::SpillLo && i + 1 < kNumCells &&
        st.cells[i + 1].tag == Cell::Tag::SpillHi) {
      st.cells[i + 1] = unknown_cell();
    }
    if (tag == Cell::Tag::SpillHi && i > 0 &&
        st.cells[i - 1].tag == Cell::Tag::SpillLo) {
      st.cells[i - 1] = unknown_cell();
    }
    st.cells[i] = unknown_cell();
  }

  static void clobber_cells(AbsState& st, int64_t abs_lo, int64_t abs_last,
                            int size) {
    const int64_t first = abs_lo / 4;
    const int64_t last = (abs_last + size - 1) / 4;
    for (int64_t i = first; i <= last; ++i) {
      degrade_cell(st, static_cast<size_t>(i));
    }
  }

  static RegState load_stack(const AbsState& st, int64_t abs, int size) {
    const auto i = static_cast<size_t>(abs / 4);
    if (size == 8 && abs % 8 == 0) {
      const Cell& lo = st.cells[i];
      const Cell& hi = st.cells[i + 1];
      if (lo.tag == Cell::Tag::SpillLo && hi.tag == Cell::Tag::SpillHi) {
        return lo.spilled;  // fill restores the spilled register exactly
      }
      if (lo.tag == Cell::Tag::Data && hi.tag == Cell::Tag::Data) {
        return RegState::scalar(combine64(lo.v32, hi.v32));
      }
      return RegState::scalar(ValueRange::unknown());
    }
    if (size <= 4 && abs / 4 == (abs + size - 1) / 4) {
      const Cell& c = st.cells[i];
      if (c.tag == Cell::Tag::Data) {
        if (size == 4) return RegState::scalar(c.v32);
        const auto sh = static_cast<uint64_t>(8 * (abs % 4));
        ValueRange v =
            ValueRange::alu(Op::RshImm, c.v32, ValueRange::konst(sh));
        v = ValueRange::alu(Op::AndImm, v,
                            ValueRange::konst((uint64_t{1} << (8 * size)) -
                                              1));
        return RegState::scalar(v);
      }
    }
    // Misaligned, straddling, or over spill halves: the bytes are real but
    // untracked (see DESIGN.md on spilled-pointer bytes).
    return RegState::scalar(size_bounded(size));
  }

  static void store_stack_scalar(AbsState& st, int64_t abs, int size,
                                 const ValueRange& v) {
    const auto i = static_cast<size_t>(abs / 4);
    if (size == 8 && abs % 8 == 0) {
      degrade_cell(st, i);
      degrade_cell(st, i + 1);
      st.cells[i] =
          Cell{Cell::Tag::SpillLo, ValueRange::konst(0), RegState::scalar(v)};
      st.cells[i + 1] = Cell{Cell::Tag::SpillHi, ValueRange::konst(0), {}};
      return;
    }
    if (size == 8 && abs % 4 == 0) {
      degrade_cell(st, i);
      degrade_cell(st, i + 1);
      st.cells[i] = data_cell(v.cast32());
      st.cells[i + 1] = data_cell(
          ValueRange::alu(Op::RshImm, v, ValueRange::konst(32)).cast32());
      return;
    }
    if (size == 4 && abs % 4 == 0) {
      degrade_cell(st, i);
      st.cells[i] = data_cell(v.cast32());
      return;
    }
    clobber_cells(st, abs, abs, size);  // sub-word or misaligned
  }

  // ---- the transfer function ----

  std::string step(size_t pc) {
    const Insn& in = prog_[pc];
    AbsState out = states_[pc];
    auto& regs = out.regs;

    auto initialized = [&](Reg r) { return regs[r].kind != Kind::Uninit; };
    auto require_init = [&](Reg r) -> std::string {
      if (!initialized(r)) {
        return "read of uninitialized r" + std::to_string(r);
      }
      return {};
    };
    auto writable = [&](Reg r) -> std::string {
      if (r == kFramePointer) return "write to frame pointer r10";
      return {};
    };
    auto fallthrough = [&]() -> std::string {
      propagate(pc + 1, out);
      return {};
    };
    const auto imm_u = static_cast<uint64_t>(in.imm);
    const size_t jump_target = pc + 1 + static_cast<size_t>(in.off);

    switch (in.op) {
      // ---- ALU reg ----
      case Op::AddReg: case Op::SubReg: {
        if (auto e = writable(in.dst); !e.empty()) return e;
        if (auto e = require_init(in.src); !e.empty()) return e;
        if (auto e = require_init(in.dst); !e.empty()) return e;
        RegState& d = regs[in.dst];
        const RegState& s = regs[in.src];
        if (d.kind == Kind::PtrMapValueOrNull ||
            d.kind == Kind::MapHandle) {
          return "arithmetic on possibly-null pointer or map handle";
        }
        if (is_pointer(d.kind) && s.kind == Kind::Scalar) {
          // Variable-offset pointer arithmetic: fold the scalar range
          // into the pointer's offset range; accesses check it later.
          d.val = ValueRange::alu(in.op, d.val, s.val);
          return fallthrough();
        }
        if (is_pointer(s.kind) || s.kind == Kind::MapHandle ||
            is_pointer(d.kind)) {
          return "pointer arithmetic with register operand not allowed";
        }
        d = RegState::scalar(ValueRange::alu(in.op, d.val, s.val));
        return fallthrough();
      }
      case Op::MulReg: case Op::DivReg: case Op::ModReg: case Op::AndReg:
      case Op::OrReg: case Op::XorReg: case Op::LshReg: case Op::RshReg:
      case Op::ArshReg:
      case Op::Add32Reg: case Op::Sub32Reg: case Op::Mul32Reg:
      case Op::Div32Reg: case Op::Mod32Reg: case Op::And32Reg:
      case Op::Or32Reg: case Op::Xor32Reg: case Op::Lsh32Reg:
      case Op::Rsh32Reg: case Op::Arsh32Reg: {
        if (auto e = writable(in.dst); !e.empty()) return e;
        if (auto e = require_init(in.src); !e.empty()) return e;
        if (auto e = require_init(in.dst); !e.empty()) return e;
        if (regs[in.dst].kind != Kind::Scalar ||
            regs[in.src].kind != Kind::Scalar) {
          return "pointer arithmetic with register operand not allowed";
        }
        regs[in.dst] = RegState::scalar(
            ValueRange::alu(in.op, regs[in.dst].val, regs[in.src].val));
        return fallthrough();
      }
      case Op::Mov32Reg: {
        if (auto e = writable(in.dst); !e.empty()) return e;
        if (auto e = require_init(in.src); !e.empty()) return e;
        if (regs[in.src].kind != Kind::Scalar) {
          return "32-bit move truncates a pointer";
        }
        regs[in.dst] = RegState::scalar(regs[in.src].val.cast32());
        return fallthrough();
      }
      // ---- ALU imm ----
      case Op::AddImm: case Op::SubImm: {
        if (auto e = writable(in.dst); !e.empty()) return e;
        if (auto e = require_init(in.dst); !e.empty()) return e;
        RegState& d = regs[in.dst];
        if (d.kind == Kind::PtrStack || d.kind == Kind::PtrMapValue ||
            d.kind == Kind::PtrCtx) {
          d.delta += (in.op == Op::AddImm) ? in.imm : -in.imm;
        } else if (d.kind == Kind::PtrMapValueOrNull ||
                   d.kind == Kind::MapHandle) {
          return "arithmetic on possibly-null pointer or map handle";
        } else {
          d = RegState::scalar(
              ValueRange::alu(in.op, d.val, ValueRange::konst(imm_u)));
        }
        return fallthrough();
      }
      case Op::MulImm: case Op::AndImm: case Op::OrImm: case Op::XorImm:
      case Op::LshImm: case Op::RshImm: case Op::ArshImm:
      case Op::Add32Imm: case Op::Sub32Imm: case Op::Mul32Imm:
      case Op::And32Imm: case Op::Or32Imm: case Op::Xor32Imm:
      case Op::Lsh32Imm: case Op::Rsh32Imm: case Op::Arsh32Imm: {
        if (auto e = writable(in.dst); !e.empty()) return e;
        if (auto e = require_init(in.dst); !e.empty()) return e;
        if (regs[in.dst].kind != Kind::Scalar) {
          return "ALU on pointer/map handle not allowed";
        }
        regs[in.dst] = RegState::scalar(
            ValueRange::alu(in.op, regs[in.dst].val,
                            ValueRange::konst(imm_u)));
        return fallthrough();
      }
      case Op::Mov32Imm: {
        if (auto e = writable(in.dst); !e.empty()) return e;
        regs[in.dst] = RegState::scalar(
            ValueRange::konst(static_cast<uint32_t>(in.imm)));
        return fallthrough();
      }
      case Op::DivImm: case Op::ModImm:
      case Op::Div32Imm: case Op::Mod32Imm: {
        if (auto e = writable(in.dst); !e.empty()) return e;
        if (auto e = require_init(in.dst); !e.empty()) return e;
        if (in.imm == 0) return "division by zero immediate";
        if (regs[in.dst].kind != Kind::Scalar) return "ALU on pointer";
        regs[in.dst] = RegState::scalar(
            ValueRange::alu(in.op, regs[in.dst].val,
                            ValueRange::konst(imm_u)));
        return fallthrough();
      }
      case Op::Neg: case Op::Neg32: {
        if (auto e = writable(in.dst); !e.empty()) return e;
        if (auto e = require_init(in.dst); !e.empty()) return e;
        if (regs[in.dst].kind != Kind::Scalar) return "ALU on pointer";
        regs[in.dst] = RegState::scalar(
            ValueRange::alu(in.op, regs[in.dst].val, ValueRange::konst(0)));
        return fallthrough();
      }
      case Op::MovReg: {
        if (auto e = writable(in.dst); !e.empty()) return e;
        if (auto e = require_init(in.src); !e.empty()) return e;
        regs[in.dst] = regs[in.src];
        return fallthrough();
      }
      case Op::MovImm: case Op::LdImm64: {
        if (auto e = writable(in.dst); !e.empty()) return e;
        regs[in.dst] = RegState::scalar(ValueRange::konst(imm_u));
        return fallthrough();
      }
      case Op::LdMapFd: {
        if (auto e = writable(in.dst); !e.empty()) return e;
        if (in.imm < 0 || static_cast<size_t>(in.imm) >= maps_.size() ||
            maps_[static_cast<size_t>(in.imm)] == nullptr) {
          return "LdMapFd references unknown map slot";
        }
        regs[in.dst] = RegState{Kind::MapHandle, 0,
                                static_cast<int32_t>(in.imm),
                                ValueRange::konst(0)};
        return fallthrough();
      }

      // ---- loads ----
      case Op::LdxB: case Op::LdxH: case Op::LdxW: case Op::LdxDW: {
        if (auto e = writable(in.dst); !e.empty()) return e;
        if (auto e = require_init(in.src); !e.empty()) return e;
        const int size = access_size(in.op);
        int64_t abs_lo = 0;
        int64_t abs_last = 0;
        if (auto e = check_mem(regs[in.src], in.off, size,
                               /*is_write=*/false, &abs_lo, &abs_last);
            !e.empty()) {
          return e;
        }
        mem_access_pcs_.push_back(pc);
        RegState loaded = RegState::scalar(size_bounded(size));
        if (regs[in.src].kind == Kind::PtrStack && abs_lo == abs_last) {
          loaded = load_stack(out, abs_lo, size);
        }
        regs[in.dst] = loaded;
        return fallthrough();
      }

      // ---- stores ----
      case Op::StxB: case Op::StxH: case Op::StxW: case Op::StxDW: {
        if (auto e = require_init(in.dst); !e.empty()) return e;
        if (auto e = require_init(in.src); !e.empty()) return e;
        const int size = access_size(in.op);
        const bool to_stack = regs[in.dst].kind == Kind::PtrStack;
        const bool const_off = regs[in.dst].val.is_const();
        if (regs[in.src].kind != Kind::Scalar) {
          // Spill rule: non-scalars only via an aligned 64-bit store to a
          // constant stack offset.
          const int64_t lo = regs[in.dst].delta + in.off +
                             static_cast<int64_t>(regs[in.dst].val.umin);
          if (!(in.op == Op::StxDW && to_stack && const_off &&
                lo % 8 == 0)) {
            return "pointer may only be spilled with an aligned 64-bit "
                   "stack store";
          }
        }
        int64_t abs_lo = 0;
        int64_t abs_last = 0;
        if (auto e = check_mem(regs[in.dst], in.off, size,
                               /*is_write=*/true, &abs_lo, &abs_last);
            !e.empty()) {
          return e;
        }
        mem_access_pcs_.push_back(pc);
        if (to_stack) {
          if (abs_lo != abs_last) {
            // Variable-offset store: weak update over the whole span.
            clobber_cells(out, abs_lo, abs_last, size);
          } else if (regs[in.src].kind != Kind::Scalar) {
            const auto i = static_cast<size_t>(abs_lo / 4);
            degrade_cell(out, i);
            degrade_cell(out, i + 1);
            out.cells[i] = Cell{Cell::Tag::SpillLo, ValueRange::konst(0),
                                regs[in.src]};
            out.cells[i + 1] =
                Cell{Cell::Tag::SpillHi, ValueRange::konst(0), {}};
          } else {
            store_stack_scalar(out, abs_lo, size, regs[in.src].val);
          }
        }
        return fallthrough();
      }
      case Op::StB: case Op::StH: case Op::StW: case Op::StDW: {
        if (auto e = require_init(in.dst); !e.empty()) return e;
        const int size = access_size(in.op);
        int64_t abs_lo = 0;
        int64_t abs_last = 0;
        if (auto e = check_mem(regs[in.dst], in.off, size,
                               /*is_write=*/true, &abs_lo, &abs_last);
            !e.empty()) {
          return e;
        }
        mem_access_pcs_.push_back(pc);
        if (regs[in.dst].kind == Kind::PtrStack) {
          if (abs_lo != abs_last) {
            clobber_cells(out, abs_lo, abs_last, size);
          } else {
            store_stack_scalar(out, abs_lo, size, ValueRange::konst(imm_u));
          }
        }
        return fallthrough();
      }

      // ---- control flow ----
      case Op::Ja:
        propagate(jump_target, out);
        return {};

      case Op::JeqImm: case Op::JneImm: {
        if (auto e = require_init(in.dst); !e.empty()) return e;
        const RegState& d = regs[in.dst];
        if (d.kind == Kind::PtrMapValueOrNull && in.imm == 0) {
          // Null-check refinement, as in the kernel verifier.
          AbsState taken = out;
          AbsState fall = out;
          const bool eq_means_null = (in.op == Op::JeqImm);
          const RegState nonnull{Kind::PtrMapValue, d.delta, d.map_slot,
                                 d.val};
          const RegState null_scalar = RegState::scalar(ValueRange::konst(0));
          taken.regs[in.dst] = eq_means_null ? null_scalar : nonnull;
          fall.regs[in.dst] = eq_means_null ? nonnull : null_scalar;
          propagate(jump_target, taken);
          propagate(pc + 1, fall);
          return {};
        }
        if (d.kind != Kind::Scalar) {
          return "comparison of pointer with non-null immediate";
        }
        return branch_imm(pc, in, out);
      }
      case Op::JgtImm: case Op::JgeImm: case Op::JltImm: case Op::JleImm:
      case Op::JsgtImm: case Op::JsgeImm: case Op::JsltImm:
      case Op::JsleImm: case Op::JsetImm: {
        if (auto e = require_init(in.dst); !e.empty()) return e;
        if (regs[in.dst].kind != Kind::Scalar) {
          return "conditional jump on non-scalar";
        }
        return branch_imm(pc, in, out);
      }
      case Op::JeqReg: case Op::JneReg: case Op::JgtReg: case Op::JgeReg:
      case Op::JltReg: case Op::JleReg: case Op::JsgtReg: case Op::JsgeReg:
      case Op::JsltReg: case Op::JsleReg: case Op::JsetReg: {
        if (auto e = require_init(in.dst); !e.empty()) return e;
        if (auto e = require_init(in.src); !e.empty()) return e;
        if (regs[in.dst].kind != Kind::Scalar ||
            regs[in.src].kind != Kind::Scalar) {
          return "conditional jump on non-scalar";
        }
        AbsState taken = out;
        AbsState fall = out;
        const bool t_ok = ValueRange::refine_branch(
            in.op, true, taken.regs[in.dst].val, taken.regs[in.src].val);
        const bool f_ok = ValueRange::refine_branch(
            in.op, false, fall.regs[in.dst].val, fall.regs[in.src].val);
        if (t_ok) propagate(jump_target, taken); else ++dead_edges_;
        if (f_ok) propagate(pc + 1, fall); else ++dead_edges_;
        return {};
      }

      case Op::Call:
        return call(pc, in, out);

      case Op::Exit: {
        if (auto e = require_init(0); !e.empty()) return e;
        if (regs[0].kind != Kind::Scalar) return "exit with non-scalar r0";
        ret_ = ret_reachable_ ? ValueRange::join(ret_, regs[0].val)
                              : regs[0].val;
        ret_reachable_ = true;
        return {};  // no successors
      }
    }
    return "unhandled opcode";
  }

  std::string branch_imm(size_t pc, const Insn& in, const AbsState& cur) {
    AbsState taken = cur;
    AbsState fall = cur;
    ValueRange imm_t = ValueRange::konst(static_cast<uint64_t>(in.imm));
    ValueRange imm_f = imm_t;
    const bool t_ok = ValueRange::refine_branch(in.op, true,
                                                taken.regs[in.dst].val,
                                                imm_t);
    const bool f_ok = ValueRange::refine_branch(in.op, false,
                                                fall.regs[in.dst].val,
                                                imm_f);
    const size_t target = pc + 1 + static_cast<size_t>(in.off);
    if (t_ok) propagate(target, taken); else ++dead_edges_;
    if (f_ok) propagate(pc + 1, fall); else ++dead_edges_;
    return {};
  }

  std::string call(size_t pc, const Insn& in, AbsState& out) {
    auto& regs = out.regs;
    const HelperSig* sig = find_sig(in.imm);
    if (sig == nullptr) return "unknown helper";
    HelperCallInfo info;
    info.pc = pc;
    info.id = sig->id;
    for (int a = 0; a < sig->num_args; ++a) {
      const Reg r = static_cast<Reg>(a + 1);
      if (regs[r].kind == Kind::Uninit) {
        return "read of uninitialized r" + std::to_string(r);
      }
      const Kind want = sig->arg[a];
      const Kind have = regs[r].kind;
      if (want == Kind::PtrStack) {
        if (have != Kind::PtrStack) {
          return "helper arg r" + std::to_string(r) +
                 " must be a stack pointer";
        }
        if (!regs[r].val.is_const()) {
          return "helper arg r" + std::to_string(r) +
                 " must have a constant stack offset";
        }
        if (auto e = check_mem(regs[r], 0, 4, /*is_write=*/false);
            !e.empty()) {
          return e;
        }
        // The u32 key buffer: read it for proof reporting.
        const int64_t abs = static_cast<int64_t>(kStackSize) +
                            regs[r].delta +
                            static_cast<int64_t>(regs[r].val.umin);
        const RegState k = load_stack(out, abs, 4);
        info.key_known = k.kind == Kind::Scalar && k.val.umax <= kU32Max;
        info.key = info.key_known ? k.val : unknown32();
      } else if (want == Kind::MapHandle) {
        if (have != Kind::MapHandle) {
          return "helper arg r" + std::to_string(r) + " must be a map";
        }
        Map* m = maps_[static_cast<size_t>(regs[r].map_slot)];
        if (m->type() != sig->map_type) {
          return "helper map argument has wrong map type";
        }
        info.map_slot = regs[r].map_slot;
      } else if (want == Kind::PtrCtx) {
        // The VM hands r1 to the helper as a ReuseportCtx*; anything but
        // the context base would misinterpret memory.
        if (have != Kind::PtrCtx || regs[r].delta != 0 ||
            !regs[r].val.is_const() || regs[r].val.umin != 0) {
          return "helper arg r" + std::to_string(r) +
                 " must be the context base";
        }
      } else if (want != have) {
        return "helper arg r" + std::to_string(r) + " has wrong type";
      }
    }

    // Result + clobbers.
    const RegState r0 =
        sig->id == HelperId::MapLookupElem
            ? RegState{Kind::PtrMapValueOrNull, 0, regs[1].map_slot,
                       ValueRange::konst(0)}
            // sk_select_reuseport: 0 or (u64)-ENOENT
            : RegState::scalar(ValueRange::join(
                  ValueRange::konst(0),
                  ValueRange::konst(static_cast<uint64_t>(-2))));
    for (Reg r = 1; r <= 5; ++r) regs[r] = RegState{};
    regs[0] = r0;

    helper_calls_.push_back(info);
    propagate(pc + 1, out);
    return {};
  }

  const Program& prog_;
  std::span<Map* const> maps_;

  std::vector<AbsState> states_;
  std::vector<uint32_t> merge_counts_;

  uint64_t steps_ = 0;
  size_t dead_edges_ = 0;
  size_t err_pc_ = 0;
  bool ret_reachable_ = false;
  ValueRange ret_;
  // Facts per visited pc, in pc order (scan steps each pc once, in order).
  std::vector<HelperCallInfo> helper_calls_;
  std::vector<size_t> mem_access_pcs_;
};

}  // namespace

bool is_pointer(Kind k) {
  return k == Kind::PtrStack || k == Kind::PtrCtx ||
         k == Kind::PtrMapValue || k == Kind::PtrMapValueOrNull;
}

std::string to_string(const RegState& r) {
  std::ostringstream os;
  auto var_suffix = [&] {
    if (!r.val.is_const() || r.val.umin != 0) {
      os << "+var{" << to_string(r.val) << "}";
    }
  };
  switch (r.kind) {
    case Kind::Uninit:
      os << "uninit";
      break;
    case Kind::Scalar:
      os << "scalar{" << to_string(r.val) << "}";
      break;
    case Kind::PtrStack:
      os << "fp" << (r.delta >= 0 ? "+" : "") << r.delta;
      var_suffix();
      break;
    case Kind::PtrCtx:
      os << "ctx+" << r.delta;
      var_suffix();
      break;
    case Kind::PtrMapValue:
      os << "map_value(slot=" << r.map_slot << ")+" << r.delta;
      var_suffix();
      break;
    case Kind::PtrMapValueOrNull:
      os << "map_value_or_null(slot=" << r.map_slot << ")";
      break;
    case Kind::MapHandle:
      os << "map_handle(slot=" << r.map_slot << ")";
      break;
  }
  return os.str();
}

AnalysisResult analyze(const Program& prog, std::span<Map* const> maps) {
  Analyzer a(prog, maps);
  return a.run();
}

}  // namespace hermes::bpf::analysis
