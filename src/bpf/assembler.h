// A tiny structured assembler for building bpf::Program values in C++.
//
// Provides named labels with fixup so the Hermes dispatch program can be
// written readably in core/dispatch_prog.cc. A jump may reference a label
// bound later (forward fixup) or one already bound (backward edge — the
// verifier rejects these; the fuzzer emits them to exercise that
// rejection). Each label may be bound exactly once.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bpf/insn.h"
#include "util/check.h"

namespace hermes::bpf {

// Strongly-typed register name: prevents overload ambiguity between
// register and immediate operands (mov(r2, r8) vs mov(r2, 8)).
struct R {
  uint8_t idx;
};
inline constexpr R r0{0}, r1{1}, r2{2}, r3{3}, r4{4}, r5{5}, r6{6}, r7{7},
    r8{8}, r9{9}, r10{10};

class Assembler {
 public:
  // --- ALU -----------------------------------------------------------
  Assembler& add(R d, R s) { return emit({Op::AddReg, d.idx, s.idx}); }
  Assembler& add(R d, int64_t i) { return emit({Op::AddImm, d.idx, 0, 0, i}); }
  Assembler& sub(R d, R s) { return emit({Op::SubReg, d.idx, s.idx}); }
  Assembler& sub(R d, int64_t i) { return emit({Op::SubImm, d.idx, 0, 0, i}); }
  Assembler& mul(R d, R s) { return emit({Op::MulReg, d.idx, s.idx}); }
  Assembler& mul(R d, int64_t i) { return emit({Op::MulImm, d.idx, 0, 0, i}); }
  Assembler& div(R d, R s) { return emit({Op::DivReg, d.idx, s.idx}); }
  Assembler& div(R d, int64_t i) { return emit({Op::DivImm, d.idx, 0, 0, i}); }
  Assembler& mod(R d, R s) { return emit({Op::ModReg, d.idx, s.idx}); }
  Assembler& mod(R d, int64_t i) { return emit({Op::ModImm, d.idx, 0, 0, i}); }
  Assembler& and_(R d, R s) { return emit({Op::AndReg, d.idx, s.idx}); }
  Assembler& and_(R d, int64_t i) { return emit({Op::AndImm, d.idx, 0, 0, i}); }
  Assembler& or_(R d, R s) { return emit({Op::OrReg, d.idx, s.idx}); }
  Assembler& or_(R d, int64_t i) { return emit({Op::OrImm, d.idx, 0, 0, i}); }
  Assembler& xor_(R d, R s) { return emit({Op::XorReg, d.idx, s.idx}); }
  Assembler& xor_(R d, int64_t i) { return emit({Op::XorImm, d.idx, 0, 0, i}); }
  Assembler& lsh(R d, R s) { return emit({Op::LshReg, d.idx, s.idx}); }
  Assembler& lsh(R d, int64_t i) { return emit({Op::LshImm, d.idx, 0, 0, i}); }
  Assembler& rsh(R d, R s) { return emit({Op::RshReg, d.idx, s.idx}); }
  Assembler& rsh(R d, int64_t i) { return emit({Op::RshImm, d.idx, 0, 0, i}); }
  Assembler& arsh(R d, R s) { return emit({Op::ArshReg, d.idx, s.idx}); }
  Assembler& arsh(R d, int64_t i) { return emit({Op::ArshImm, d.idx, 0, 0, i}); }
  Assembler& neg(R d) { return emit({Op::Neg, d.idx}); }
  Assembler& mov(R d, R s) { return emit({Op::MovReg, d.idx, s.idx}); }
  Assembler& mov(R d, int64_t i) { return emit({Op::MovImm, d.idx, 0, 0, i}); }
  Assembler& mov32(R d, R s) { return emit({Op::Mov32Reg, d.idx, s.idx}); }
  Assembler& mov32(R d, int32_t i) { return emit({Op::Mov32Imm, d.idx, 0, 0, i}); }
  Assembler& add32(R d, R s) { return emit({Op::Add32Reg, d.idx, s.idx}); }
  Assembler& add32(R d, int32_t i) { return emit({Op::Add32Imm, d.idx, 0, 0, i}); }
  Assembler& sub32(R d, R s) { return emit({Op::Sub32Reg, d.idx, s.idx}); }
  Assembler& sub32(R d, int32_t i) { return emit({Op::Sub32Imm, d.idx, 0, 0, i}); }
  Assembler& mul32(R d, R s) { return emit({Op::Mul32Reg, d.idx, s.idx}); }
  Assembler& mul32(R d, int32_t i) { return emit({Op::Mul32Imm, d.idx, 0, 0, i}); }
  Assembler& div32(R d, R s) { return emit({Op::Div32Reg, d.idx, s.idx}); }
  Assembler& div32(R d, int32_t i) { return emit({Op::Div32Imm, d.idx, 0, 0, i}); }
  Assembler& mod32(R d, R s) { return emit({Op::Mod32Reg, d.idx, s.idx}); }
  Assembler& mod32(R d, int32_t i) { return emit({Op::Mod32Imm, d.idx, 0, 0, i}); }
  Assembler& and32(R d, R s) { return emit({Op::And32Reg, d.idx, s.idx}); }
  Assembler& and32(R d, int32_t i) { return emit({Op::And32Imm, d.idx, 0, 0, i}); }
  Assembler& or32(R d, R s) { return emit({Op::Or32Reg, d.idx, s.idx}); }
  Assembler& or32(R d, int32_t i) { return emit({Op::Or32Imm, d.idx, 0, 0, i}); }
  Assembler& xor32(R d, R s) { return emit({Op::Xor32Reg, d.idx, s.idx}); }
  Assembler& xor32(R d, int32_t i) { return emit({Op::Xor32Imm, d.idx, 0, 0, i}); }
  Assembler& lsh32(R d, int32_t i) { return emit({Op::Lsh32Imm, d.idx, 0, 0, i}); }
  Assembler& rsh32(R d, int32_t i) { return emit({Op::Rsh32Imm, d.idx, 0, 0, i}); }
  Assembler& arsh32(R d, int32_t i) { return emit({Op::Arsh32Imm, d.idx, 0, 0, i}); }
  Assembler& neg32(R d) { return emit({Op::Neg32, d.idx}); }
  Assembler& ld_imm64(R d, uint64_t v) {
    return emit({Op::LdImm64, d.idx, 0, 0, static_cast<int64_t>(v)});
  }
  Assembler& ld_map_fd(R d, int32_t map_slot) {
    return emit({Op::LdMapFd, d.idx, 0, 0, map_slot});
  }

  // --- memory ---------------------------------------------------------
  Assembler& ldx_b(R d, R s, int32_t off) { return emit({Op::LdxB, d.idx, s.idx, off}); }
  Assembler& ldx_h(R d, R s, int32_t off) { return emit({Op::LdxH, d.idx, s.idx, off}); }
  Assembler& ldx_w(R d, R s, int32_t off) { return emit({Op::LdxW, d.idx, s.idx, off}); }
  Assembler& ldx_dw(R d, R s, int32_t off) { return emit({Op::LdxDW, d.idx, s.idx, off}); }
  Assembler& stx_b(R d, int32_t off, R s) { return emit({Op::StxB, d.idx, s.idx, off}); }
  Assembler& stx_h(R d, int32_t off, R s) { return emit({Op::StxH, d.idx, s.idx, off}); }
  Assembler& stx_w(R d, int32_t off, R s) { return emit({Op::StxW, d.idx, s.idx, off}); }
  Assembler& stx_dw(R d, int32_t off, R s) { return emit({Op::StxDW, d.idx, s.idx, off}); }
  Assembler& st_w(R d, int32_t off, int32_t i) { return emit({Op::StW, d.idx, 0, off, i}); }
  Assembler& st_dw(R d, int32_t off, int32_t i) { return emit({Op::StDW, d.idx, 0, off, i}); }

  // --- control flow ----------------------------------------------------
  // A jump may name a label bound later (forward fixup) or earlier
  // (backward edge, resolved immediately).
  Assembler& ja(const std::string& label) { return jmp(Op::Ja, r0, r0, 0, label); }
  Assembler& jeq(R d, R s, const std::string& l) { return jmp(Op::JeqReg, d, s, 0, l); }
  Assembler& jeq(R d, int64_t i, const std::string& l) { return jmp(Op::JeqImm, d, r0, i, l); }
  Assembler& jne(R d, R s, const std::string& l) { return jmp(Op::JneReg, d, s, 0, l); }
  Assembler& jne(R d, int64_t i, const std::string& l) { return jmp(Op::JneImm, d, r0, i, l); }
  Assembler& jgt(R d, R s, const std::string& l) { return jmp(Op::JgtReg, d, s, 0, l); }
  Assembler& jgt(R d, int64_t i, const std::string& l) { return jmp(Op::JgtImm, d, r0, i, l); }
  Assembler& jge(R d, R s, const std::string& l) { return jmp(Op::JgeReg, d, s, 0, l); }
  Assembler& jge(R d, int64_t i, const std::string& l) { return jmp(Op::JgeImm, d, r0, i, l); }
  Assembler& jlt(R d, R s, const std::string& l) { return jmp(Op::JltReg, d, s, 0, l); }
  Assembler& jlt(R d, int64_t i, const std::string& l) { return jmp(Op::JltImm, d, r0, i, l); }
  Assembler& jle(R d, R s, const std::string& l) { return jmp(Op::JleReg, d, s, 0, l); }
  Assembler& jle(R d, int64_t i, const std::string& l) { return jmp(Op::JleImm, d, r0, i, l); }
  Assembler& jset(R d, int64_t i, const std::string& l) { return jmp(Op::JsetImm, d, r0, i, l); }

  Assembler& call(HelperId h) {
    return emit({Op::Call, 0, 0, 0, static_cast<int64_t>(h)});
  }
  Assembler& exit() { return emit({Op::Exit}); }

  // Bind `label` to the next emitted instruction and patch pending forward
  // jumps; later jumps to it resolve immediately as backward edges.
  Assembler& label(const std::string& name);

  // Finalize: checks all labels resolved, returns the program.
  Program finish();

  size_t size() const { return prog_.size(); }

 private:
  Assembler& emit(Insn insn) {
    prog_.push_back(insn);
    return *this;
  }
  Assembler& jmp(Op op, R d, R s, int64_t imm, const std::string& label) {
    int32_t off = 0;
    if (auto it = bound_.find(label); it != bound_.end()) {
      // Already-bound label: resolve as a backward edge right away.
      off = static_cast<int32_t>(static_cast<int64_t>(it->second) -
                                 static_cast<int64_t>(prog_.size()) - 1);
    } else {
      pending_[label].push_back(prog_.size());
    }
    return emit({op, d.idx, s.idx, off, imm});
  }

  Program prog_;
  std::map<std::string, std::vector<size_t>> pending_;
  std::map<std::string, size_t> bound_;
};

}  // namespace hermes::bpf
