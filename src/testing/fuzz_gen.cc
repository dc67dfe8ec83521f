#include "testing/fuzz_gen.h"

#include <string>

#include "bpf/assembler.h"

namespace hermes::testing {

namespace {

using bpf::Assembler;
using bpf::HelperId;
using bpf::R;
using bpf::r0;
using bpf::r1;
using bpf::r2;
using bpf::r3;
using bpf::r4;
using bpf::r5;
using bpf::r6;
using bpf::r10;
using sim::Rng;

// Scalar working registers; r6 holds the saved context pointer.
constexpr R kUsable[] = {bpf::r7, bpf::r8, bpf::r9};

R pick_usable(Rng& rng) { return kUsable[rng.next_below(3)]; }

// A label unique within one program: `prefix` plus a running number.
std::string fresh_label(char prefix, int& label_n) {
  std::string label(1, prefix);
  label += std::to_string(label_n++);
  return label;
}

// Mixed-magnitude immediates: small constants, powers of two, full-width.
int64_t rand_imm(Rng& rng) {
  switch (rng.next_below(4)) {
    case 0: return static_cast<int64_t>(rng.next_below(16));
    case 1: return static_cast<int64_t>(rng.next_below(64)) - 32;
    case 2: return int64_t{1} << rng.next_below(63);
    default: return static_cast<int64_t>(rng.next_u64());
  }
}

void emit_alu_atom(Assembler& a, Rng& rng) {
  const uint32_t n = 1 + static_cast<uint32_t>(rng.next_below(3));
  for (uint32_t i = 0; i < n; ++i) {
    const R d = pick_usable(rng);
    const R s = pick_usable(rng);
    const int64_t imm = rand_imm(rng);
    const int64_t nz = imm == 0 ? 1 : imm;  // div/mod immediates must be != 0
    switch (rng.next_below(20)) {
      case 0: a.add(d, s); break;
      case 1: a.add(d, imm); break;
      case 2: a.sub(d, s); break;
      case 3: a.mul(d, imm); break;
      case 4: a.div(d, s); break;      // div-by-zero reg: defined (-> 0)
      case 5: a.div(d, nz); break;
      case 6: a.mod(d, s); break;
      case 7: a.mod(d, nz); break;
      case 8: a.and_(d, imm); break;
      case 9: a.or_(d, s); break;
      case 10: a.xor_(d, imm); break;
      case 11: a.lsh(d, static_cast<int64_t>(rng.next_below(70))); break;
      case 12: a.rsh(d, static_cast<int64_t>(rng.next_below(70))); break;
      case 13: a.arsh(d, static_cast<int64_t>(rng.next_below(70))); break;
      case 14: a.neg(d); break;
      case 15: a.mov(d, imm); break;
      case 16: a.add32(d, s); break;
      case 17: a.mul32(d, static_cast<int32_t>(imm)); break;
      case 18: a.xor32(d, s); break;
      case 19:
        a.mov32(d, static_cast<int32_t>(imm));
        break;
    }
  }
}

void emit_stack_atom(Assembler& a, Rng& rng) {
  const R v = pick_usable(rng);
  const R d = pick_usable(rng);
  switch (rng.next_below(5)) {
    case 0: {  // 64-bit round trip
      const int32_t off = -8 * (1 + static_cast<int32_t>(rng.next_below(8)));
      a.stx_dw(r10, off, v);
      a.ldx_dw(d, r10, off);
      break;
    }
    case 1: {  // 32-bit store, 8/16/32-bit reads of it
      const int32_t off = -4 * (1 + static_cast<int32_t>(rng.next_below(16)));
      a.stx_w(r10, off, v);
      if (rng.bernoulli(0.5)) a.ldx_b(d, r10, off);
      break;
    }
    case 2: {  // immediate stores
      const int32_t off = -8 * (1 + static_cast<int32_t>(rng.next_below(8)));
      a.st_dw(r10, off, static_cast<int32_t>(rand_imm(rng)));
      a.ldx_dw(d, r10, off);
      break;
    }
    case 3: {  // byte traffic
      const int32_t off = -1 - static_cast<int32_t>(rng.next_below(16));
      a.stx_b(r10, off, v);
      a.ldx_b(d, r10, off);
      break;
    }
    default: {  // read the zeroed deep stack
      const int32_t off =
          -8 * (40 + static_cast<int32_t>(rng.next_below(24)));
      a.ldx_dw(d, r10, off);
      break;
    }
  }
}

void emit_ctx_load_atom(Assembler& a, Rng& rng) {
  const R d = pick_usable(rng);
  switch (rng.next_below(3)) {
    case 0: a.ldx_w(d, r6, 4 * static_cast<int32_t>(rng.next_below(6))); break;
    case 1: a.ldx_h(d, r6, 2 * static_cast<int32_t>(rng.next_below(12))); break;
    default: a.ldx_b(d, r6, static_cast<int32_t>(rng.next_below(24))); break;
  }
}

void emit_lookup_atom(Assembler& a, Rng& rng, const GenOptions& opt,
                      int& label_n) {
  // Key sometimes out of range: exercises the lookup-returns-null path.
  const auto key = static_cast<int32_t>(rng.next_below(opt.array_entries + 2));
  const std::string skip = fresh_label('g', label_n);
  a.st_w(r10, -4, key);
  a.ld_map_fd(r1, 0);
  a.mov(r2, r10);
  a.add(r2, -4);
  a.call(HelperId::MapLookupElem);
  a.jeq(r0, 0, skip);
  if (rng.bernoulli(0.7)) {
    a.ldx_dw(pick_usable(rng), r0, 0);  // read the 8-byte value
  } else {
    a.stx_dw(r0, 0, pick_usable(rng));  // overwrite it with a scalar
  }
  a.label(skip);
}

void emit_sk_select_atom(Assembler& a, Rng& rng, const GenOptions& opt) {
  // Key sometimes names an empty / out-of-range slot (-ENOENT path).
  const auto key = static_cast<int32_t>(rng.next_below(opt.sock_entries + 2));
  a.st_w(r10, -4, key);
  a.mov(r1, r6);
  a.ld_map_fd(r2, 1);
  a.mov(r3, r10);
  a.add(r3, -4);
  a.mov(r4, 0);
  a.call(HelperId::SkSelectReuseport);
  if (rng.bernoulli(0.5)) a.mov(pick_usable(rng), r0);
}

// Variable-offset memory access whose bound the range analysis must
// prove: a masked or branch-guarded index into the stack or a map value.
// These were categorically rejected by the pre-analysis verifier.
void emit_range_access_atom(Assembler& a, Rng& rng, int& label_n) {
  const R d = pick_usable(rng);
  const R idx = pick_usable(rng);
  switch (rng.next_below(3)) {
    case 0: {  // mask-bounded stack byte access
      const int64_t mask = (int64_t{1} << (1 + rng.next_below(4))) - 1;
      a.mov(r4, idx);
      a.and_(r4, mask);
      a.mov(r5, r10);
      a.add(r5, -1 - mask);
      a.add(r5, r4);
      if (rng.bernoulli(0.5)) {
        a.ldx_b(d, r5, 0);
      } else {
        a.stx_b(r5, 0, idx);
      }
      break;
    }
    case 1: {  // branch-guard-bounded stack access
      const std::string skip = fresh_label('r', label_n);
      a.mov(r4, idx);
      a.jgt(r4, 15, skip);
      a.mov(r5, r10);
      a.add(r5, -16);
      a.add(r5, r4);
      a.ldx_b(d, r5, 0);
      a.label(skip);
      break;
    }
    default: {  // mask-bounded access into a null-checked map value
      const std::string skip = fresh_label('r', label_n);
      a.st_w(r10, -4, 0);
      a.ld_map_fd(r1, 0);
      a.mov(r2, r10);
      a.add(r2, -4);
      a.call(HelperId::MapLookupElem);
      a.jeq(r0, 0, skip);
      a.mov(r4, idx);
      a.and_(r4, 7);  // value_size is 8
      a.add(r0, r4);
      a.ldx_b(d, r0, 0);
      a.label(skip);
      break;
    }
  }
}

// Deliberately dubious instructions: most are rejected by the verifier
// (that's the point), but any that slip through are differential-safe —
// no pointer is ever copied toward memory or arithmetic.
void emit_wild_atom(Assembler& a, Rng& rng, int& label_n) {
  const R d = pick_usable(rng);
  switch (rng.next_below(9)) {
    case 0: a.div(d, 0); break;                       // rejected: div by 0
    case 1: a.mod32(d, 0); break;                     // rejected: mod by 0
    case 2:  // context load, offset may exceed the readable prefix
      a.ldx_w(d, r6, 4 * static_cast<int32_t>(rng.next_below(10)));
      break;
    case 3:  // stack load, offset may fall outside the 512-byte frame
      a.ldx_dw(d, r10, -8 * (1 + static_cast<int32_t>(rng.next_below(80))));
      break;
    case 4: a.add(r3, r3); break;                     // rejected: r3 uninit
    case 5: a.mov32(d, r6); break;                    // rejected: truncates ptr
    case 6: {  // unmasked variable stack offset: usually unprovable
      a.mov(r5, r10);
      a.add(r5, d);
      a.ldx_b(pick_usable(rng), r5, 0);
      break;
    }
    case 7: {  // endless loop: rejected as a backward edge
      const std::string top = fresh_label('w', label_n);
      a.label(top);
      a.add(d, 1);
      a.ja(top);
      break;
    }
    default: {  // counted loop: terminates, but rejected as a backward edge
      const std::string top = fresh_label('w', label_n);
      a.mov(r5, 0);
      a.label(top);
      a.add(r5, 1);
      a.jlt(r5, 100000, top);
      break;
    }
  }
}

void emit_cond_jump(Assembler& a, Rng& rng, const std::string& label) {
  const R d = pick_usable(rng);
  const R s = pick_usable(rng);
  const int64_t imm = rand_imm(rng);
  switch (rng.next_below(7)) {
    case 0: a.jeq(d, imm, label); break;
    case 1: a.jne(d, imm, label); break;
    case 2: a.jgt(d, imm, label); break;
    case 3: a.jle(d, imm, label); break;
    case 4: a.jset(d, imm, label); break;
    case 5: a.jlt(d, s, label); break;
    default: a.jge(d, s, label); break;
  }
}

void emit_atom(Assembler& a, Rng& rng, const GenOptions& opt, int& label_n,
               GenStats& stats) {
  if (rng.bernoulli(opt.wild_prob)) {
    emit_wild_atom(a, rng, label_n);
    return;
  }
  switch (rng.next_below(7)) {
    case 0: case 1: emit_alu_atom(a, rng); break;
    case 2: emit_stack_atom(a, rng); break;
    case 3: emit_ctx_load_atom(a, rng); break;
    case 4: emit_lookup_atom(a, rng, opt, label_n); break;
    case 5: emit_sk_select_atom(a, rng, opt); break;
    default:
      emit_range_access_atom(a, rng, label_n);
      stats.has_range_access = true;
      break;
  }
}

}  // namespace

bpf::Program gen_program(sim::Rng& rng, const GenOptions& opt,
                         GenStats* stats) {
  Assembler a;
  int label_n = 0;
  GenStats local;
  GenStats& st = stats != nullptr ? *stats : local;
  st = GenStats{};

  // Prologue: save ctx, initialize every working register to a scalar.
  a.mov(r6, r1);
  for (const R u : kUsable) {
    switch (rng.next_below(3)) {
      case 0: a.mov(u, rand_imm(rng)); break;
      case 1: a.ld_imm64(u, rng.next_u64()); break;
      default:
        a.ldx_w(u, r6, 4 * static_cast<int32_t>(rng.next_below(6)));
        break;
    }
  }

  const uint32_t atoms =
      opt.min_atoms +
      static_cast<uint32_t>(rng.next_below(opt.max_atoms - opt.min_atoms + 1));
  for (uint32_t i = 0; i < atoms; ++i) {
    // Optionally guard the atom with a forward conditional jump over it:
    // both paths stay verifiable because atoms only write scalar state.
    std::string guard;
    if (rng.bernoulli(opt.jump_prob)) {
      guard = fresh_label('j', label_n);
      emit_cond_jump(a, rng, guard);
    }
    emit_atom(a, rng, opt, label_n, st);
    if (!guard.empty()) a.label(guard);
  }

  // Epilogue: r0 must hold a scalar at exit.
  if (rng.bernoulli(0.5)) {
    a.mov(r0, rand_imm(rng));
  } else {
    a.mov(r0, pick_usable(rng));
  }
  a.exit();
  return a.finish();
}

bpf::ReuseportCtx gen_ctx(sim::Rng& rng) {
  bpf::ReuseportCtx ctx;
  ctx.len = static_cast<uint32_t>(rng.next_below(2000));
  ctx.eth_protocol = rng.bernoulli(0.5) ? 0x0800 : 0x86dd;
  ctx.ip_protocol = rng.bernoulli(0.9) ? 6 : 17;
  ctx.bind_inany = static_cast<uint32_t>(rng.next_below(2));
  ctx.hash = static_cast<uint32_t>(rng.next_u64());
  ctx.hash2 = static_cast<uint32_t>(rng.next_u64());
  return ctx;
}

}  // namespace hermes::testing
