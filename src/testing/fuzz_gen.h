// Seeded random eBPF program generator for differential fuzzing.
//
// Programs are built through bpf::Assembler out of small "atoms" — ALU
// bursts, stack traffic, context loads, gadgets for the dialect's two
// helpers (lookup + null-check with a read or write of the value,
// sk_select_reuseport), variable-offset accesses the range analysis must
// prove (masked or branch-guarded indices), optional forward conditional
// jumps over atoms, and a sprinkling of deliberately dubious "wild"
// instructions that exercise the verifier's rejection paths
// (uninitialized reads, out-of-bounds offsets, zero divisors, unbounded
// variable offsets, and loops: the only backward edges it emits, which
// the verifier must reject).
//
// The generator is typestate-aware — it keeps scalar work in r7-r9, the
// saved context pointer in r6, and gadget scratch in r0-r5 — so the large
// majority of its output passes the verifier, which is what makes it
// useful for *differential* testing (a fuzzer whose programs are all
// rejected tests only the verifier's first line).
//
// Crucially, no generated program ever stores a pointer to memory: only
// scalars and immediates reach the stack or map values. That guarantees
// every observable output (r0, context selection, final map bytes) is a
// pure function of the program + inputs, never of host addresses — the
// property that makes VM-vs-reference-interpreter comparison sound.
//
// Everything is a deterministic function of the sim::Rng passed in: one
// seed reproduces the exact program and context.
#pragma once

#include "bpf/insn.h"
#include "simcore/rng.h"

namespace hermes::testing {

struct GenOptions {
  uint32_t min_atoms = 3;
  uint32_t max_atoms = 14;
  double jump_prob = 0.30;  // chance an atom is guarded by a forward jump
  double wild_prob = 0.10;  // chance of a dubious wild atom
  // Shape of the harness maps the program is generated against:
  // slot 0 = ArrayMap(array_entries, 8), slot 1 = SockArray(sock_entries).
  uint32_t array_entries = 2;
  uint32_t sock_entries = 8;
};

// What the generator actually emitted, so the torture harness can assert
// that an interesting program class (range-proven variable-offset
// accesses) both occurs and passes verification.
struct GenStats {
  bool has_range_access = false;  // a masked/guarded variable-offset access
};

bpf::Program gen_program(sim::Rng& rng, const GenOptions& opt = {},
                         GenStats* stats = nullptr);

// Random reuseport context (hashes, lengths, protocols).
bpf::ReuseportCtx gen_ctx(sim::Rng& rng);

}  // namespace hermes::testing
