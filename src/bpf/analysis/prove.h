// Machine-checked safety proof for the Hermes dispatch program (Algorithm 2
// of the paper): every socket index the program hands to
// sk_select_reuseport is provably < nr_socks, and the program's return
// value is always kRetUseSelection or kRetFallback (so a failed selection
// falls back to the kernel's reuseport hash instead of faulting).
//
// The proof is not a test over sampled inputs: it reads the abstract
// interpreter's over-approximation of *all* executions, so `ok == true`
// means no context contents, map contents, or randomness can produce an
// out-of-range index. It does not analyse the program itself: it checks
// the facts of an analysis already run — at load, the verifier's own,
// kept as VerifiedImage::analysis() (bpf/vm.h). tests/dispatch_prove_test.cc
// runs it for every supported pool geometry and policy.
#pragma once

#include <cstdint>
#include <string>

#include "bpf/analysis/interp.h"

namespace hermes::bpf::analysis {

struct DispatchProof {
  bool ok = false;
  std::string detail;  // per-callsite facts, or the failure reason

  explicit operator bool() const { return ok; }
};

// Proves, from the analysis of a program already known to target a
// reuseport sockarray of `nr_socks` entries, that (a) the program
// verified, (b) every SkSelectReuseport key is tracked and bounded below
// nr_socks, and (c) every exit returns kRetUseSelection (0) or
// kRetFallback (1).
DispatchProof prove_dispatch(const AnalysisResult& analysis,
                             uint64_t nr_socks);

}  // namespace hermes::bpf::analysis
