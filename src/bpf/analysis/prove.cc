#include "bpf/analysis/prove.h"

#include <sstream>

namespace hermes::bpf::analysis {

DispatchProof prove_dispatch(const AnalysisResult& analysis,
                             uint64_t nr_socks) {
  DispatchProof proof;
  std::ostringstream os;
  if (!analysis) {
    os << "program does not verify: pc " << analysis.error_pc << ": "
       << analysis.error;
    proof.detail = os.str();
    return proof;
  }

  bool ok = true;
  size_t selects = 0;
  for (const HelperCallInfo& call : analysis.helper_calls) {
    if (call.id != HelperId::SkSelectReuseport) continue;
    ++selects;
    if (!call.key_known) {
      os << "pc " << call.pc
         << ": sk_select_reuseport key is not tracked precisely\n";
      ok = false;
      continue;
    }
    if (call.key.umax >= nr_socks) {
      os << "pc " << call.pc << ": key range " << to_string(call.key)
         << " not proven < nr_socks=" << nr_socks << "\n";
      ok = false;
      continue;
    }
    os << "pc " << call.pc << ": key " << to_string(call.key) << " < "
       << nr_socks << " for all executions\n";
  }
  if (selects == 0) {
    os << "no sk_select_reuseport call reachable; nothing to prove\n";
    ok = false;
  }

  if (!analysis.ret_reachable) {
    os << "no reachable exit\n";
    ok = false;
  } else if (analysis.ret.umax > kRetFallback) {
    os << "return value " << to_string(analysis.ret)
       << " not proven to be use-selection (0) or fallback (1)\n";
    ok = false;
  } else {
    os << "return value " << to_string(analysis.ret)
       << " is always use-selection or fallback\n";
  }

  proof.ok = ok;
  proof.detail = os.str();
  return proof;
}

}  // namespace hermes::bpf::analysis
