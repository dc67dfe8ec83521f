#include "bpf/verifier.h"

#include <algorithm>
#include <sstream>

#include "bpf/analysis/interp.h"

namespace hermes::bpf {

namespace {

// A short disassembly window around the failing instruction, with the
// offender marked — kernel-verifier-style context for rejection logs.
std::string disasm_window(const Program& prog, size_t err_pc) {
  if (prog.empty()) return {};
  const size_t lo = err_pc >= 3 ? err_pc - 3 : 0;
  const size_t hi = std::min(prog.size() - 1, err_pc + 3);
  std::ostringstream os;
  for (size_t pc = lo; pc <= hi; ++pc) {
    os << (pc == err_pc ? " -> " : "    ") << pc << ": "
       << disassemble(prog[pc]) << "\n";
  }
  return os.str();
}

}  // namespace

VerifyResult verify(const Program& prog, std::span<Map* const> maps) {
  VerifyResult res;
  res.insn_count = prog.size();
  analysis::AnalysisResult a = analysis::analyze(prog, maps);
  res.dead_insns = a.dead_insns;
  res.dead_edges = a.dead_edges;
  if (a) {
    res.ok = true;
    res.analysis = std::move(a);
    return res;
  }

  res.ok = false;
  res.error_pc = a.error_pc;
  std::ostringstream os;
  os << "pc " << a.error_pc;
  if (a.error_pc < prog.size()) {
    os << " (" << disassemble(prog[a.error_pc]) << ")";
  }
  os << ": " << a.error;
  if (std::string w = disasm_window(prog, a.error_pc); !w.empty()) {
    os << "\n" << w;
  }
  if (!a.error_state.empty()) {
    os << "abstract state at pc " << a.error_pc << ":\n" << a.error_state;
  }
  res.error = os.str();
  return res;
}

}  // namespace hermes::bpf
