#include "bpf/vm.h"

namespace hermes::bpf {

std::unique_ptr<LoadedProgram> Vm::load(Program prog, std::vector<Map*> maps,
                                        std::string* error) const {
  VerifyResult vr = verify(prog, maps);
  if (!vr) {
    if (error != nullptr) *error = vr.error;
    return nullptr;
  }
  auto lp = std::unique_ptr<LoadedProgram>(new LoadedProgram);
  lp->prog_ = std::move(prog);
  lp->maps_ = std::move(maps);
  lp->plan_ = compile_plan(lp->prog_, lp->maps_, vr.analysis);
  return lp;
}

Vm::RunResult Vm::run(const LoadedProgram& lp, ReuseportCtx& ctx) const {
  const RunResult res = lp.plan_->execute(ctx, time_fn_, rand_fn_);
  total_insns_ += res.insns_executed;
  return res;
}

}  // namespace hermes::bpf
