// The eBPF virtual machine: loads a verified program with its bound maps
// and executes it against a ReuseportCtx (or raw context buffer).
//
// Execution model matches the kernel interpreter: 64-bit registers, 512-byte
// zeroed stack per run, helpers dispatched by id, hard instruction budget.
// Loads/stores the verifier could not prove in-bounds are additionally
// bounds-checked at runtime (defense in depth; a violation is a bug in this
// repo, so it aborts).
//
// load() verifies once and compiles the program into a cached
// ExecutionPlan (bpf/plan.h); run() dispatches through that plan. The
// trapping reference interpreter, bpf::ref_run (bpf/ref_interpreter.h), is
// the oracle the plan is tested against.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bpf/insn.h"
#include "bpf/maps.h"
#include "bpf/plan.h"
#include "bpf/verifier.h"

namespace hermes::bpf {

// A loaded, verified program. Create via Vm::load().
class LoadedProgram {
 public:
  const Program& insns() const { return prog_; }
  std::span<Map* const> maps() const { return maps_; }
  const ExecutionPlan& plan() const { return *plan_; }

 private:
  friend class Vm;
  Program prog_;
  std::vector<Map*> maps_;
  std::unique_ptr<ExecutionPlan> plan_;
};

class Vm {
 public:
  // Time source for the KtimeGetNs helper; the simulator wires the sim
  // clock in, the live demo wires CLOCK_MONOTONIC.
  using TimeFn = std::function<uint64_t()>;
  using RandFn = std::function<uint32_t()>;

  void set_time_fn(TimeFn fn) { time_fn_ = std::move(fn); }
  void set_rand_fn(RandFn fn) { rand_fn_ = std::move(fn); }

  // Verify + bind maps + compile the execution plan. Returns nullptr and
  // fills `error` on rejection.
  std::unique_ptr<LoadedProgram> load(Program prog, std::vector<Map*> maps,
                                      std::string* error = nullptr) const;

  // r0 at exit, source instructions executed, and the plan's fused and
  // unchecked micro-ops executed.
  using RunResult = ExecutionPlan::ExecResult;

  // Run against a reuseport context. The program may call
  // bpf_sk_select_reuseport, which records its decision into `ctx`.
  RunResult run(const LoadedProgram& prog, ReuseportCtx& ctx) const;

  // Cumulative executed-instruction counter across run() calls (overhead
  // accounting for Table 5).
  uint64_t total_insns() const { return total_insns_; }

 private:
  TimeFn time_fn_;
  RandFn rand_fn_;
  mutable uint64_t total_insns_ = 0;
};

}  // namespace hermes::bpf
