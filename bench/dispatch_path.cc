// Dispatch hot path microbench: ns/dispatch of the production eBPF
// dispatch program through bpf::Vm, which runs the verified ExecutionPlan
// (src/bpf/plan.h): pre-decoded micro-ops with superinstruction fusion,
// computed goto, map pointers resolved at load, and the bounds checks the
// abstract interpreter proved dropped at plan-compile time.
//
// The program under test is core::build_dispatch_program — the exact
// bytecode sim::LbDevice attaches — at the two-level geometry (2 groups x
// 8 workers), so one dispatch exercises both popcounts, the 63-unit
// rank-select ladder, and the isolate-lowest-bit epilogue that the plan
// fuses into superinstructions. Every context of the deterministic sweep
// also runs through the reference interpreter (bpf::ref_run), which must
// agree on r0, instruction count and socket selection.
//
// Wall-clock metrics carry the _cost_ns suffix and are reported but never
// gated (bench/bench_gate_check.cc); the gated metrics are the
// deterministic ones: insns/dispatch (fused micro-ops charge their
// original instruction counts), plan shape (uops, fusion/elision site
// counts), and per-dispatch fused/elided counter rates. The tier2_ prefix
// names the plan's bpf::ExecTier slot; perfbench/run.py reads
// tier2_cost_ns.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bpf/maps.h"
#include "bpf/plan.h"
#include "bpf/ref_interpreter.h"
#include "bpf/vm.h"
#include "core/dispatch_prog.h"
#include "simcore/rng.h"
#include "util/check.h"

namespace hermes::bench {
namespace {

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

template <typename F>
double ns_per_op(F&& op, int iters) {
  for (int i = 0; i < iters / 10; ++i) op(i);  // warmup
  double best = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    const double start = cpu_seconds();
    for (int i = 0; i < iters; ++i) op(i);
    best = std::min(best, cpu_seconds() - start);
  }
  return best / iters * 1e9;
}

constexpr uint32_t kNumGroups = 2;
constexpr uint32_t kWorkersPerGroup = 8;
constexpr size_t kNumCtxs = 1024;  // power of two (cheap index mask)
constexpr int kTimedIters = 200'000;

// The dispatch program bound to its maps, as LbDevice binds it.
struct DispatchWorld {
  bpf::ArrayMap sel{kNumGroups, sizeof(uint64_t)};
  bpf::ReuseportSockArray socks{kNumGroups * kWorkersPerGroup};
  bpf::Program prog;

  DispatchWorld() {
    core::DispatchProgramParams params;
    params.num_groups = kNumGroups;
    params.workers_per_group = kWorkersPerGroup;
    sel.store_u64(0, 0xad);  // 5 of 8 workers available
    sel.store_u64(1, 0x5f);  // 6 of 8
    for (uint32_t w = 0; w < kNumGroups * kWorkersPerGroup; ++w) {
      socks.update(w, 1000 + w);
    }
    prog = core::build_dispatch_program(params);
  }
};

struct PlanResult {
  double cost_ns = 0;
  // Deterministic sweep over the kNumCtxs contexts:
  uint64_t insns = 0;
  uint64_t fused_hits = 0;
  uint64_t elided_checks = 0;
  bpf::ExecutionPlan::Stats plan{};
};

PlanResult run_plan(const std::vector<bpf::ReuseportCtx>& ctxs) {
  DispatchWorld world;
  bpf::Vm vm;
  std::string err;
  auto loaded = vm.load(world.prog, {&world.sel, &world.socks}, &err);
  HERMES_CHECK_MSG(loaded != nullptr, "dispatch program rejected");

  PlanResult r;
  r.plan = loaded->plan().stats();
  // Fusion must have fired on the production program: 2 popcounts, the
  // full rank-select ladder, 1 isolate-lowest-bit.
  HERMES_CHECK(r.plan.fused_popcount == 2);
  HERMES_CHECK(r.plan.fused_isolate == 1);

  // Deterministic sweep: every context once, checked against the
  // reference interpreter, or the bench is measuring a different program.
  for (const bpf::ReuseportCtx& c : ctxs) {
    bpf::ReuseportCtx ctx = c;
    const bpf::Vm::RunResult run = vm.run(*loaded, ctx);
    bpf::ReuseportCtx ref_ctx = c;
    const bpf::RefResult ref =
        bpf::ref_run(loaded->insns(), loaded->maps(), ref_ctx);
    HERMES_CHECK_MSG(!ref.trapped && run.ret == ref.ret &&
                         run.insns_executed == ref.insns_executed &&
                         ctx.selection_made == ref_ctx.selection_made &&
                         ctx.selected_socket == ref_ctx.selected_socket,
                     "plan diverges from the reference interpreter");
    r.insns += run.insns_executed;
    r.fused_hits += run.fused_hits;
    r.elided_checks += run.elided_checks;
  }

  // Timed loop: cycle through the contexts so the branch pattern matches
  // production traffic rather than one lucky hash.
  std::vector<bpf::ReuseportCtx> scratch = ctxs;
  r.cost_ns = ns_per_op(
      [&](int i) {
        bpf::ReuseportCtx& ctx = scratch[static_cast<size_t>(i) &
                                         (kNumCtxs - 1)];
        ctx.selection_made = 0;
        (void)vm.run(*loaded, ctx);
      },
      kTimedIters);
  return r;
}

// One-time cost of Vm::load (verify + plan compile). Load-time work that
// never touches the dispatch hot path; reported for sizing, never gated.
double load_cost_ns() {
  DispatchWorld world;
  bpf::Vm vm;
  return ns_per_op(
      [&](int) {
        std::string err;
        auto loaded = vm.load(world.prog, {&world.sel, &world.socks}, &err);
        HERMES_CHECK_MSG(loaded != nullptr, "dispatch program rejected");
      },
      200);
}

int main_impl(int argc, char** argv) {
  BenchJson json("dispatch_path", &argc, argv);
  header("dispatch_path: ns/dispatch of the eBPF execution plan");

  std::vector<bpf::ReuseportCtx> ctxs(kNumCtxs);
  sim::Rng rng(17);
  for (bpf::ReuseportCtx& c : ctxs) {
    c.hash = static_cast<uint32_t>(rng.next_u64());
    c.hash2 = static_cast<uint32_t>(rng.next_u64());
    c.ip_protocol = 6;
  }

  const PlanResult res = run_plan(ctxs);
  const double load_ns = load_cost_ns();

  const double n = static_cast<double>(kNumCtxs);
  const double insns = static_cast<double>(res.insns) / n;
  const double fused = static_cast<double>(res.fused_hits) / n;
  const double elided = static_cast<double>(res.elided_checks) / n;
  std::printf("\n%12s %14s %10s %10s\n", "ns/dispatch", "insns/dispatch",
              "fused/d", "elided/d");
  std::printf("%12.1f %14.1f %10.2f %10.2f\n", res.cost_ns, insns, fused,
              elided);
  std::printf("plan: %" PRIu64 " insns -> %" PRIu64
              " uops (popcount=%u blsr=%u isolate=%u, elided sites=%u of "
              "%u mem/helper sites)\n",
              static_cast<uint64_t>(res.plan.n_insns),
              static_cast<uint64_t>(res.plan.n_uops),
              res.plan.fused_popcount, res.plan.fused_blsr,
              res.plan.fused_isolate, res.plan.elided_sites,
              res.plan.elided_sites + res.plan.checked_sites);
  std::printf("load (one-time, verify + compile): %.0f ns\n", load_ns);

  // Wall-clock: reported, never gated.
  json.metric("load_cost_ns", load_ns);
  json.metric("tier2_cost_ns", res.cost_ns);
  // Deterministic: gated against bench/baseline.json.
  json.metric("tier2_insns_per_dispatch", insns);
  json.metric("tier2_fused_per_dispatch", fused);
  json.metric("tier2_elided_per_dispatch", elided);
  json.metric("plan_uops", static_cast<double>(res.plan.n_uops));
  json.metric("plan_fused_popcount",
              static_cast<double>(res.plan.fused_popcount));
  json.metric("plan_fused_blsr", static_cast<double>(res.plan.fused_blsr));
  json.metric("plan_fused_isolate",
              static_cast<double>(res.plan.fused_isolate));
  json.metric("plan_elided_sites",
              static_cast<double>(res.plan.elided_sites));
  return 0;
}

}  // namespace
}  // namespace hermes::bench

int main(int argc, char** argv) {
  return hermes::bench::main_impl(argc, argv);
}
