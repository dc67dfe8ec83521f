// Ablation: scheduling policy (core/policy.h) — what each dispatch
// variant costs on the hot path, and what load-awareness buys on a
// heterogeneous fleet.
//
// Part 1 (micro): ns/dispatch of every policy's generated program, over
// the same context sweep as dispatch_path.
// Wall-clock rows carry the _cost_ns suffix (reported, never gated); the
// gated rows are deterministic — insns/dispatch and the selection count
// over a fixed 1024-context sweep with fixed bitmaps and aux state.
//
// Part 2 (sim, Fig. 13-style): per-worker CPU-utilization SD and
// connection-count SD under the paper's multi-tenant mix, on a fleet
// where half the cores run at 2x (worker_speeds {2,2,2,2,1,1,1,1}). The
// cascade is load-oblivious inside the eligible set, so capacity skew
// shows up as CPU imbalance; the load-aware policies should narrow it.
// Acceptance: at least one load-aware policy beats the cascade's CPU SD
// on this scenario (shape check printed either way).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bpf/maps.h"
#include "bpf/vm.h"
#include "core/policy.h"
#include "simcore/rng.h"
#include "sim/lb.h"
#include "sim/workload.h"
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
constexpr int kTimedIters = 100'000;

struct MicroResult {
  double cost_ns = 0;
  uint64_t insns = 0;
  uint64_t selections = 0;
};

MicroResult run_micro(const core::SchedulingPolicy& policy,
                      const std::vector<bpf::ReuseportCtx>& ctxs) {
  core::PolicyProgramParams pp;
  pp.base.num_groups = kNumGroups;
  pp.base.workers_per_group = kWorkersPerGroup;

  bpf::ArrayMap sel(kNumGroups, sizeof(uint64_t));
  sel.store_u64(0, 0xad);  // 5 of 8 workers available
  sel.store_u64(1, 0x5f);  // 6 of 8
  bpf::ReuseportSockArray socks(kNumGroups * kWorkersPerGroup);
  for (uint32_t w = 0; w < kNumGroups * kWorkersPerGroup; ++w) {
    socks.update(w, 1000 + w);
  }
  std::vector<bpf::Map*> maps = {&sel, &socks};
  std::unique_ptr<bpf::ArrayMap> aux;
  if (policy.aux_value_bytes() > 0) {
    aux = std::make_unique<bpf::ArrayMap>(kNumGroups,
                                          policy.aux_value_bytes());
    // Deterministic aux state from the policy's own userspace half.
    int64_t conns[core::kMaxWorkersPerGroup];
    int64_t pending[core::kMaxWorkersPerGroup];
    for (uint32_t gr = 0; gr < kNumGroups; ++gr) {
      for (uint32_t w = 0; w < core::kMaxWorkersPerGroup; ++w) {
        conns[w] = static_cast<int64_t>((w * 13 + gr * 7) % 41);
        pending[w] = static_cast<int64_t>((w * 5 + gr) % 11);
      }
      core::ScheduleResult sr;
      sr.bitmap = gr == 0 ? 0xad : 0x5f;
      core::PolicyAuxInputs in;
      in.loop_enter_ns = conns;
      in.pending_events = pending;
      in.connections = conns;
      in.limit = kWorkersPerGroup;
      in.base = gr * kWorkersPerGroup;
      in.result = &sr;
      uint64_t words[core::kMaxWorkersPerGroup] = {};
      policy.fill_aux(in, words);
      aux->update(gr, words);
    }
    maps.push_back(aux.get());
  }

  bpf::Vm vm;
  std::string err;
  auto loaded = vm.load(policy.build_program(pp), maps, &err);
  HERMES_CHECK_MSG(loaded != nullptr, "policy program rejected");

  MicroResult r;
  // Deterministic sweep (queue_est mutates its estimates as it goes —
  // part of the policy's contract, and still fully seeded).
  for (const bpf::ReuseportCtx& c : ctxs) {
    bpf::ReuseportCtx ctx = c;
    const bpf::Vm::RunResult run = vm.run(*loaded, ctx);
    r.insns += run.insns_executed;
    if (ctx.selection_made) ++r.selections;
  }

  std::vector<bpf::ReuseportCtx> scratch = ctxs;
  r.cost_ns = ns_per_op(
      [&](int i) {
        bpf::ReuseportCtx& ctx =
            scratch[static_cast<size_t>(i) & (kNumCtxs - 1)];
        ctx.selection_made = 0;
        (void)vm.run(*loaded, ctx);
      },
      kTimedIters);
  return r;
}

struct SimResult {
  double cpu_sd_pp = 0;
  double conn_sd = 0;
  double cpu_avg_pct = 0;
  double krps = 0;
};

SimResult run_hetero_sim(core::PolicyKind kind) {
  sim::LbDevice::Config cfg;
  cfg.mode = netsim::DispatchMode::HermesMode;
  cfg.num_workers = 8;
  cfg.num_ports = 32;
  cfg.seed = 17;
  cfg.policy = kind;
  // Half the fleet runs at 2x: the capacity skew every load-oblivious
  // policy turns into CPU imbalance.
  cfg.worker_speeds = {2.0, 2.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0};
  sim::LbDevice lb(cfg);

  const auto mixes = sim::paper_region_mixes();
  const auto tm = sim::TenantModel::from_mix(mixes[0], 32, 1.3);
  const SimTime end = SimTime::seconds(20);
  lb.start_tenant_mix(tm, 250, cfg.num_workers, 1.0, end);
  lb.eq().run_until(SimTime::seconds(4));  // warmup
  lb.sample_now();
  const uint64_t done0 = lb.totals().requests_completed;
  lb.start_sampling(SimTime::seconds(1), end);
  lb.eq().run_until(end);

  SimResult r;
  double n = 0;
  for (const auto& s : lb.samples()) {
    if (s.at <= SimTime::seconds(4)) continue;
    r.cpu_sd_pp += s.cpu_sd * 100;
    r.conn_sd += s.conn_sd;
    r.cpu_avg_pct += s.cpu_avg * 100;
    n += 1;
  }
  r.cpu_sd_pp /= n;
  r.conn_sd /= n;
  r.cpu_avg_pct /= n;
  r.krps = static_cast<double>(lb.totals().requests_completed - done0) /
           16.0 / 1000.0;
  return r;
}

int main_impl(int argc, char** argv) {
  BenchJson json("ablation_policy", &argc, argv);
  header("ablation_policy: dispatch cost and hetero-fleet balance per "
         "scheduling policy");

  std::vector<bpf::ReuseportCtx> ctxs(kNumCtxs);
  sim::Rng rng(17);
  for (bpf::ReuseportCtx& c : ctxs) {
    c.hash = static_cast<uint32_t>(rng.next_u64());
    c.hash2 = static_cast<uint32_t>(rng.next_u64());
    c.ip_protocol = 6;
  }

  const core::PolicyConfig pcfg{
      {8, 8, 8, 8, 4, 4, 4, 4}};  // micro: 2x-weighted head

  std::printf("\n%-12s %14s %16s %12s\n", "policy", "ns/dispatch",
              "insns/dispatch", "selections");
  for (size_t k = 0; k < core::kPolicyCount; ++k) {
    const auto kind = static_cast<core::PolicyKind>(k);
    const auto policy = core::make_policy(kind, pcfg);
    const MicroResult m = run_micro(*policy, ctxs);
    const double n = static_cast<double>(kNumCtxs);
    std::printf("%-12s %14.1f %16.1f %12llu\n", policy->name(), m.cost_ns,
                static_cast<double>(m.insns) / n,
                static_cast<unsigned long long>(m.selections));
    const std::string p = policy->name();
    json.metric(p + "_dispatch_cost_ns", m.cost_ns);  // wall-clock, ungated
    json.metric(p + ".insns_per_dispatch",
                static_cast<double>(m.insns) / n);
    json.metric(p + ".selections", static_cast<double>(m.selections));
  }

  std::printf("\nFig. 13-style heterogeneous fleet (workers 0-3 at 2x):\n");
  std::printf("%-12s %12s %12s %12s %10s\n", "policy", "CPU SD(pp)",
              "conn SD", "CPU avg(%)", "kRPS");
  double sd[core::kPolicyCount];
  for (size_t k = 0; k < core::kPolicyCount; ++k) {
    const auto kind = static_cast<core::PolicyKind>(k);
    const SimResult r = run_hetero_sim(kind);
    sd[k] = r.cpu_sd_pp;
    std::printf("%-12s %12.2f %12.1f %12.1f %10.1f\n", core::to_string(kind),
                r.cpu_sd_pp, r.conn_sd, r.cpu_avg_pct, r.krps);
    const std::string p = core::to_string(kind);
    json.metric(p + ".cpu_sd_pp", r.cpu_sd_pp);
    json.metric(p + ".conn_sd", r.conn_sd);
    json.metric(p + ".cpu_avg_pct", r.cpu_avg_pct);
  }

  const double best_aware =
      std::min({sd[1], sd[2], sd[3]});  // p2c, weighted, queue_est
  std::printf("\nshape check: a load-aware policy beats the cascade's CPU "
              "SD on the hetero fleet\n  cascade %.2f pp vs best "
              "load-aware %.2f pp (%s)\n",
              sd[0], best_aware, best_aware < sd[0] ? "OK" : "MISS");
  return 0;
}

}  // namespace
}  // namespace hermes::bench

int main(int argc, char** argv) {
  return hermes::bench::main_impl(argc, argv);
}
