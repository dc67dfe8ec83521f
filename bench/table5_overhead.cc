// Table 5: overhead of Hermes components. Two parts:
//   1. google-benchmark microbenchmarks of the real code paths — counter
//      update (atomic WST write), scheduler (Algo. 1 over 32 workers),
//      decision sync (atomic map store, standing in for the bpf() syscall),
//      and the eBPF dispatcher program execution;
//   2. simulated CPU-share accounting under light/medium/heavy load,
//      mirroring the paper's flame-graph percentages (counter/scheduler/
//      syscall userspace side, dispatcher kernel side).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "core/hermes.h"
#include "obs/observability.h"

using namespace hermes;

namespace {

struct Fixture {
  Fixture() : runtime(make_opts()) {
    const SimTime now = SimTime::millis(1);
    for (WorkerId w = 0; w < 32; ++w) {
      runtime.hooks_for(w).on_loop_enter(now);
      runtime.wst().add_connections(w, static_cast<int64_t>(w) * 3);
      runtime.wst().add_pending(w, static_cast<int64_t>(w) % 5);
    }
    std::vector<uint64_t> cookies;
    for (WorkerId w = 0; w < 32; ++w) cookies.push_back(500 + w);
    attachment = runtime.attach_port(cookies);
    runtime.schedule_and_sync(0, now);
  }
  static core::HermesRuntime::Options make_opts() {
    core::HermesRuntime::Options o;
    o.num_workers = 32;
    return o;
  }
  core::HermesRuntime runtime;
  core::PortAttachment attachment;
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void BM_CounterUpdate(benchmark::State& state) {
  auto& f = fixture();
  auto hooks = f.runtime.hooks_for(5);
  for (auto _ : state) {
    hooks.on_conn_open();
    hooks.on_event_processed();
    hooks.on_conn_close();
  }
  state.SetItemsProcessed(state.iterations() * 3);
}
BENCHMARK(BM_CounterUpdate);

void BM_Scheduler32Workers(benchmark::State& state) {
  auto& f = fixture();
  const SimTime now = SimTime::millis(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.runtime.scheduler().schedule(f.runtime.wst(), now));
  }
}
BENCHMARK(BM_Scheduler32Workers);

void BM_DecisionSync(benchmark::State& state) {
  auto& f = fixture();
  uint64_t bitmap = 0xfffff;
  for (auto _ : state) {
    f.runtime.sel_map().store_u64(0, bitmap);
    ++bitmap;
  }
}
BENCHMARK(BM_DecisionSync);

void BM_ScheduleAndSyncFull(benchmark::State& state) {
  auto& f = fixture();
  const SimTime now = SimTime::millis(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.runtime.schedule_and_sync(7, now));
  }
}
BENCHMARK(BM_ScheduleAndSyncFull);

void BM_DispatcherBpfProgram(benchmark::State& state) {
  auto& f = fixture();
  bpf::ReuseportCtx ctx;
  uint32_t h = 1;
  for (auto _ : state) {
    ctx.hash = h++;
    ctx.selection_made = false;
    benchmark::DoNotOptimize(f.runtime.vm().run(*f.attachment.program, ctx));
  }
}
BENCHMARK(BM_DispatcherBpfProgram);

void BM_DispatcherReferenceCpp(benchmark::State& state) {
  core::DispatchProgramParams params;
  const uint64_t bm = 0xfffffff0ull;
  uint32_t h = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::reference_dispatch(params, &bm, h++, 0));
  }
}
BENCHMARK(BM_DispatcherReferenceCpp);

// Part 2: simulated CPU share of Hermes components per load level.
void print_sim_overhead(bench::BenchJson& json) {
  using namespace hermes::bench;
  header("Table 5 (part 2): CPU share of Hermes components by load");
  std::printf("%-8s | %10s %10s %12s | %11s | %9s\n", "load", "counter",
              "scheduler", "system call", "dispatcher", "supp/pub");
  for (double load : {1.0, 2.0, 3.0}) {
    sim::LbDevice::Config cfg;
    cfg.mode = netsim::DispatchMode::HermesMode;
    cfg.num_workers = 8;
    cfg.num_ports = 32;
    cfg.seed = 4;
    sim::LbDevice lb(cfg);
    const SimTime end = SimTime::seconds(6);
    lb.start_pattern(sim::case_pattern(1, cfg.num_workers, load), 0,
                     cfg.num_ports, end);
    lb.eq().run_until(end);

    // Userspace components: charge measured per-op costs (from part 1's
    // order of magnitude) times observed operation counts.
    const auto& c = lb.hermes()->counters();
    double events = 0;
    for (WorkerId w = 0; w < lb.num_workers(); ++w) {
      events += static_cast<double>(lb.worker(w).requests_done() +
                                    lb.worker(w).accepts_done());
    }
    const double total_core_ns =
        static_cast<double>(end.ns()) * cfg.num_workers;
    // Per-op costs: counter ~15ns x 3 updates/event; dispatcher = bpf
    // insns x ~3ns. Scheduler and syscall are what the simulated cores
    // were charged for Stage 2: the same formula at the group's width.
    const double counter_pct = events * 3 * 15 / total_core_ns * 100;
    const uint32_t width = lb.hermes()->group_width(0);
    const auto stage2_pct = [&](uint64_t schedules, uint64_t publishes) {
      return static_cast<double>(
                 sim::Worker::stage2_cost(cfg.worker, width, schedules,
                                          publishes)
                     .ns()) /
             total_core_ns * 100;
    };
    const double sched_pct = stage2_pct(c.schedules, 0);
    // c.syncs counts only *published* stores: change-suppressed syncs
    // (c.syncs_suppressed) never reach the syscall boundary and are
    // charged nothing here — that is the point of the suppression.
    const double sync_pct = stage2_pct(0, c.syncs);
    uint64_t bpf_insns = 0;
    for (uint32_t p = 0; p < cfg.num_ports; ++p) {
      bpf_insns +=
          lb.netstack()
              .group(static_cast<PortId>(sim::LbDevice::kFirstPort + p))
              ->stats()
              .bpf_insns;
    }
    const double dispatcher_pct =
        static_cast<double>(bpf_insns) * 3 / total_core_ns * 100;
    std::printf("%-8.0f | %9.3f%% %9.3f%% %11.3f%% | %10.3f%% | %llu/%llu\n",
                load, counter_pct, sched_pct, sync_pct, dispatcher_pct,
                static_cast<unsigned long long>(c.syncs_suppressed),
                static_cast<unsigned long long>(c.syncs));
    const std::string prefix = "load" + std::to_string((int)load);
    json.metric(prefix + ".counter_pct", counter_pct);
    json.metric(prefix + ".scheduler_pct", sched_pct);
    json.metric(prefix + ".syscall_pct", sync_pct);
    json.metric(prefix + ".dispatcher_pct", dispatcher_pct);
    json.metric(prefix + ".syncs_published", static_cast<double>(c.syncs));
    json.metric(prefix + ".syncs_suppressed",
                static_cast<double>(c.syncs_suppressed));
  }
  std::printf("\npaper: light 0.122/0.272/0.275 | 0.005; heavy"
              " 0.897/0.531/0.965 | 0.043\nshape: every component stays"
              " well under 1%% and grows with load;\ndispatcher is the"
              " cheapest.\n");
}

// Part 3: cost of the observability layer itself (ISSUE 3's version of the
// Table 5 claim). Time the instrumented hot path — worker hooks plus
// schedule_and_sync, the loop every worker runs — with observability on and
// off, and report the relative overhead. The bench gate holds this under
// 5%; the sharded relaxed-atomic counters and the per-worker trace ring
// writes are a handful of nanoseconds against a ~32-worker filter scan.
// ---- part 3: observability-layer overhead ------------------------------
//
// The gated number uses the SAME accounting as part 2's component shares:
// measured per-operation cost x exact operation counts from a
// deterministic sim run, divided by total core time. Per-op costs come
// from timed tight loops over the real Counter/LogHistogram/TraceRing
// code; op counts are read back from the metrics themselves (the registry
// counts its own updates by construction).
//
// Why not gate on an end-to-end obs-on vs obs-off wall/CPU diff? We tried:
// the diff is hostage to heap- and code-layout luck — allocating the
// registry early shifts every later sim allocation, and the measured
// "overhead" swings between -5% and +9% across otherwise identical
// builds. A budget gate needs a signal whose noise is well under the 5%
// budget; per-op x count is that signal (per-op ns are stable to ~10% and
// the total sits near 0.1% of core time, three orders below the budget).
// The end-to-end diff is still printed as a diagnostic.
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

struct ObsOverhead {
  double pct = 0;          // gated: instrumentation share of core time
  double counter_ns = 0;   // per-op costs (diagnostics)
  double hist_ns = 0;
  double trace_ns = 0;
  double timer_ns = 0;     // steady_clock pair + ns-counter add (sched slice)
  uint64_t counter_ops = 0;
  uint64_t hist_ops = 0;
  uint64_t trace_ops = 0;
  uint64_t timer_ops = 0;
};

ObsOverhead measure_obs_overhead() {
  ObsOverhead r;

  // Per-op costs of the real instrumentation primitives (single writer,
  // shards cycling like a real worker set).
  constexpr int kIters = 2'000'000;
  {
    obs::Counter c(8);
    r.counter_ns = ns_per_op([&](int i) { c.add(i & 7, 1); }, kIters);
  }
  {
    obs::LogHistogram h(8, 3);
    r.hist_ns = ns_per_op(
        [&](int i) {
          h.record(i & 7, static_cast<uint64_t>(i) * 2654435761u);
        },
        kIters);
  }
  {
    obs::TraceRing ring(4096);
    r.trace_ns = ns_per_op(
        [&](int i) {
          obs::TraceEvent ev;
          ev.t_ns = i;
          ev.type = 1;
          ev.worker = static_cast<uint16_t>(i & 7);
          ev.a = static_cast<uint32_t>(i);
          ev.b = static_cast<uint64_t>(i) * 3;
          ev.c = ~static_cast<uint64_t>(i);
          ring.write(ev);
        },
        kIters);
  }
  {
    // sched.fast_path_ns is not an op count — its VALUE is nanoseconds.
    // What obs pays for it is one steady_clock timing pair plus the
    // counter add per schedule_and_sync (hermes.cc), so measure exactly
    // that composite and charge it per filter run below.
    obs::Counter c(8);
    r.timer_ns = ns_per_op(
        [&](int i) {
          const auto t0 = std::chrono::steady_clock::now();
          benchmark::DoNotOptimize(t0);
          const auto dt = std::chrono::steady_clock::now() - t0;
          c.add(i & 7,
                static_cast<uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                        .count()));
        },
        kIters);
  }

  // Exact op counts from a deterministic pipeline run with obs on.
  sim::LbDevice::Config cfg;
  cfg.mode = netsim::DispatchMode::HermesMode;
  cfg.num_workers = 8;
  cfg.num_ports = 32;
  cfg.seed = 4;
  cfg.observability = true;
  sim::LbDevice lb(cfg);
  const SimTime end = SimTime::seconds(4);
  lb.start_pattern(sim::case_pattern(1, cfg.num_workers, 2.0), 0,
                   cfg.num_ports, end);
  lb.eq().run_until(end);

  const obs::PipelineMetrics& m = lb.obs()->metrics;
  for (const obs::Counter* c :
       {m.wst_avail_updates, m.wst_pending_updates, m.wst_conn_updates,
        m.filter_runs, m.filter_after_time, m.filter_after_conn,
        m.filter_after_event, m.filter_low_survivor, m.sync_published,
        m.sync_dropped, m.dispatch_picks, m.dispatch_bpf,
        m.dispatch_fallback, m.dispatch_hash, m.bpf_tier_dispatches[0],
        m.bpf_tier_dispatches[1], m.bpf_tier_dispatches[2],
        m.bpf_tier_dispatches[3], m.bpf_fused_ops,
        m.bpf_elided_checks, m.accept_enqueued,
        m.accept_dropped, m.sched_syncs_suppressed,
        // L7 data-plane counters: all zero here (data plane disabled in
        // this run), included so the accounting stays complete if a
        // future run enables it.
        m.http_requests_forwarded, m.http_bytes_zero_copied,
        m.http_bytes_copied, m.pool_hits, m.pool_misses, m.pool_expiries,
        m.ratelimit_drops}) {
    r.counter_ops += c->value();
  }
  // sched.fast_path_ns accumulates NANOSECONDS, so its value() is not an
  // op count. It is updated once per schedule (= once per filter run);
  // charge that many timing-pair composites instead.
  r.timer_ops = m.filter_runs->value();
  r.hist_ops = m.filter_selected->snapshot().count +
               m.sync_gap_ns->snapshot().count +
               m.accept_depth->snapshot().count +
               lb.obs()
                   ->registry.histogram("request.latency_ns")
                   .snapshot()
                   .count;
  for (WorkerId w = 0; w < cfg.num_workers; ++w) {
    r.trace_ops += lb.obs()->traces.ring(w).written();
  }

  const double total_core_ns =
      static_cast<double>(end.ns()) * cfg.num_workers;
  const double obs_ns = static_cast<double>(r.counter_ops) * r.counter_ns +
                        static_cast<double>(r.hist_ops) * r.hist_ns +
                        static_cast<double>(r.trace_ops) * r.trace_ns +
                        static_cast<double>(r.timer_ops) * r.timer_ns;
  r.pct = obs_ns / total_core_ns * 100.0;
  return r;
}

// Diagnostic only: end-to-end CPU-time diff of the identical seeded sim
// with observability on vs off (see the layout-noise caveat above).
double measure_e2e_cpu_diff_pct() {
  constexpr int kReps = 3;
  const auto run_once = [](bool obs_on) {
    sim::LbDevice::Config cfg;
    cfg.mode = netsim::DispatchMode::HermesMode;
    cfg.num_workers = 8;
    cfg.num_ports = 32;
    cfg.seed = 4;
    cfg.observability = obs_on;
    sim::LbDevice lb(cfg);
    const SimTime end = SimTime::seconds(2);
    lb.start_pattern(sim::case_pattern(1, cfg.num_workers, 2.0), 0,
                     cfg.num_ports, end);
    const double start = cpu_seconds();
    lb.eq().run_until(end);
    return cpu_seconds() - start;
  };

  run_once(false);  // warmup
  run_once(true);
  double best_off = 1e300, best_on = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    best_off = std::min(best_off, run_once(false));
    best_on = std::min(best_on, run_once(true));
  }
  return 100.0 * (best_on - best_off) / best_off;
}

// Diagnostic only (printed, not gated): the same comparison on the
// scheduler slice alone, where the densest instrumentation (filter
// histogram, sync trace events) sits.
double measure_sched_slice_overhead_pct() {
  constexpr int kIters = 40'000;
  constexpr int kReps = 7;
  const auto run_once = [](obs::Observability* obs) {
    core::HermesRuntime::Options o;
    o.num_workers = 32;
    o.obs = obs;
    core::HermesRuntime rt(o);
    const SimTime t0 = SimTime::millis(1);
    for (WorkerId w = 0; w < 32; ++w) {
      rt.hooks_for(w).on_loop_enter(t0);
      rt.wst().add_connections(w, static_cast<int64_t>(w) * 3);
    }
    auto hooks = rt.hooks_for(5);
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kIters; ++i) {
      hooks.on_conn_open();
      hooks.on_event_processed();
      hooks.on_conn_close();
      benchmark::DoNotOptimize(
          rt.schedule_and_sync(5, t0 + SimTime::micros(i)));
    }
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(stop - start).count();
  };

  double best_off = 1e300, best_on = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    best_off = std::min(best_off, run_once(nullptr));
    obs::Observability obs(32);
    best_on = std::min(best_on, run_once(&obs));
  }
  return 100.0 * (best_on - best_off) / best_off;
}

void print_obs_overhead(bench::BenchJson& json) {
  bench::header("Table 5 (part 3): observability-layer overhead");
  const ObsOverhead o = measure_obs_overhead();
  std::printf("per-op: counter %.2f ns, histogram %.2f ns, trace %.2f ns,"
              " sched timer %.2f ns\n",
              o.counter_ns, o.hist_ns, o.trace_ns, o.timer_ns);
  std::printf("ops (case-1 sim, 8 workers, load 2.0, 4 s): %llu counter,"
              " %llu histogram, %llu trace, %llu sched timer\n",
              static_cast<unsigned long long>(o.counter_ops),
              static_cast<unsigned long long>(o.hist_ops),
              static_cast<unsigned long long>(o.trace_ops),
              static_cast<unsigned long long>(o.timer_ops));
  std::printf("instrumentation share of core time: %.4f%% (budget < 5%%)\n",
              o.pct);
  std::printf("end-to-end CPU diff, obs on vs off: %+.2f%% [diagnostic:"
              " layout-noise dominated]\n",
              measure_e2e_cpu_diff_pct());
  std::printf("scheduler slice alone (hooks + schedule_and_sync, 32"
              " workers): %+.2f%% [diagnostic]\n",
              measure_sched_slice_overhead_pct());
  json.metric("obs_overhead_pct", o.pct);
  json.metric("obs_counter_cost_ns", o.counter_ns);
  json.metric("obs_histogram_cost_ns", o.hist_ns);
  json.metric("obs_trace_cost_ns", o.trace_ns);
  json.metric("obs_sched_timer_cost_ns", o.timer_ns);
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchJson json("table5_overhead", &argc, argv);
  benchmark::Initialize(&argc, argv);
  std::printf("Table 5 (part 1): microbenchmarks of the real Hermes code"
              " paths\n");
  benchmark::RunSpecifiedBenchmarks();
  print_sim_overhead(json);
  print_obs_overhead(json);
  return 0;
}
