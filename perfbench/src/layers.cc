// Reading the program's public counters, the invariants over them, and the
// per-layer metric rows built from them.
#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "workloads.h"

namespace perfbench {

using hermes::sim::LbDevice;

Counts read_counts(LbDevice& lb) {
  Counts c;
  const LbDevice::Totals& t = lb.totals();
  c.requests_completed = t.requests_completed;
  c.requests_generated = t.requests_generated;
  c.conns_opened = t.conns_opened;
  c.conns_dropped = t.conns_dropped;
  c.rate_limited = t.rate_limited;

  for (hermes::PortId port : lb.netstack().ports()) {
    const hermes::netsim::ReuseportGroup* g = lb.netstack().group(port);
    if (g == nullptr) continue;
    const auto& s = g->stats();
    c.bpf_selections += s.bpf_selections;
    c.bpf_fallbacks += s.bpf_fallbacks;
    c.hash_selections += s.hash_selections;
    c.bpf_insns += s.bpf_insns;
  }
  if (hermes::core::HermesRuntime* h = lb.hermes()) {
    const auto& hc = h->counters();
    c.schedules = hc.schedules;
    c.syncs = hc.syncs;
    c.syncs_suppressed = hc.syncs_suppressed;
    c.workers_selected_sum = hc.workers_selected_sum;
    c.group_slots =
        hc.schedules * std::min(h->workers_per_group(), h->num_workers());
  }
  if (hermes::obs::Observability* o = lb.obs()) {
    const auto& m = o->metrics;
    const auto lat = o->registry.histogram("request.latency_ns").snapshot();
    c.latency_count = lat.count;
    c.latency_buckets = lat.buckets;
    c.sched_fast_path_ns = m.sched_fast_path_ns->value();
    c.filter_runs = m.filter_runs->value();
    c.wst_updates = m.wst_avail_updates->value() +
                    m.wst_pending_updates->value() +
                    m.wst_conn_updates->value();
    c.accept_dropped = m.accept_dropped->value();
    for (size_t i = 0; i < 4; ++i) {
      c.tier_dispatches[i] = m.bpf_tier_dispatches[i]->value();
    }
    c.accept_depth = m.accept_depth->snapshot();
  }
  for (hermes::WorkerId w = 0; w < lb.num_workers(); ++w) {
    c.loop_iterations += lb.worker(w).loop_iterations();
    c.wasted_wakeups += lb.worker(w).wasted_wakeups();
    c.requests_done += lb.worker(w).requests_done();
  }
  if (const hermes::sim::DataPlane* plane = lb.data_plane()) {
    c.data_plane = true;
    c.zero_copy = plane->config().zero_copy;
    c.dp = plane->totals();
  }
  return c;
}

void Counts::check(Report& r, const std::string& who) const {
  auto expect_eq = [&](uint64_t a, uint64_t b, const char* what) {
    if (a == b) return;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s: %s (%" PRIu64 " != %" PRIu64 ")",
                  who.c_str(), what, a, b);
    r.check(false, buf);
  };
  expect_eq(latency_count, requests_completed,
            "obs request.latency_ns count == requests completed");
  expect_eq(bpf_selections + bpf_fallbacks + hash_selections,
            conns_opened + conns_dropped,
            "dispatch selections + fallbacks == SYNs reaching select");
  if (data_plane) {
    expect_eq(dp.requests_forwarded, requests_generated,
              "data-plane forwarded == requests generated");
    expect_eq(dp.responses_returned, requests_completed,
              "data-plane responses == requests completed");
    expect_eq(dp.pool_hits + dp.pool_misses, dp.requests_forwarded,
              "pool hits + misses == forwarded");
    expect_eq(dp.parse_errors, 0, "parse errors == 0");
    if (zero_copy) expect_eq(dp.bytes_copied, 0, "zero-copy bytes copied == 0");
  }
}

void Counts::digest_into(Digest& d) const {
  for (uint64_t v :
       {requests_completed, requests_generated, conns_opened, conns_dropped,
        rate_limited, bpf_selections, bpf_fallbacks, hash_selections,
        bpf_insns, schedules, syncs, syncs_suppressed, workers_selected_sum,
        filter_runs, wst_updates, accept_dropped, loop_iterations,
        wasted_wakeups, requests_done, dp.requests_forwarded,
        dp.responses_returned, dp.bytes_in, dp.bytes_out, dp.pool_hits,
        dp.pool_misses, dp.backend_stream_hash, dp.client_stream_hash}) {
    d.add(v);
  }
  for (uint64_t b : latency_buckets) d.add(b);
  for (uint64_t b : accept_depth.buckets) d.add(b);
}

void Layers::from_counts(const Counts& c, uint64_t allocs,
                         uint64_t alloc_bytes) {
  const double reqs = static_cast<double>(c.requests_completed);
  const double dispatches =
      static_cast<double>(c.bpf_selections + c.bpf_fallbacks);
  netsim_accept_depth_p99 = static_cast<double>(c.accept_depth.quantile(0.99));
  netsim_backlog_drops = static_cast<double>(c.accept_dropped);
  bpf_dispatches_per_req = ratio(dispatches, reqs);
  bpf_insns_per_dispatch = ratio(static_cast<double>(c.bpf_insns), dispatches);
  bpf_fallback_pct = 100 * ratio(static_cast<double>(c.bpf_fallbacks),
                                 dispatches);
  for (int t = 0; t < 4; ++t) {
    if (c.tier_dispatches[t] != 0) bpf_tier = t;
  }
  core_schedules_per_req = ratio(static_cast<double>(c.schedules), reqs);
  core_sched_ns = ratio(static_cast<double>(c.sched_fast_path_ns),
                        static_cast<double>(c.filter_runs));
  core_sync_publish_pct =
      100 * ratio(static_cast<double>(c.syncs),
                  static_cast<double>(c.syncs + c.syncs_suppressed));
  core_pass_ratio_pct =
      100 * ratio(static_cast<double>(c.workers_selected_sum),
                  static_cast<double>(c.group_slots));
  core_wst_updates_per_req = ratio(static_cast<double>(c.wst_updates), reqs);
  sim_loop_iters_per_req = ratio(static_cast<double>(c.loop_iterations), reqs);
  sim_wasted_wakeups_pct =
      100 * ratio(static_cast<double>(c.wasted_wakeups),
                  static_cast<double>(c.loop_iterations));
  sim_allocs_per_req = ratio(static_cast<double>(allocs), reqs);
  sim_alloc_bytes_per_req = ratio(static_cast<double>(alloc_bytes), reqs);
  if (c.data_plane) {
    const double fwd = static_cast<double>(c.dp.requests_forwarded);
    const double moved =
        static_cast<double>(c.dp.bytes_zero_copied + c.dp.bytes_copied);
    http_fwd_per_req = ratio(fwd, reqs);
    http_bytes_per_req = ratio(moved, reqs);
    http_zero_copy_pct =
        100 * ratio(static_cast<double>(c.dp.bytes_zero_copied), moved);
    http_pool_hit_pct =
        100 * ratio(static_cast<double>(c.dp.pool_hits),
                    static_cast<double>(c.dp.pool_hits + c.dp.pool_misses));
    http_parse_errors = static_cast<double>(c.dp.parse_errors);
  }
}

void Layers::emit(Report& r) const {
  r.metric("simcore.pending_peak", simcore_pending_peak, "count");
  r.metric("simcore.event_ns", simcore_event_ns, "ns");
  r.metric("netsim.admit_ns", netsim_admit_ns, "ns");
  r.metric("netsim.admit_self_ns", netsim_admit_self_ns, "ns");
  r.metric("netsim.accept_depth_p99", netsim_accept_depth_p99, "count");
  r.metric("netsim.backlog_drops", netsim_backlog_drops, "count");
  r.metric("netsim.live_conns_peak", netsim_live_conns_peak, "count");
  r.metric("bpf.dispatches_per_req", bpf_dispatches_per_req, "count");
  r.metric("bpf.insns_per_dispatch", bpf_insns_per_dispatch, "count");
  r.metric("bpf.fallback_pct", bpf_fallback_pct, "%");
  r.metric("bpf.dispatch_ns", bpf_dispatch_ns, "ns");
  r.metric("bpf.load_ms", bpf_load_ms, "ms");
  r.metric("bpf.tier", bpf_tier, "tier");
  r.metric("core.schedules_per_req", core_schedules_per_req, "count");
  r.metric("core.sched_ns", core_sched_ns, "ns");
  r.metric("core.sync_publish_pct", core_sync_publish_pct, "%");
  r.metric("core.pass_ratio_pct", core_pass_ratio_pct, "%");
  r.metric("core.wst_updates_per_req", core_wst_updates_per_req, "count");
  r.metric("sim.loop_iters_per_req", sim_loop_iters_per_req, "count");
  r.metric("sim.wasted_wakeups_pct", sim_wasted_wakeups_pct, "%");
  r.metric("sim.run_ns_per_req", sim_run_ns_per_req, "ns");
  r.metric("sim.allocs_per_req", sim_allocs_per_req, "count");
  r.metric("sim.alloc_bytes_per_req", sim_alloc_bytes_per_req, "B");
  r.metric("http.fwd_per_req", http_fwd_per_req, "count");
  r.metric("http.bytes_per_req", http_bytes_per_req, "B");
  r.metric("http.zero_copy_pct", http_zero_copy_pct, "%");
  r.metric("http.pool_hit_pct", http_pool_hit_pct, "%");
  r.metric("http.parse_errors", http_parse_errors, "count");
  r.metric("http.request_ns", http_request_ns, "ns");
  r.metric("sim.unattributed_pct", sim_unattributed_pct, "%");
  r.metric("sim.trace_overhead_pct", sim_trace_overhead_pct, "%");
}

double Ledger::print(const Layers& l) const {
  // Admission spans are measured directly; inside them the dispatch
  // program's share comes from the replayed select cost. Inside the
  // run_until spans only counts x replayed costs are attributable.
  const double bpf = std::min(admit_ns, dispatches * l.bpf_dispatch_ns);
  const double simcore = events * l.simcore_event_ns;
  const double core = schedules * l.core_sched_ns;
  const double http = forwards * l.http_request_ns;
  const double attributed = admit_ns + simcore + core + http;
  const double unattributed = window_ns - attributed;
  const double reqs = requests > 0 ? static_cast<double>(requests) : 1;

  std::printf("ledger (traced repetition, %" PRIu64 " requests, %.3f s):\n",
              requests, window_ns / 1e9);
  std::printf("  %-34s %12s %8s\n", "row", "ns/request", "share");
  auto row = [&](const char* name, double ns) {
    std::printf("  %-34s %12.1f %7.1f%%\n", name, ns / reqs,
                100 * ratio(ns, window_ns));
  };
  row("netsim admit (span, excl. bpf)", admit_ns - bpf);
  row("bpf dispatch (count x replay)", bpf);
  row("simcore events (count x replay)", simcore);
  row("core schedule (obs counter)", core);
  row("http request (count x replay)", http);
  row("unattributed (sim loop, glue)", unattributed);
  row("  of which outside spans", window_ns - admit_ns - run_ns);
  return 100 * ratio(unattributed, window_ns);
}

}  // namespace perfbench
