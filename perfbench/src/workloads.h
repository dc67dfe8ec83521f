// The benchmark's workloads and what one repetition of each reports.
//
// A workload is a fixed simulated scenario derived from --seed. main.cc
// repeats it until the wall-clock budget is spent; every repeat of one seed
// must reproduce the same simulated results (Rep::digest) bit for bit.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "obs/metrics.h"
#include "sim/lb.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;  // shrunken scenarios for the package's own test
};

// Counters read from the program's public stats and obs registry after a
// repetition.
struct Counts {
  uint64_t requests_completed = 0;
  uint64_t requests_generated = 0;
  uint64_t conns_opened = 0;
  uint64_t conns_dropped = 0;
  uint64_t rate_limited = 0;
  uint64_t bpf_selections = 0;
  uint64_t bpf_fallbacks = 0;
  uint64_t hash_selections = 0;
  uint64_t bpf_insns = 0;
  uint64_t schedules = 0;
  uint64_t syncs = 0;
  uint64_t syncs_suppressed = 0;
  uint64_t workers_selected_sum = 0;
  uint64_t group_slots = 0;  // schedules x workers each schedule examines
  uint64_t latency_count = 0;  // obs request.latency_ns samples
  uint64_t sched_fast_path_ns = 0;
  uint64_t filter_runs = 0;
  uint64_t wst_updates = 0;
  uint64_t accept_dropped = 0;
  uint64_t tier_dispatches[4] = {};
  uint64_t loop_iterations = 0;
  uint64_t wasted_wakeups = 0;
  uint64_t requests_done = 0;
  bool data_plane = false;
  bool zero_copy = false;
  hermes::sim::DataPlane::Totals dp{};
  std::vector<uint64_t> latency_buckets;  // obs request.latency_ns
  hermes::obs::LogHistogram::Snapshot accept_depth{};

  // The invariants any seed must satisfy; each breach is one failure.
  void check(Report& report, const std::string& who) const;
  void digest_into(Digest& d) const;
  // Simulated events fired, reconstructed from the worker-loop counters:
  // per iteration a wakeup and a batch start, per processed event one
  // completion, and per follow-up request one think-gap timer.
  uint64_t events() const {
    return 2 * loop_iterations + requests_done + requests_generated;
  }
};
Counts read_counts(hermes::sim::LbDevice& lb);

// One repetition of a workload's scenario.
struct Rep {
  double window_s = 0;           // wall clock of the measured window
  uint64_t requests = 0;         // simulated requests completed in it
  uint64_t conns = 0;            // simulated connections established
  uint64_t syns = 0;             // SYNs attempted
  uint64_t failures = 0;         // drops, refusals, parse errors
  // Wall ms of consecutive slices of simulated time covering the window;
  // [steady_begin, steady_end) are the steady-state slices of fixed length.
  std::vector<double> slice_ms;
  size_t steady_begin = 0;
  size_t steady_end = 0;
  uint64_t digest = 0;
  double sim_p50_ms = 0;
  double sim_p99_ms = 0;
  double sim_krps = 0;
  double sim_cpu_sd_pp = 0;
};

// Per-layer metrics of a traced run. Every field prints on every workload;
// a layer the workload never reaches reads 0.
struct Layers {
  double simcore_pending_peak = 0;
  double simcore_event_ns = 0;
  double netsim_admit_ns = 0;
  double netsim_admit_self_ns = 0;
  double netsim_accept_depth_p99 = 0;
  double netsim_backlog_drops = 0;
  double netsim_live_conns_peak = 0;
  double bpf_dispatches_per_req = 0;
  double bpf_insns_per_dispatch = 0;
  double bpf_fallback_pct = 0;
  double bpf_dispatch_ns = 0;
  double bpf_load_ms = 0;
  double bpf_tier = 0;
  double core_schedules_per_req = 0;
  double core_sched_ns = 0;
  double core_sync_publish_pct = 0;
  double core_pass_ratio_pct = 0;
  double core_wst_updates_per_req = 0;
  double sim_loop_iters_per_req = 0;
  double sim_wasted_wakeups_pct = 0;
  double sim_run_ns_per_req = 0;
  double sim_allocs_per_req = 0;
  double sim_alloc_bytes_per_req = 0;
  double http_fwd_per_req = 0;
  double http_bytes_per_req = 0;
  double http_zero_copy_pct = 0;
  double http_pool_hit_pct = 0;
  double http_parse_errors = 0;
  double http_request_ns = 0;
  double sim_unattributed_pct = 0;
  double sim_trace_overhead_pct = 0;

  // Counts-derived rows shared by every workload.
  void from_counts(const Counts& c, uint64_t allocs, uint64_t alloc_bytes);
  void emit(Report& report) const;
};

// The ledger of a traced repetition: measured spans around the benchmark's
// calls into the program, and counts x replayed per-call costs inside them.
struct Ledger {
  uint64_t requests = 0;  // completed in the window
  double window_ns = 0;   // whole measured window
  double admit_ns = 0;    // spans around open_connection
  double run_ns = 0;      // spans around run_until
  double events = 0;
  double schedules = 0;
  double forwards = 0;
  double dispatches = 0;

  // Prints the per-layer rows and returns the unattributed share (%).
  double print(const Layers& l) const;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Build the system and arm the arrivals: everything up to the first
  // simulated event. Timed as setup_s.
  virtual void setup() = 0;
  // Run the measured window and return the repetition's results; checks
  // go to `report`. `traced` adds the outside-in spans and samples.
  virtual Rep run(bool traced, Report& report) = 0;
  virtual void teardown() = 0;
  // Traced runs only: counts from the last traced repetition plus the
  // isolated replays of each layer's public call.
  virtual Layers layers(Ledger* ledger) = 0;
};

std::unique_ptr<Workload> make_device_workload(const Options& opt);

// ---- isolated replays of single public calls (replay.cc) ----------------
// Schedule + fire on a standalone EventQueue held at `depth` pending events,
// with delays drawn from `delay_us`.
double replay_event_ns(size_t depth, const hermes::sim::DistSpec& delay_us,
                       uint64_t seed);
// ReuseportGroup::select on `lb`'s first port over workload-shaped tuples,
// with M_sel set to each of the sampled bitmaps in turn.
double replay_dispatch_ns(hermes::sim::LbDevice& lb,
                          const std::vector<uint64_t>& bitmaps, uint64_t seed);
// HermesRuntime::attach_port on a standalone runtime (median, ms).
double replay_load_ms(uint32_t workers);
// DataPlane::on_request + on_response on a standalone data plane with
// request sizes drawn from `bytes`.
double replay_request_ns(const hermes::sim::DataPlane::Config& cfg,
                         uint32_t workers, const hermes::sim::DistSpec& bytes,
                         uint64_t seed);

}  // namespace perfbench
