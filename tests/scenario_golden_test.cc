// Golden scenario corpus: a refactor that claims to leave behaviour alone
// must leave every one of these runs bit-identical.
//
// Each scenario is a short seeded run (at most 2 simulated seconds) that
// covers one path end to end: every dispatch mode's wakeup on case 1, every
// non-Hermes mode on case 3's long-lived connections, the byte-level data
// plane, each dispatch policy, narrow Hermes groups, a device wider than
// one 64-worker group, a hung worker with the degradation sweep, and a
// fleet with a drain and a tenant pin. After the run the test digests, per
// metric family:
//
//   * every registry counter shard, gauge and histogram shard (buckets,
//     count, sum, max), grouped by the name's first component (accept,
//     bpf, dispatch, ...); the wall-clock sched.fast_path_ns is skipped;
//   * "totals": LbDevice::Totals and the delayed-probe count;
//   * "workers": per-worker busy time, loop, request, accept and
//     wasted-wakeup counts, live connections;
//   * "latency": the device's request-latency histogram buckets;
//   * "dataplane" and "streams": DataPlane::Totals and its two chained
//     stream digests;
//   * "fleet": the fleet's own counts (fleet scenario only).
//
// NetStack::Stats is left out: it counts kernel-side notifications whose
// meaning is not part of the simulated outcome.
//
// The expected lines live in tests/golden/scenarios.txt, one per scenario,
// sorted by name. Every run writes its actual line to
// scenarios.actual/<name>.txt in the test's working directory; TESTING.md
// says how a behaviour-changing change regenerates the golden file from
// those.
//
// BusyClockTest runs the same scenarios once more, checking every
// millisecond that no worker was busy for longer than the time that
// passed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "netsim/iobuf.h"
#include "sim/fleet.h"
#include "sim/lb.h"

namespace hermes::sim {
namespace {

// Appends decimal values to per-family strings; each family is hashed
// once at the end.
class Digest {
 public:
  void add(const std::string& family, uint64_t v) {
    std::string& s = text_[family];
    s += std::to_string(v);
    s += ',';
  }
  void add_label(const std::string& family, const std::string& label) {
    std::string& s = text_[family];
    s += label;
    s += ':';
  }
  void add_hist(const std::string& family, const obs::Histogram& h) {
    add(family, h.count);
    add(family, h.sum);
    add(family, h.max);
    add(family, h.sub_bits);
    // Sparse buckets: index and count of every non-empty bucket.
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      if (h.buckets[i] == 0) continue;
      add(family, i);
      add(family, h.buckets[i]);
    }
  }

  // "family=hash family=hash ..." in family order.
  std::string line() const {
    std::string out;
    for (const auto& [family, text] : text_) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%016" PRIx64,
                    netsim::digest_bytes(text));
      if (!out.empty()) out += ' ';
      out += family;
      out += '=';
      out += buf;
    }
    return out;
  }

 private:
  std::map<std::string, std::string> text_;
};

// Names of one section ("counters", "gauges", "histograms") of
// Registry::to_json: the keys at depth one inside that section's object.
std::vector<std::string> json_section_keys(const std::string& json,
                                           const std::string& section) {
  std::vector<std::string> keys;
  const std::string open = "\"" + section + "\":{";
  size_t i = json.find(open);
  if (i == std::string::npos) return keys;
  i += open.size();
  int depth = 1;
  while (i < json.size() && depth > 0) {
    const char c = json[i];
    if (c == '{') {
      ++depth;
      ++i;
    } else if (c == '}') {
      --depth;
      ++i;
    } else if (c == '"') {
      const size_t end = json.find('"', i + 1);
      const std::string s = json.substr(i + 1, end - i - 1);
      i = end + 1;
      if (depth == 1 && i < json.size() && json[i] == ':') keys.push_back(s);
    } else {
      ++i;
    }
  }
  return keys;
}

std::string family_of(const std::string& metric) {
  return metric.substr(0, metric.find('.'));
}

// Wall-clock metrics differ run to run; they are skipped by name.
bool wall_clock(const std::string& metric) {
  return metric == "sched.fast_path_ns";
}

void digest_registry(Digest& d, obs::Registry& reg) {
  const std::string json = reg.to_json();
  for (const std::string& name : json_section_keys(json, "counters")) {
    if (wall_clock(name)) continue;
    const obs::Counter& c = reg.counter(name);
    d.add_label(family_of(name), name);
    for (uint32_t s = 0; s < c.shards(); ++s) {
      d.add(family_of(name), c.shard_value(s));
    }
  }
  for (const std::string& name : json_section_keys(json, "gauges")) {
    if (wall_clock(name)) continue;
    d.add_label(family_of(name), name);
    d.add(family_of(name), static_cast<uint64_t>(reg.gauge(name).value()));
  }
  for (const std::string& name : json_section_keys(json, "histograms")) {
    if (wall_clock(name)) continue;
    const obs::LogHistogram& h = reg.histogram(name);
    d.add_label(family_of(name), name);
    for (uint32_t s = 0; s < h.shards(); ++s) {
      d.add_hist(family_of(name), h.shard_snapshot(s));
    }
  }
}

void digest_device(Digest& d, LbDevice& lb) {
  if (lb.obs() != nullptr) digest_registry(d, lb.obs()->registry);

  const LbDevice::Totals& t = lb.totals();
  for (uint64_t v : {t.conns_opened, t.conns_dropped, t.requests_completed,
                     t.requests_generated, t.degradation_resets,
                     t.syn_retransmits, t.rate_limited, lb.delayed_probes(),
                     lb.live_connections()}) {
    d.add("totals", v);
  }

  for (WorkerId w = 0; w < lb.num_workers(); ++w) {
    Worker& wk = lb.worker(w);
    for (uint64_t v :
         {static_cast<uint64_t>(wk.busy_time().ns()), wk.loop_iterations(),
          wk.requests_done(), wk.accepts_done(), wk.wasted_wakeups(),
          static_cast<uint64_t>(wk.live_connections())}) {
      d.add("workers", v);
    }
  }

  // The first take covers the whole run: no scenario takes one earlier.
  d.add_hist("latency", lb.take_window_latency());

  if (lb.data_plane() != nullptr) {
    const DataPlane::Totals dt = lb.data_plane()->totals();
    for (uint64_t v : {dt.requests_forwarded, dt.responses_returned,
                       dt.bytes_in, dt.bytes_out, dt.bytes_zero_copied,
                       dt.bytes_copied, dt.pool_hits, dt.pool_misses,
                       dt.pool_expiries, dt.pool_evictions,
                       dt.parse_errors}) {
      d.add("dataplane", v);
    }
    d.add("streams", dt.backend_stream_hash);
    d.add("streams", dt.client_stream_hash);
  }
}

// ---- scenarios --------------------------------------------------------

// Called on every device a scenario builds, before it runs (may be empty).
using Watch = std::function<void(LbDevice&)>;

void watch_device(const Watch& watch, LbDevice& lb) {
  if (watch) watch(lb);
}

constexpr uint32_t kWorkers = 8;
constexpr uint32_t kPorts = 32;

LbDevice::Config device_config(netsim::DispatchMode mode) {
  LbDevice::Config cfg;
  cfg.mode = mode;
  cfg.num_workers = kWorkers;
  cfg.num_ports = kPorts;
  cfg.seed = 7;
  return cfg;
}

// simctl's shape: one case pattern over every port for `seconds`, then a
// quarter second of drain so in-flight requests finish.
std::string run_case(LbDevice::Config cfg, int case_id, double seconds,
                     const Watch& watch) {
  LbDevice lb(cfg);
  watch_device(watch, lb);
  const SimTime end = SimTime::from_seconds_f(seconds);
  lb.start_pattern(case_pattern(case_id, cfg.num_workers, 1.0), 0,
                   cfg.num_ports, end);
  lb.eq().run_until(end + SimTime::millis(250));
  Digest d;
  digest_device(d, lb);
  return d.line();
}

// Case 1 for one second; case 3's connections are sparser, so two.
std::string run_mode(netsim::DispatchMode mode, int case_id,
                     const Watch& watch) {
  return run_case(device_config(mode), case_id, case_id == 3 ? 2.0 : 1.0,
                  watch);
}

std::string run_policy(core::PolicyKind kind, const Watch& watch) {
  LbDevice::Config cfg = device_config(netsim::DispatchMode::HermesMode);
  cfg.policy = kind;
  // Unequal cores, so the weighted policy's capacity weights differ.
  cfg.worker_speeds = {1.0, 1.0, 2.0, 1.0, 0.5, 1.0, 1.5, 1.0};
  return run_case(cfg, 1, 1.0, watch);
}

// Hermes with poison requests that wedge workers for up to 0.6 s, a
// periodic degradation sweep, and a short backlog: case 1's connection
// rate overflows a wedged worker's socket before the closed loop steers
// around it, and case 3's long-lived connections give the sweep something
// to reset.
std::string run_hang_degradation(const Watch& watch) {
  LbDevice::Config cfg = device_config(netsim::DispatchMode::HermesMode);
  cfg.backlog = 8;
  cfg.hermes.degradation_after = SimTime::millis(150);
  cfg.hermes.degradation_reset_fraction = 0.5;
  LbDevice lb(cfg);
  watch_device(watch, lb);
  const SimTime end = SimTime::millis(1500);
  for (int case_id : {1, 3}) {
    TrafficPattern p = case_pattern(case_id, kWorkers, 1.0);
    p.poison_fraction = 0.0005;
    p.poison_cost_us = DistSpec::uniform(200'000, 600'000);
    lb.start_pattern(p, 0, kPorts, end);
  }
  for (int t = 1; t <= 15; ++t) {
    lb.eq().schedule_at(SimTime::millis(100 * t),
                        [&lb] { lb.run_degradation_sweep(); });
  }
  // Per-core probes on two workers every 100 ms.
  for (int t = 1; t <= 14; ++t) {
    lb.eq().schedule_at(SimTime::millis(100 * t), [&lb, t] {
      lb.inject_core_probe(static_cast<WorkerId>(t % 2));
    });
  }
  lb.eq().run_until(SimTime::seconds(2));
  Digest d;
  digest_device(d, lb);
  return d.line();
}

// Three Hermes devices behind the Maglev front tier. Device 1 drains at
// 300 ms; tenant 7 is pinned to it (the sandbox) from 500 ms on.
std::string run_fleet(const Watch& watch) {
  Fleet::Config fc;
  fc.num_lbs = 3;
  fc.device = device_config(netsim::DispatchMode::HermesMode);
  fc.device.num_workers = 4;
  fc.device.num_ports = 8;
  fc.device.data_plane.enabled = true;
  fc.seed = 5;
  Fleet fleet(fc);
  for (size_t i = 0; i < fleet.device_count(); ++i) {
    watch_device(watch, fleet.device(i));
  }
  LbDevice::ConnPlan plan;
  plan.remaining = 3;
  plan.cost_us = DistSpec::lognormal(200, 0.5);
  plan.gap_us = DistSpec::exponential(20'000);
  for (int step = 1; step <= 20; ++step) {
    const SimTime at = SimTime::millis(50 * step);
    for (TenantId tenant = 0; tenant < 10; ++tenant) {
      fleet.open_burst(tenant, plan, 4);
    }
    if (step == 6) fleet.drain(1);
    if (step == 10) fleet.pin_tenant(7, 1);
    fleet.run_until(at, SimTime::millis(10));
  }
  fleet.run_until(SimTime::millis(1500), SimTime::millis(10));

  Digest d;
  for (size_t i = 0; i < fleet.device_count(); ++i) {
    digest_device(d, fleet.device(i));
  }
  const Fleet::PccAudit audit = fleet.audit_pcc();
  for (uint64_t v : {fleet.broken_total(), fleet.total_live(),
                     fleet.total_completed(), fleet.total_dropped(),
                     audit.checked, audit.maglev_violations,
                     audit.modn_violations,
                     static_cast<uint64_t>(fleet.active_count())}) {
    d.add("fleet", v);
  }
  return d.line();
}

using netsim::DispatchMode;

// A scenario's run: builds and runs its devices, returns the digest line.
using Run = std::function<std::string(const Watch&)>;

// Every golden scenario by name.
const std::map<std::string, Run>& scenarios() {
  const auto mode = [](DispatchMode m, int case_id) -> Run {
    return [m, case_id](const Watch& w) { return run_mode(m, case_id, w); };
  };
  const auto policy = [](core::PolicyKind kind) -> Run {
    return [kind](const Watch& w) { return run_policy(kind, w); };
  };
  static const std::map<std::string, Run> all = {
      {"mode_wakeall_case1", mode(DispatchMode::EpollWakeAll, 1)},
      {"mode_exclusive_case1", mode(DispatchMode::EpollExclusive, 1)},
      {"mode_rr_case1", mode(DispatchMode::EpollRr, 1)},
      {"mode_fifo_case1", mode(DispatchMode::IoUringFifo, 1)},
      {"mode_dispatcher_case1", mode(DispatchMode::UserDispatcher, 1)},
      {"mode_reuseport_case1", mode(DispatchMode::Reuseport, 1)},
      {"mode_hermes_case1", mode(DispatchMode::HermesMode, 1)},
      {"mode_wakeall_case3", mode(DispatchMode::EpollWakeAll, 3)},
      {"mode_exclusive_case3", mode(DispatchMode::EpollExclusive, 3)},
      {"mode_rr_case3", mode(DispatchMode::EpollRr, 3)},
      {"mode_fifo_case3", mode(DispatchMode::IoUringFifo, 3)},
      {"mode_dispatcher_case3", mode(DispatchMode::UserDispatcher, 3)},
      {"mode_reuseport_case3", mode(DispatchMode::Reuseport, 3)},
      {"hermes_case3_data_plane",
       [](const Watch& w) {
         LbDevice::Config cfg = device_config(DispatchMode::HermesMode);
         cfg.data_plane.enabled = true;
         return run_case(cfg, 3, 1.0, w);
       }},
      // Narrow groups as bench/ablation_group_locality sets them: four
      // groups of two workers, and singleton selections allowed, so a
      // connection stays inside its group.
      {"hermes_group_locality_case3",
       [](const Watch& w) {
         LbDevice::Config cfg = device_config(DispatchMode::HermesMode);
         cfg.num_ports = 16;
         cfg.hermes.workers_per_group = 2;
         cfg.hermes.min_workers_for_dispatch = 1;
         return run_case(cfg, 3, 2.0, w);
       }},
      {"policy_cascade_case1", policy(core::PolicyKind::Cascade)},
      {"policy_p2c_case1", policy(core::PolicyKind::P2c)},
      {"policy_weighted_case1", policy(core::PolicyKind::Weighted)},
      {"policy_queue_est_case1", policy(core::PolicyKind::QueueEst)},
      // Two 64-bit groups, and a theta that is not a whole number of
      // permille, so the scheduler's rounding of theta to permille shows
      // in the outcome.
      {"hermes_96_workers_case1",
       [](const Watch& w) {
         LbDevice::Config cfg = device_config(DispatchMode::HermesMode);
         cfg.num_workers = 96;
         cfg.hermes.theta_ratio = 0.3337;
         return run_case(cfg, 1, 0.5, w);
       }},
      {"hang_degradation_sweep", run_hang_degradation},
      {"fleet_drain_and_pin", run_fleet},
  };
  return all;
}

// ---- golden comparison --------------------------------------------------

std::map<std::string, std::string> load_golden() {
  std::map<std::string, std::string> out;
  std::ifstream in(GOLDEN_SCENARIOS_FILE);
  std::string line;
  while (std::getline(in, line)) {
    const size_t sp = line.find(' ');
    if (sp == std::string::npos) continue;
    out[line.substr(0, sp)] = line.substr(sp + 1);
  }
  return out;
}

std::map<std::string, std::string> families_of(const std::string& line) {
  std::map<std::string, std::string> out;
  size_t i = 0;
  while (i < line.size()) {
    size_t end = line.find(' ', i);
    if (end == std::string::npos) end = line.size();
    const std::string tok = line.substr(i, end - i);
    const size_t eq = tok.find('=');
    out[tok.substr(0, eq)] = tok.substr(eq + 1);
    i = end + 1;
  }
  return out;
}

void check_scenario(const std::string& name) {
  const std::string actual = scenarios().at(name)(Watch{});
  std::filesystem::create_directories("scenarios.actual");
  std::ofstream("scenarios.actual/" + name + ".txt")
      << name << ' ' << actual << '\n';

  static const std::map<std::string, std::string> golden = load_golden();
  const auto it = golden.find(name);
  ASSERT_NE(it, golden.end())
      << "no golden line for scenario " << name << " in " << GOLDEN_SCENARIOS_FILE;
  const auto want = families_of(it->second);
  const auto got = families_of(actual);
  for (const auto& [family, hash] : want) {
    const auto g = got.find(family);
    if (g == got.end()) {
      ADD_FAILURE() << name << ": metric family '" << family
                    << "' is no longer recorded";
    } else if (g->second != hash) {
      ADD_FAILURE() << name << ": metric family '" << family << "' moved ("
                    << hash << " -> " << g->second << ")";
    }
  }
  for (const auto& [family, hash] : got) {
    if (want.count(family) == 0) {
      ADD_FAILURE() << name << ": new metric family '" << family << "'";
    }
  }
}

TEST(ScenarioGoldenTest, ModeWakeAllCase1) {
  check_scenario("mode_wakeall_case1");
}
TEST(ScenarioGoldenTest, ModeExclusiveCase1) {
  check_scenario("mode_exclusive_case1");
}
TEST(ScenarioGoldenTest, ModeRrCase1) {
  check_scenario("mode_rr_case1");
}
TEST(ScenarioGoldenTest, ModeFifoCase1) {
  check_scenario("mode_fifo_case1");
}
TEST(ScenarioGoldenTest, ModeDispatcherCase1) {
  check_scenario("mode_dispatcher_case1");
}
TEST(ScenarioGoldenTest, ModeReuseportCase1) {
  check_scenario("mode_reuseport_case1");
}
TEST(ScenarioGoldenTest, ModeHermesCase1) {
  check_scenario("mode_hermes_case1");
}
TEST(ScenarioGoldenTest, ModeWakeAllCase3) {
  check_scenario("mode_wakeall_case3");
}
TEST(ScenarioGoldenTest, ModeExclusiveCase3) {
  check_scenario("mode_exclusive_case3");
}
TEST(ScenarioGoldenTest, ModeRrCase3) {
  check_scenario("mode_rr_case3");
}
TEST(ScenarioGoldenTest, ModeFifoCase3) {
  check_scenario("mode_fifo_case3");
}
TEST(ScenarioGoldenTest, ModeDispatcherCase3) {
  check_scenario("mode_dispatcher_case3");
}
TEST(ScenarioGoldenTest, ModeReuseportCase3) {
  check_scenario("mode_reuseport_case3");
}
TEST(ScenarioGoldenTest, HermesCase3DataPlane) {
  check_scenario("hermes_case3_data_plane");
}
TEST(ScenarioGoldenTest, HermesGroupLocalityCase3) {
  check_scenario("hermes_group_locality_case3");
}
TEST(ScenarioGoldenTest, PolicyCascadeCase1) {
  check_scenario("policy_cascade_case1");
}
TEST(ScenarioGoldenTest, PolicyP2cCase1) {
  check_scenario("policy_p2c_case1");
}
TEST(ScenarioGoldenTest, PolicyWeightedCase1) {
  check_scenario("policy_weighted_case1");
}
TEST(ScenarioGoldenTest, PolicyQueueEstCase1) {
  check_scenario("policy_queue_est_case1");
}
TEST(ScenarioGoldenTest, Hermes96WorkersCase1) {
  check_scenario("hermes_96_workers_case1");
}
TEST(ScenarioGoldenTest, HangDegradationSweep) {
  check_scenario("hang_degradation_sweep");
}
TEST(ScenarioGoldenTest, FleetDrainAndPin) {
  check_scenario("fleet_drain_and_pin");
}

// ---- busy clock -----------------------------------------------------------

// Every millisecond of simulated time, checks that no worker of a watched
// device grew its busy time by more than the time that passed since the
// previous check.
class BusyClockCheck {
 public:
  static constexpr SimTime kPeriod = SimTime::millis(1);

  void watch(LbDevice& lb) {
    Device* d = &devices_.emplace_back();
    d->lb = &lb;
    d->last_busy.assign(lb.num_workers(), SimTime::zero());
    lb.eq().schedule_after(kPeriod, Rearming([this, d](auto& self) {
      check(*d);
      d->lb->eq().schedule_after(kPeriod, self);
    }));
  }

  uint64_t checks() const { return checks_; }
  uint64_t overshoots() const { return overshoots_; }
  SimTime worst() const { return worst_; }

 private:
  struct Device {
    LbDevice* lb = nullptr;
    SimTime last_at{};
    std::vector<SimTime> last_busy;
  };

  void check(Device& d) {
    const SimTime now = d.lb->eq().now();
    for (WorkerId w = 0; w < d.lb->num_workers(); ++w) {
      const SimTime busy = d.lb->worker(w).busy_time();
      const SimTime over = (busy - d.last_busy[w]) - (now - d.last_at);
      if (over > SimTime::zero()) {
        ++overshoots_;
        worst_ = std::max(worst_, over);
      }
      d.last_busy[w] = busy;
    }
    d.last_at = now;
    ++checks_;
  }

  std::deque<Device> devices_;  // stable addresses for the events
  uint64_t checks_ = 0;
  uint64_t overshoots_ = 0;
  SimTime worst_{};
};

TEST(BusyClockTest, GoldenScenariosNeverExceedElapsedTime) {
  for (const auto& [name, run] : scenarios()) {
    BusyClockCheck clock;
    run([&clock](LbDevice& lb) { clock.watch(lb); });
    EXPECT_GE(clock.checks(), 500u) << name;
    EXPECT_EQ(clock.overshoots(), 0u)
        << name << ": worst overshoot " << clock.worst().ns() << " ns";
  }
}

// simctl's `--mode hermes --case 2 --load 3 --workers 8`: poison requests
// pin a core for 100-500 ms, each of them one span.
TEST(BusyClockTest, PoisonCase2NeverExceedsElapsedTime) {
  LbDevice::Config cfg = device_config(DispatchMode::HermesMode);
  cfg.seed = 1;
  BusyClockCheck clock;  // outlives the device's queued checks
  LbDevice lb(cfg);
  clock.watch(lb);
  const SimTime end = SimTime::seconds(2);
  lb.start_pattern(case_pattern(2, kWorkers, 3.0), 0, kPorts, end);
  lb.eq().run_until(end);
  SimTime longest{};
  for (WorkerId w = 0; w < kWorkers; ++w) {
    longest = std::max(
        longest, SimTime{static_cast<int64_t>(
                     lb.worker(w).event_processing_time().max_value())});
  }
  EXPECT_GE(longest, SimTime::millis(100));  // a poison request ran
  EXPECT_EQ(clock.checks(), 2000u);
  EXPECT_EQ(clock.overshoots(), 0u)
      << "worst overshoot " << clock.worst().ns() << " ns";
}

}  // namespace
}  // namespace hermes::sim
