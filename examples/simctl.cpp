// simctl — a parameterizable command-line driver for the LB simulator.
//
// Run any dispatch mode against any of the paper's traffic cases without
// writing code:
//
//   simctl --mode hermes --case 3 --load 2 --workers 8 --seconds 10
//   simctl --mode exclusive --case 1 --load 3 --ports 256
//   simctl --mode hermes --theta 0.25 --sync-us 10000
//
// Prints a one-page report: latency distribution, throughput, per-worker
// balance, Hermes counters.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/trace_ring.h"
#include "sim/lb.h"

using namespace hermes;

namespace {

struct Args {
  std::string mode = "hermes";
  std::string policy;  // empty = the config default, cascade
  int case_id = 3;
  double load = 1.0;
  uint32_t workers = 8;
  uint32_t ports = 32;
  double seconds = 10;
  uint64_t seed = 1;
  double theta = 0.5;
  int64_t sync_us = 0;
  bool metrics = false;
  bool data_plane = false;
  int trace_dump = 0;
  std::string trace_json;
  bool help = false;
};

netsim::DispatchMode parse_mode(const std::string& m) {
  if (m == "hermes") return netsim::DispatchMode::HermesMode;
  if (m == "exclusive") return netsim::DispatchMode::EpollExclusive;
  if (m == "reuseport") return netsim::DispatchMode::Reuseport;
  if (m == "rr") return netsim::DispatchMode::EpollRr;
  if (m == "wakeall") return netsim::DispatchMode::EpollWakeAll;
  if (m == "fifo") return netsim::DispatchMode::IoUringFifo;
  if (m == "dispatcher") return netsim::DispatchMode::UserDispatcher;
  std::fprintf(stderr, "unknown mode '%s'\n", m.c_str());
  std::exit(2);
}

// Longest run accepted: the end time plus the one-second drain must fit
// SimTime's int64 nanoseconds (about 9.2e9 s).
constexpr double kMaxSeconds = 1e9;

// A count parses signed, so "-1" reads as 0 and fails the range check
// instead of wrapping to 2^32 - 1; so does anything above 2^32 - 1.
uint32_t parse_count(const char* s) {
  const long long v = std::atoll(s);
  return v < 0 || v > UINT32_MAX ? 0 : static_cast<uint32_t>(v);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--mode") a.mode = next();
    else if (flag == "--policy") a.policy = next();
    else if (flag == "--case") a.case_id = std::atoi(next());
    else if (flag == "--load") a.load = std::atof(next());
    else if (flag == "--workers") a.workers = parse_count(next());
    else if (flag == "--ports") a.ports = parse_count(next());
    else if (flag == "--seconds") a.seconds = std::atof(next());
    else if (flag == "--seed") a.seed = (uint64_t)std::atoll(next());
    else if (flag == "--theta") a.theta = std::atof(next());
    else if (flag == "--sync-us") a.sync_us = std::atoll(next());
    else if (flag == "--metrics") a.metrics = true;
    else if (flag == "--data-plane") a.data_plane = true;
    else if (flag == "--trace-dump") a.trace_dump = std::atoi(next());
    else if (flag == "--trace-json") a.trace_json = next();
    else if (flag == "--help" || flag == "-h") a.help = true;
    else {
      std::fprintf(stderr, "unknown flag '%s' (try --help)\n", flag.c_str());
      std::exit(2);
    }
  }
  return a;
}

void usage() {
  std::puts(
      "simctl — drive the Hermes LB simulator\n\n"
      "  --mode M       hermes|exclusive|reuseport|rr|wakeall|fifo|dispatcher\n"
      "  --policy P     dispatch policy: cascade|p2c|weighted|queue_est\n"
      "                 (default: cascade)\n"
      "  --case N       traffic case 1-4 (paper Table 3)\n"
      "  --load X       replay multiplier (1=light, 2=medium, 3=heavy)\n"
      "  --workers N    worker processes / cores (default 8)\n"
      "  --ports N      tenant ports (default 32)\n"
      "  --seconds S    simulated duration (default 10)\n"
      "  --seed N       RNG seed (default 1)\n"
      "  --theta X      Hermes filter offset theta/Avg (default 0.5)\n"
      "  --sync-us N    min gap between decision syncs, 0 = every loop\n"
      "  --metrics      dump the observability registry after the run\n"
      "  --data-plane   enable the byte-level L7 data plane (HTTP wire\n"
      "                 synthesis, keep-alive parsing, zero-copy forward)\n"
      "  --trace-dump N print the last N trace-ring events\n"
      "  --trace-json P write chrome://tracing JSON of the trace rings to P");
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  if (a.help) {
    usage();
    return 0;
  }
  // Each bound reads "!(in range)" so that NaN, which fails every
  // comparison, is rejected too.
  if (a.case_id < 1 || a.case_id > 4 || a.workers < 1 || a.ports < 1 ||
      !(a.load > 0 && std::isfinite(a.load)) ||
      !(a.seconds > 0 && a.seconds <= kMaxSeconds)) {
    std::fprintf(stderr, "invalid arguments (try --help)\n");
    return 2;
  }

  sim::LbDevice::Config cfg;
  cfg.mode = parse_mode(a.mode);
  if (!a.policy.empty()) {
    core::PolicyKind kind;
    if (!core::parse_policy(a.policy, &kind)) {
      std::fprintf(stderr, "unknown policy '%s' (try --help)\n",
                   a.policy.c_str());
      return 2;
    }
    cfg.policy = kind;
  }
  cfg.num_workers = a.workers;
  cfg.num_ports = a.ports;
  cfg.seed = a.seed;
  cfg.hermes.theta_ratio = a.theta;
  cfg.worker.min_sync_interval = SimTime::micros(a.sync_us);
  cfg.data_plane.enabled = a.data_plane;
  sim::LbDevice lb(cfg);

  const SimTime end = SimTime::from_seconds_f(a.seconds);
  lb.start_pattern(sim::case_pattern(a.case_id, a.workers, a.load), 0,
                   cfg.num_ports, end);
  const SimTime warmup = end / 5;
  lb.eq().run_until(warmup);
  lb.take_window_latency();
  const uint64_t completed0 = lb.totals().requests_completed;
  lb.sample_now();
  lb.eq().run_until(end);
  const auto sample = lb.sample_now();
  const uint64_t done = lb.totals().requests_completed - completed0;
  lb.eq().run_until(end + SimTime::seconds(1));
  auto window = lb.take_window_latency();

  std::printf("mode=%s case=%d load=%.2f workers=%u ports=%u seed=%lu"
              " seconds=%.1f\n\n",
              netsim::to_string(cfg.mode), a.case_id, a.load, a.workers,
              a.ports, (unsigned long)a.seed, a.seconds);
  std::printf("requests   : %lu completed (%.1f kRPS), %lu conns,"
              " %lu drops\n",
              (unsigned long)done,
              (double)done / (end - warmup).s_f() / 1000.0,
              (unsigned long)lb.totals().conns_opened,
              (unsigned long)lb.totals().conns_dropped);
  std::printf("latency    : avg %.3f ms, P50 %.3f, P90 %.3f, P99 %.3f,"
              " P999 %.3f\n",
              window.mean() / 1e6, (double)window.p50() / 1e6,
              (double)window.p90() / 1e6, (double)window.p99() / 1e6,
              (double)window.p999() / 1e6);
  std::printf("cpu        : avg %.1f%%, min %.1f%%, max %.1f%%,"
              " SD %.2f pp\n",
              100 * sample.cpu_avg, 100 * sample.cpu_min,
              100 * sample.cpu_max, 100 * sample.cpu_sd);
  std::printf("workers    :");
  for (WorkerId w = 0; w < lb.num_workers(); ++w) {
    std::printf(" %ld", (long)lb.worker(w).live_connections());
  }
  std::printf("  (live connections)\n");
  if (lb.hermes() != nullptr) {
    std::printf("hermes     : policy=%s, bitmap=0x%lx, %lu schedules,"
                " %lu syncs\n",
                core::to_string(lb.hermes()->policy_kind()),
                (unsigned long)lb.hermes()->kernel_bitmap(),
                (unsigned long)lb.hermes()->counters().schedules,
                (unsigned long)lb.hermes()->counters().syncs);
  }
  if (lb.data_plane() != nullptr) {
    const sim::DataPlane::Totals& dt = lb.data_plane()->totals();
    std::printf("data plane : %lu fwd (%s), %lu B zero-copied, %lu B"
                " copied\n",
                (unsigned long)dt.requests_forwarded,
                lb.data_plane()->config().zero_copy ? "zero-copy"
                                                    : "copy-oracle",
                (unsigned long)dt.bytes_zero_copied,
                (unsigned long)dt.bytes_copied);
    std::printf("backendpool: %lu hits, %lu misses, %lu expiries,"
                " %lu idle now\n",
                (unsigned long)dt.pool_hits, (unsigned long)dt.pool_misses,
                (unsigned long)dt.pool_expiries,
                (unsigned long)lb.data_plane()->pool().idle_total());
    std::printf("streams    : backend digest 0x%016lx,"
                " client digest 0x%016lx\n",
                (unsigned long)dt.backend_stream_hash,
                (unsigned long)dt.client_stream_hash);
  }
  if (lb.dispatcher() != nullptr) {
    std::printf("dispatcher : %lu dispatched, core %.0f%% busy\n",
                (unsigned long)lb.dispatcher()->dispatched(),
                100.0 * (double)lb.dispatcher()->busy_time().ns() /
                    (double)end.ns());
  }

  if (lb.obs() != nullptr) {
    if (a.metrics) {
      std::printf("\n-- metrics --------------------------------------\n%s",
                  lb.obs()->registry.text_dump().c_str());
    }
    if (a.trace_dump > 0) {
      auto events = lb.obs()->traces.merged_snapshot();
      const size_t n = static_cast<size_t>(a.trace_dump);
      if (events.size() > n) {
        events.erase(events.begin(),
                     events.end() - static_cast<ptrdiff_t>(n));
      }
      std::printf("\n-- trace (last %zu events) ----------------------\n%s",
                  events.size(), obs::to_text(events).c_str());
    }
    if (!a.trace_json.empty()) {
      const auto events = lb.obs()->traces.merged_snapshot();
      std::FILE* f = std::fopen(a.trace_json.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", a.trace_json.c_str());
        return 1;
      }
      const std::string json = obs::to_chrome_trace(events);
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("trace      : %zu events -> %s (chrome://tracing)\n",
                  events.size(), a.trace_json.c_str());
    }
  }
  return 0;
}
