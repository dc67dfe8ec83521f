// Million-connection fleet-scale bench: N Hermes LB devices behind the
// Maglev front tier (sim/fleet.h), ramped to a target concurrent
// connection count, then churned (LB add + remove) while auditing
// per-connection consistency.
//
// Reports:
//   - simulated-connections/sec of wall clock (ramp throughput of the
//     whole stack: slab admission, wheel scheduling, worker loops)
//   - Table-2-style imbalance at fleet scale (per-device live-connection
//     spread under tuple-hash routing)
//   - PCC violation rates for LB add and LB remove, Maglev vs the mod-N
//     (naive ECMP) baseline
//   - heap_bytes_per_conn: live operator-new bytes after the ramp divided
//     by live connections (counted by the operator-new override below)
//
// Deterministic metrics (connection counts, PCC violations, imbalance
// shape) feed the bench gate; wall-clock metrics are reported but ungated.
// Scale knobs: --conns N / FLEET_SCALE_CONNS env (the CI smoke runs 100k;
// the nightly leg and the default run 1M+).
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "bench/bench_common.h"
#include "sim/fleet.h"

// ---- live-heap counter -----------------------------------------------------
// Each block carries its requested size in a header, so delete subtracts
// exactly what new added. Single-threaded bench: a plain counter is fine.
static constexpr std::size_t kSizeHeader = alignof(std::max_align_t);
static uint64_t g_live_bytes = 0;

void* operator new(std::size_t n) {
  if (void* p = std::malloc(n + kSizeHeader)) {
    *static_cast<std::size_t*>(p) = n;
    g_live_bytes += n;
    return static_cast<char*>(p) + kSizeHeader;
  }
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  // Integer arithmetic: the compiler cannot see the header's allocation.
  auto* block = reinterpret_cast<std::size_t*>(
      reinterpret_cast<std::uintptr_t>(p) - kSizeHeader);
  g_live_bytes -= *block;
  std::free(block);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}

namespace hermes::bench {
namespace {

struct Args {
  uint64_t conns = 1'000'000;
  uint32_t lbs = 8;
  uint32_t workers = 8;
};

Args parse_args(int argc, char** argv) {
  Args a;
  if (const char* env = std::getenv("FLEET_SCALE_CONNS")) {
    a.conns = std::strtoull(env, nullptr, 10);
  }
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--conns") == 0) {
      a.conns = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--lbs") == 0) {
      a.lbs = static_cast<uint32_t>(std::strtoul(argv[i + 1], nullptr, 10));
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      a.workers =
          static_cast<uint32_t>(std::strtoul(argv[i + 1], nullptr, 10));
    }
  }
  return a;
}

sim::LbDevice::ConnPlan held_plan() {
  // Long-lived connections: a cheap first request, then a 30 s think gap,
  // so the ramp measures connection-state machinery, not request service.
  // Constant distributions keep every metric deterministic.
  sim::LbDevice::ConnPlan plan;
  plan.remaining = 1000;
  plan.cost_us = sim::DistSpec::constant(1);
  plan.bytes = sim::DistSpec::constant(200);
  plan.gap_us = sim::DistSpec::constant(30'000'000);
  return plan;
}

int run(int argc, char** argv) {
  BenchJson json("fleet_scale", &argc, argv);
  const Args args = parse_args(argc, argv);

  header("Fleet scale: " + std::to_string(args.conns) + " connections over " +
         std::to_string(args.lbs) + " Hermes LBs (Maglev front tier)");

  sim::Fleet::Config fc;
  fc.num_lbs = args.lbs;
  fc.device.mode = netsim::DispatchMode::HermesMode;
  fc.device.num_workers = args.workers;
  fc.device.num_ports = 8;
  fc.device.backlog = 65536;
  fc.device.observability = false;  // pure scale run; obs cost is Table 5
  fc.seed = 42;
  sim::Fleet fleet(fc);

  const auto wall_start = std::chrono::steady_clock::now();

  // ---- ramp: SYN waves across tenants until the target is reached ------
  const uint64_t kWave = 65536;
  uint64_t opened = 0;
  TenantId tenant = 0;
  while (opened < args.conns) {
    const uint64_t want =
        std::min<uint64_t>(kWave, args.conns - opened);
    opened += fleet.open_burst(tenant, held_plan(), want);
    tenant = (tenant + 1) % fc.device.num_ports;
    // Let workers drain accept queues before the next wave.
    fleet.run_until(fleet.now() + SimTime::millis(5));
  }
  // Hold: every queued connection is accepted and has served its first
  // request; the fleet now *sustains* the target concurrency.
  fleet.run_until(fleet.now() + SimTime::millis(200));

  const auto ramp_end = std::chrono::steady_clock::now();
  const double ramp_wall_s =
      std::chrono::duration<double>(ramp_end - wall_start).count();

  const uint64_t live = fleet.total_live();
  const double heap_bytes_per_conn =
      live > 0 ? static_cast<double>(g_live_bytes) / static_cast<double>(live)
               : 0;
  const double conns_per_wall =
      ramp_wall_s > 0 ? static_cast<double>(opened) / ramp_wall_s : 0;

  subheader("ramp");
  std::printf("established %llu conns (%llu dropped), live %llu\n",
              static_cast<unsigned long long>(opened),
              static_cast<unsigned long long>(fleet.total_dropped()),
              static_cast<unsigned long long>(live));
  std::printf("wall %.2f s -> %.0f simulated conns/sec of wall clock\n",
              ramp_wall_s, conns_per_wall);
  std::printf("live heap %.1f MB -> %.1f B per live conn\n",
              static_cast<double>(g_live_bytes) / 1e6, heap_bytes_per_conn);

  // ---- fleet-scale imbalance (Table-2 style, across devices) -----------
  const auto im = fleet.imbalance();
  subheader("imbalance across devices");
  std::printf("conns/device avg %.0f sd %.1f min %llu max %llu "
              "(max/avg %.4f)\n",
              im.conn_avg, im.conn_sd,
              static_cast<unsigned long long>(im.conn_min),
              static_cast<unsigned long long>(im.conn_max), im.max_over_avg);

  // ---- churn: add one LB, audit PCC ------------------------------------
  fleet.add_lb();
  const auto add_audit = fleet.audit_pcc();
  const double add_maglev_frac =
      static_cast<double>(add_audit.maglev_violations) /
      static_cast<double>(add_audit.checked);
  const double add_modn_frac =
      static_cast<double>(add_audit.modn_violations) /
      static_cast<double>(add_audit.checked);
  subheader("LB add (+1)");
  std::printf("PCC violations: maglev %llu/%llu (%.4f)  "
              "mod-N %llu/%llu (%.4f)\n",
              static_cast<unsigned long long>(add_audit.maglev_violations),
              static_cast<unsigned long long>(add_audit.checked),
              add_maglev_frac,
              static_cast<unsigned long long>(add_audit.modn_violations),
              static_cast<unsigned long long>(add_audit.checked),
              add_modn_frac);

  // ---- churn: remove one LB, audit PCC ---------------------------------
  const uint64_t victim_live = fleet.device(1).live_connections();
  fleet.remove_lb(1);
  const auto rm_audit = fleet.audit_pcc();
  const double rm_maglev_frac =
      static_cast<double>(rm_audit.maglev_violations) /
      static_cast<double>(rm_audit.checked);
  subheader("LB remove (-1)");
  std::printf("broken (stranded on removed LB): %llu\n",
              static_cast<unsigned long long>(victim_live));
  std::printf("survivor PCC violations: maglev %llu/%llu (%.4f)  "
              "mod-N %llu/%llu\n",
              static_cast<unsigned long long>(rm_audit.maglev_violations),
              static_cast<unsigned long long>(rm_audit.checked),
              rm_maglev_frac,
              static_cast<unsigned long long>(rm_audit.modn_violations),
              static_cast<unsigned long long>(rm_audit.checked));

  const auto wall_end = std::chrono::steady_clock::now();
  const double total_wall_s =
      std::chrono::duration<double>(wall_end - wall_start).count();
  std::printf("\ntotal wall %.2f s, %llu requests completed\n", total_wall_s,
              static_cast<unsigned long long>(fleet.total_completed()));

  // Deterministic metrics (gated): counts and count-derived shapes.
  json.metric("fleet_established", static_cast<double>(opened));
  json.metric("fleet_live_conns", static_cast<double>(live));
  json.metric("fleet_dropped", static_cast<double>(fleet.total_dropped()));
  json.metric("imbalance_max_over_avg", im.max_over_avg);
  json.metric("imbalance_conn_sd", im.conn_sd);
  json.metric("pcc_add_checked", static_cast<double>(add_audit.checked));
  json.metric("pcc_add_maglev_violations",
              static_cast<double>(add_audit.maglev_violations));
  json.metric("pcc_add_modn_violations",
              static_cast<double>(add_audit.modn_violations));
  json.metric("pcc_remove_broken", static_cast<double>(victim_live));
  json.metric("pcc_remove_maglev_violations",
              static_cast<double>(rm_audit.maglev_violations));
  json.metric("heap_bytes_per_conn", heap_bytes_per_conn);
  // Wall-clock metrics (ungated by suffix: machine-speed dependent).
  json.metric("ramp_wall_s", ramp_wall_s);
  json.metric("total_wall_s", total_wall_s);
  json.metric("conns_per_wall_sec", conns_per_wall);
  return 0;
}

}  // namespace
}  // namespace hermes::bench

int main(int argc, char** argv) { return hermes::bench::run(argc, argv); }
