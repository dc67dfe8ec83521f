// The repository benchmark's runner: one workload per single-threaded
// process.
//
//   perfbench --workload short_conn|keepalive_l7 --seed N
//             --seconds S --trace 0|1 [--smoke]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ledger.
// The last line of stdout is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Exit status is 0 only when every correctness check passed.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bpf/plan.h"
#include "core/policy.h"
#include "core/scheduler.h"
#include "http/conn_state.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

[[noreturn]] void usage_error(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N "
               "--seconds S --trace 0|1 [--smoke]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage_error(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::atof(v);
    } else if (flag == "--trace") {
      o.trace = std::strcmp(v, "0") != 0;
    } else {
      usage_error(("unknown flag " + flag).c_str());
    }
  }
  if (o.seconds <= 0) usage_error("--seconds must be positive");
  return o;
}

// Every HERMES_* knob is cleared before the first default is read, so a
// knob left in the caller's environment cannot change what is measured.
void clear_hermes_env() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "HERMES_", 7) != 0) continue;
    const char* eq = std::strchr(*e, '=');
    names.emplace_back(*e, eq != nullptr ? eq - *e : std::strlen(*e));
  }
  for (const std::string& n : names) {
    std::printf("config: cleared %s\n", n.c_str());
    unsetenv(n.c_str());
  }
}

void print_config(const Options& o) {
  std::printf(
      "config: workload=%s seed=%" PRIu64 " seconds=%g trace=%d smoke=%d\n",
      o.workload.c_str(), o.seed, o.seconds, o.trace ? 1 : 0, o.smoke ? 1 : 0);
  std::printf(
      "config: mode=hermes policy=%s bpf_tier=%s sched_path=%s "
      "zero_copy=%s build=%s\n",
      hermes::core::to_string(hermes::core::PolicyKind::Cascade),
      hermes::bpf::to_string(hermes::bpf::default_tier()),
      hermes::core::to_string(hermes::core::default_sched_path()),
      hermes::http::zero_copy_enabled_from_env() ? "on" : "off",
      PERFBENCH_BUILD_TYPE);
}

double req_rate(const Rep& r) {
  return static_cast<double>(r.requests) / r.window_s;
}

// Every repeat of a seed simulates the same slices, and interference from
// the rest of the machine only ever slows a slice down, so slice i's cost
// is its fastest wall time over the repeats (the repository's micro
// benches likewise report their best pass).
std::vector<double> fastest_slices(const std::vector<Rep>& reps) {
  std::vector<double> out = reps.front().slice_ms;
  for (const Rep& r : reps) {
    if (r.slice_ms.size() != out.size()) continue;  // digest check fails too
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] = std::min(out[i], r.slice_ms[i]);
    }
  }
  return out;
}

double fastest_window_s(const std::vector<Rep>& reps) {
  double s = 0;
  for (double ms : fastest_slices(reps)) s += ms / 1e3;
  return s;
}

int run(const Options& opt) {
  if (opt.workload != "short_conn" && opt.workload != "keepalive_l7") {
    usage_error(("unknown workload '" + opt.workload + "'").c_str());
  }
  const std::unique_ptr<Workload> w = make_device_workload(opt);
  print_config(opt);

  // setup_s is the median of several set-ups: a few set-up-only rounds,
  // plus the set-up of every measured repetition.
  std::vector<double> setup_s;
  auto timed_setup = [&] {
    const auto t0 = Clock::now();
    w->setup();
    setup_s.push_back(seconds_between(t0, Clock::now()));
  };
  for (int i = 0; i < (opt.smoke ? 1 : 8); ++i) {
    timed_setup();
    w->teardown();
  }

  // Repeat the scenario until the next repetition would overrun the
  // budget, with at least two repetitions so the digests can be compared.
  // A traced run alternates untraced and traced repetitions.
  Report report;
  std::vector<Rep> plain, traced;
  const auto start = Clock::now();
  double rep_wall = 0;
  for (size_t i = 0;; ++i) {
    const bool trace_this = opt.trace && i % 2 == 1;
    const auto r0 = Clock::now();
    timed_setup();
    Rep rep = w->run(trace_this, report);
    w->teardown();
    report.add_attempted(rep.syns);
    report.add_failed(rep.failures);
    (trace_this ? traced : plain).push_back(std::move(rep));
    rep_wall = std::max(rep_wall, seconds_between(r0, Clock::now()));
    const double elapsed = seconds_between(start, Clock::now());
    if (i >= 1 && elapsed + rep_wall > opt.seconds) break;
  }

  const Rep& first = plain.front();
  bool same = true;
  for (const auto* set : {&plain, &traced}) {
    for (const Rep& r : *set) same = same && r.digest == first.digest;
  }
  report.check(same, opt.workload + ": sim_digest identical across repeats");

  std::printf("repetitions: %zu untraced, %zu traced\n", plain.size(),
              traced.size());
  for (const auto* set : {&plain, &traced}) {
    std::printf("  %s req/wall-s:", set == &plain ? "untraced" : "traced");
    for (const Rep& r : *set) {
      std::printf(" %.0f", req_rate(r));
    }
    std::printf("\n");
  }
  std::printf("sim_digest: %016" PRIx64 "\n", first.digest);
  std::printf("simulated: p50 %.6f ms, p99 %.6f ms, %.3f krps, cpu SD %.4f pp\n",
              first.sim_p50_ms, first.sim_p99_ms, first.sim_krps,
              first.sim_cpu_sd_pp);
  std::printf("failed_pct: %.6f (%" PRIu64 " of %" PRIu64 " SYNs)\n",
              100 * ratio(static_cast<double>(report.failed()),
                          static_cast<double>(report.attempted())),
              report.failed(), report.attempted());

  if (!opt.trace) {
    // The window's wall time, assembled from each slice's fastest repeat.
    const double window_s = fastest_window_s(plain);
    const std::vector<double> fastest = fastest_slices(plain);
    std::vector<double> slices(
        fastest.begin() + static_cast<ptrdiff_t>(first.steady_begin),
        fastest.begin() + static_cast<ptrdiff_t>(first.steady_end));
    // The tail is printed but not gated: it follows the machine's own
    // slow periods more than the program.
    std::printf("slices: %zu steady-state samples, each the fastest of %zu "
                "repeats; slice_wall_ms_p99 %.6f ms\n",
                slices.size(), plain.size(), quantile(slices, 0.99));
    report.metric("setup_s", median(setup_s), "s");
    report.metric("req_per_wall_s",
                  static_cast<double>(first.requests) / window_s, "1/s");
    report.metric("conn_per_wall_s",
                  static_cast<double>(first.conns) / window_s, "1/s");
    report.metric("slice_wall_ms_p50", quantile(slices, 0.50), "ms");
    report.metric("peak_heap_mb",
                  static_cast<double>(alloc_count().peak_live_bytes) / (1 << 20),
                  "MB");
    report.metric("sim_p50_ms", first.sim_p50_ms, "ms");
    report.metric("sim_p99_ms", first.sim_p99_ms, "ms");
    report.metric("sim_krps", first.sim_krps, "krps");
    report.metric("sim_cpu_sd_pp", first.sim_cpu_sd_pp, "pp");
  } else {
    Ledger ledger;
    Layers layers = w->layers(&ledger);
    // Both sets simulate the same slices: compare their assembled windows.
    layers.sim_trace_overhead_pct =
        100 * (1 - fastest_window_s(plain) / fastest_window_s(traced));
    layers.sim_unattributed_pct = ledger.print(layers);
    layers.emit(report);
  }
  report.print_table();
  std::fflush(stdout);
  report.print_json();
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Freed memory stays in the process for the next repetition: page faults
  // on fresh memory are a one-time cost whose price varies with the host's
  // memory pressure, so repeated repetitions must not pay it again.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  perfbench::clear_hermes_env();
  const perfbench::Options opt = perfbench::parse(argc, argv);
  return perfbench::run(opt);
}
