// Trace replay — the paper's own evaluation methodology as a runnable
// example: capture a traffic trace once, then replay the *identical*
// connections at 1x/2x/3x against each dispatch mode. Because every mode
// sees the same per-connection work, differences are pure dispatch.
//
//   trace_replay                 # capture + replay a case-4 trace
//   trace_replay /path/trace.txt # replay an existing trace file
#include <cstdio>
#include <fstream>

#include "sim/trace.h"

using namespace hermes;

int main(int argc, char** argv) {
  sim::Trace trace;
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in || !sim::Trace::load(in, &trace)) {
      std::fprintf(stderr, "cannot load trace '%s'\n", argv[1]);
      return 1;
    }
    std::printf("loaded %zu connections (%.1f s) from %s\n\n", trace.size(),
                trace.duration().s_f(), argv[1]);
  } else {
    // Capture: sample the case-4 pattern (TLS/regex heavy web service).
    sim::Rng rng(2024);
    trace = sim::Trace::record(sim::case_pattern(4, 8, 1.0),
                               SimTime::seconds(8), 16, rng);
    const char* path = "/tmp/hermes_case4.trace";
    std::ofstream out(path);
    trace.save(out);
    std::printf("captured %zu connections (%.1f s) -> %s\n\n", trace.size(),
                trace.duration().s_f(), path);
  }

  std::printf("%-18s |", "mode \\ replay");
  for (double rate : {1.0, 2.0, 3.0}) std::printf("   %.0fx Avg/P99 (ms)   |", rate);
  std::printf("\n");

  for (const auto mode :
       {netsim::DispatchMode::EpollExclusive, netsim::DispatchMode::Reuseport,
        netsim::DispatchMode::HermesMode}) {
    std::printf("%-18s |", netsim::to_string(mode));
    for (double rate : {1.0, 2.0, 3.0}) {
      sim::LbDevice::Config cfg;
      cfg.mode = mode;
      cfg.num_workers = 8;
      cfg.num_ports = 16;
      cfg.seed = 7;
      sim::LbDevice lb(cfg);
      sim::TraceReplayer::replay(trace, lb, rate);
      lb.eq().run_until(trace.duration() / static_cast<int64_t>(rate) +
                        SimTime::seconds(3));
      const auto latency = lb.take_window_latency();  // the whole replay
      std::printf("  %8.2f /%8.2f  |", latency.mean() / 1e6,
                  (double)latency.p99() / 1e6);
    }
    std::printf("\n");
  }
  std::printf("\nSame connections, same costs, three dispatch policies —"
              " the latency\ndeltas are the dispatch policy and nothing"
              " else.\n");
  return 0;
}
