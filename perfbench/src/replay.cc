// Per-call costs of single public calls, each replayed in isolation on
// inputs drawn from the workload's distributions. Each replay times three
// passes and reports the median pass.
#include <algorithm>

#include "core/hermes.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace sim = hermes::sim;
using hermes::SimTime;

constexpr int kPasses = 3;

template <typename F>
double median_pass_ns(F&& pass, double calls_per_pass) {
  std::vector<double> ns;
  for (int p = 0; p < kPasses; ++p) {
    const auto t0 = Clock::now();
    pass(p);
    ns.push_back(static_cast<double>(ns_between(t0, Clock::now())) /
                 calls_per_pass);
  }
  return median(ns);
}

}  // namespace

double replay_event_ns(size_t depth, const sim::DistSpec& delay_us,
                       uint64_t seed) {
  sim::Rng rng(seed ^ 0xe7e7e7ull);
  constexpr size_t kDelays = 4096;  // power of two
  std::vector<SimTime> delays(kDelays);
  for (SimTime& d : delays) {
    d = SimTime::nanos(
        std::max<int64_t>(1, static_cast<int64_t>(delay_us.sample(rng) * 1e3)));
  }
  sim::EventQueue eq;
  uint64_t fired = 0;
  for (size_t i = 0; i < depth; ++i) {
    eq.schedule_after(delays[i & (kDelays - 1)], [&fired] { ++fired; });
  }
  // The worker loop's callbacks: two of three capture a pointer, one
  // carries a whole event record (as process_next's completion does).
  struct Payload {
    uint64_t w[8];
  };
  size_t next = 0;
  auto churn = [&](int iters) {
    for (int i = 0; i < iters; ++i) {
      const SimTime d = delays[next++ & (kDelays - 1)];
      if (i % 3 == 2) {
        Payload p{};
        p.w[0] = static_cast<uint64_t>(i);
        eq.schedule_after(d, [&fired, p] { fired += p.w[0] & 1; });
      } else {
        eq.schedule_after(d, [&fired] { ++fired; });
      }
      eq.step();
    }
  };
  constexpr int kIters = 150'000;
  churn(kIters / 10);  // warm the record slab and free list
  return median_pass_ns([&](int) { churn(kIters); }, kIters);
}

double replay_dispatch_ns(sim::LbDevice& lb,
                          const std::vector<uint64_t>& bitmaps,
                          uint64_t seed) {
  hermes::core::HermesRuntime* h = lb.hermes();
  const hermes::PortId port = lb.netstack().ports().front();
  hermes::netsim::ReuseportGroup* group = lb.netstack().group(port);

  sim::Rng rng(seed ^ 0xd15ull);
  std::vector<hermes::netsim::FourTuple> tuples(1024);
  for (auto& t : tuples) {
    t.saddr = static_cast<uint32_t>(rng.next_u64());
    t.daddr = 0x0a000001;
    t.sport = static_cast<uint16_t>(1024 + rng.next_below(60000));
    t.dport = port;
  }
  // Up to 64 of the sampled bitmaps, evenly spaced over the run.
  std::vector<uint64_t> sample;
  const size_t n = bitmaps.empty() ? 1 : std::min<size_t>(64, bitmaps.size());
  for (size_t i = 0; i < n; ++i) {
    sample.push_back(bitmaps.empty() ? h->kernel_bitmap(0)
                                     : bitmaps[i * bitmaps.size() / n]);
  }
  // select() updates the group's stats, so the calls cannot be elided.
  auto pass = [&](int) {
    for (uint64_t bm : sample) {
      h->sel_map().store_u64(0, bm);
      for (const auto& t : tuples) group->select(t);
    }
  };
  pass(0);  // warm
  return median_pass_ns(pass,
                        static_cast<double>(sample.size() * tuples.size()));
}

double replay_load_ms(uint32_t workers) {
  hermes::core::HermesRuntime::Options o;
  o.num_workers = workers;
  o.policy = hermes::core::PolicyKind::Cascade;
  hermes::core::HermesRuntime rt(o);
  std::vector<uint64_t> cookies;
  for (uint32_t w = 0; w < workers; ++w) cookies.push_back(1000 + w);
  (void)rt.attach_port(cookies);  // the one-time program proof
  std::vector<double> ms;
  for (int i = 0; i < 7; ++i) {
    const auto t0 = Clock::now();
    hermes::core::PortAttachment a = rt.attach_port(cookies);
    ms.push_back(static_cast<double>(ns_between(t0, Clock::now())) / 1e6);
  }
  return median(ms);
}

double replay_request_ns(const sim::DataPlane::Config& cfg, uint32_t workers,
                         const sim::DistSpec& bytes, uint64_t seed) {
  hermes::obs::Observability obs(workers);
  sim::DataPlane dp(cfg, workers, &obs);
  sim::Rng rng(seed ^ 0x4771ull);
  constexpr int kConns = 1024;
  constexpr int kWarm = 5000;
  constexpr int kPerPass = 20'000;
  std::vector<sim::Request> reqs(kWarm + kPasses * kPerPass);
  for (size_t i = 0; i < reqs.size(); ++i) {
    sim::Request& r = reqs[i];
    r.id = i + 1;
    r.conn = 1 + i % kConns;
    r.tenant = static_cast<hermes::TenantId>(r.conn % 32);
    r.bytes = static_cast<uint64_t>(std::max(1.0, bytes.sample(rng)));
    r.arrival = SimTime::micros(static_cast<int64_t>(10 * i));
  }
  auto serve = [&](size_t from, size_t to) {
    for (size_t i = from; i < to; ++i) {
      const sim::Request& r = reqs[i];
      const auto w = static_cast<hermes::WorkerId>(r.conn % workers);
      dp.on_request(w, r, /*last_on_conn=*/false, r.arrival);
      dp.on_response(w, r, r.arrival);
    }
  };
  serve(0, kWarm);
  return median_pass_ns(
      [&](int p) {
        const size_t from = kWarm + static_cast<size_t>(p) * kPerPass;
        serve(from, from + kPerPass);
      },
      kPerPass);
}

}  // namespace perfbench
