// The paper's Appendix B walkthrough (Figs. A3/A4) executed on the real
// components: requests a, b1..b4 where `a` costs twice a `b`, under the
// three dispatch modes. Shows why Hermes spreads the work while exclusive
// piles it on the wait-queue head and reuseport hashes blindly.
#include <cstdio>

#include "core/hermes.h"
#include "netsim/netstack.h"

using namespace hermes;

namespace {

const char* kReq[] = {"a ", "b1", "b2", "b3", "b4"};

void run_mode(netsim::DispatchMode mode) {
  std::printf("--- %s ---\n", netsim::to_string(mode));

  netsim::NetStack::Config nc;
  nc.mode = mode;
  nc.num_workers = 3;
  netsim::NetStack ns(nc);
  ns.add_port(80);

  // Hermes wiring (runtime + per-port attachment).
  core::HermesRuntime::Options opts;
  opts.num_workers = 3;
  opts.config.theta_ratio = 1.0;  // small worker count: wide offset
  core::HermesRuntime rt(opts);
  core::PortAttachment att;
  if (mode == netsim::DispatchMode::HermesMode) {
    std::vector<uint64_t> cookies;
    for (WorkerId w = 0; w < 3; ++w) {
      cookies.push_back(ns.worker_socket(80, w)->cookie());
    }
    att = rt.attach_port(cookies);
    ns.group(80)->attach_program(&rt.vm(), att.program.get());
  }

  // Workers: W1..W3 in paper numbering = 0..2 here. A waiter stub per
  // worker reports which worker the kernel woke: on the shared socket
  // (exclusive mode) the first idle one in LIFO order, on a per-worker
  // socket (reuseport, Hermes) its owner.
  struct Stub final : netsim::Waiter {
    WorkerId id;
    bool busy = false;
    WorkerId* last;
    bool try_wake(netsim::ListeningSocket&) override {
      if (busy) return false;
      *last = id;
      return true;
    }
  };
  WorkerId last_woken = kInvalidWorker;
  Stub stubs[3];
  for (WorkerId w = 0; w < 3; ++w) {
    stubs[w].id = w;
    stubs[w].last = &last_woken;
    // On the shared socket W3 (id 2) ends up at the head.
    ns.register_waiter(w, &stubs[w]);
  }

  const SimTime t = SimTime::millis(1);
  for (WorkerId w = 0; w < 3; ++w) rt.hooks_for(w).on_loop_enter(t);

  // Requests arrive in order a, b1..b4 from distinct clients.
  for (int i = 0; i < 5; ++i) {
    if (mode == netsim::DispatchMode::HermesMode) {
      rt.schedule_and_sync(0, t);  // userspace scheduler runs between conns
    }
    netsim::FourTuple tuple{0x01010000u + (uint32_t)i * 7919u, 0x0a000001,
                            (uint16_t)(20000 + i * 131), 80};
    const netsim::Connection conn = ns.on_connection_request(tuple, 0, t);

    const WorkerId assigned = last_woken;
    if (netsim::uses_per_worker_sockets(mode)) {
      ns.accept(*ns.worker_socket(80, assigned), assigned);
    } else {
      ns.accept(*ns.shared_socket(80), assigned);
      stubs[assigned].busy = true;  // now processing; cleared when done
    }
    (void)conn;

    // Update the WST as the worker would: request `a` = 2 events of cost
    // 2t each; `b` = 2 events of cost t. We track "busy" as pending events.
    const int events = 2;
    rt.hooks_for(assigned).on_conn_open();
    rt.hooks_for(assigned).on_events_returned(events);
    std::printf("  %s -> W%u   (WST after: ", kReq[i], assigned + 1);
    for (WorkerId w = 0; w < 3; ++w) {
      const auto s = rt.wst().read(w);
      std::printf("W%u{busy=%ld,conn=%ld} ", w + 1, (long)s.pending_events,
                  (long)s.connections);
    }
    std::printf(")\n");

    // Cheap requests complete before the next arrival; the expensive `a`
    // keeps its worker busy (and, for Hermes, heavy in the WST).
    if (i > 0) {
      rt.hooks_for(assigned).on_event_processed();
      rt.hooks_for(assigned).on_event_processed();
      rt.hooks_for(assigned).on_loop_enter(t);
      if (!netsim::uses_per_worker_sockets(mode)) {
        stubs[assigned].busy = false;
      }
    }
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("== paper Figs. A3/A4 walkthrough: requests a, b1..b4,"
              " 3 workers ==\n(`a` is expensive and keeps its worker busy"
              " throughout)\n\n");
  run_mode(netsim::DispatchMode::EpollExclusive);
  run_mode(netsim::DispatchMode::Reuseport);
  run_mode(netsim::DispatchMode::HermesMode);
  std::printf("Reading: exclusive funnels b1..b4 to the wait-queue head"
              " while it is idle;\nreuseport may hash b's onto the worker"
              " stuck on `a`; Hermes's WST keeps\nthe busy worker out of"
              " the bitmap, so the b's spread over idle workers.\n");
  return 0;
}
