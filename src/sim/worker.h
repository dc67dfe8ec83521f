// Simulated userspace worker process: a run-to-completion epoll event loop
// (paper Fig. 9 / Fig. A1) driven by the discrete-event queue.
//
// Loop structure per iteration, exactly mirroring the paper:
//   on_loop_enter(now)                  <- avail heartbeat (hang detection)
//   batch = epoll_wait()                <- collect ready accepts + requests
//   busy += |batch|
//   for each event: process (costs CPU time); busy -= 1 after each
//   schedule_and_sync()                 <- Hermes stage 2 (at loop END — the
//                                          placement §5.3.2 argues for)
//   if nothing ready: block with the 5 ms timeout, else loop immediately
//
// A "hang" needs no special machinery: a poison request simply has a huge
// cost, so the worker stays inside the iteration and its avail timestamp
// goes stale — which is precisely how production hangs look to Hermes.
#pragma once

#include <deque>
#include <optional>
#include <functional>
#include <vector>

#include "core/hermes.h"
#include "netsim/netstack.h"
#include "simcore/event_queue.h"
#include "simcore/histogram.h"
#include "sim/request.h"

namespace hermes::sim {

class Worker final : public netsim::Waiter {
 public:
  struct Config {
    WorkerId id = 0;
    SimTime epoll_timeout = SimTime::millis(5);
    // Cost model of the loop machinery itself.
    SimTime wakeup_cost = SimTime::micros(2);       // epoll_wait return path
    SimTime accept_cost = SimTime::micros(3);       // accept() + epoll_ctl ADD
    SimTime per_listen_socket_cost = SimTime::nanos(300);  // O(#ports) scan
    // Hermes stage-2 costs (Table 5 accounting).
    SimTime scheduler_cost_per_worker = SimTime::nanos(60);
    SimTime sync_syscall_cost = SimTime::micros(1);
    int max_batch = 64;
    // Ablation (paper §5.3.2): run the scheduler at the START of the loop
    // iteration instead of the end — observes stale status and overloads
    // apparently-idle workers.
    bool schedule_at_loop_start = false;
    // Ablation: minimum spacing between schedule_and_sync calls. Zero =
    // every loop iteration (the paper's design); large values degrade the
    // closed loop toward a static (sk_lookup-style) steering table.
    SimTime min_sync_interval = SimTime::zero();
    // Relative core speed for heterogeneous-fleet scenarios: request and
    // accept costs are divided by this factor (2.0 = twice as fast). 1.0
    // keeps the cost model byte-identical to the homogeneous path.
    double speed = 1.0;
  };

  // Host callbacks (implemented by LbDevice).
  struct Host {
    // A connection was accepted by this worker.
    std::function<void(Worker&, netsim::Connection)> on_accepted;
    // A request finished processing at `now`.
    std::function<void(Worker&, const Request&)> on_request_done;
  };

  Worker(Config cfg, EventQueue& eq, netsim::NetStack& ns, Host host,
         core::HermesRuntime* hermes);

  WorkerId id() const { return cfg_.id; }

  // Must be called once after all ports are bound.
  void attach_sockets();

  // Start the event loop (enter epoll_wait).
  void start();

  // --- kernel-side notifications ---------------------------------------
  // Shared-socket modes (exclusive/rr/wakeall): wait-queue wakeup.
  bool try_wake(netsim::ListeningSocket& source) override;
  // Per-worker-socket modes (reuseport/hermes): socket became readable.
  void on_socket_ready(netsim::ListeningSocket& sock);

  // A request arrived on one of this worker's established connections.
  void deliver_request(const Request& req);

  // UserDispatcher mode: take ownership of a connection the dispatcher
  // accepted on our behalf (counts as an accept for this worker).
  void adopt_connection(netsim::Connection conn);

  // Immediate connection close bookkeeping (run from request completion).
  void note_conn_closed();

  // --- state ------------------------------------------------------------
  bool blocked() const { return state_ == State::Blocked; }
  int64_t live_connections() const { return live_conns_; }
  SimTime busy_time() const { return busy_time_; }
  uint64_t requests_done() const { return requests_done_; }
  uint64_t accepts_done() const { return accepts_done_; }
  uint64_t loop_iterations() const { return loop_iterations_; }
  uint64_t wasted_wakeups() const { return wasted_wakeups_; }

  // Per-worker distributions for Figs. 4 and 5.
  Histogram& events_per_wait() { return events_per_wait_; }
  Histogram& event_processing_time() { return event_proc_time_; }
  Histogram& blocking_time() { return blocking_time_; }

 private:
  enum class State : uint8_t { Blocked, Woken, Running };

  void block();
  void on_timeout();
  void start_iteration();
  void process_next();
  void finish_event();
  void end_iteration();
  size_t collect_batch();
  // False in UserDispatcher mode: the worker does not accept from
  // listening sockets itself; connections arrive via adopt_connection().
  bool accepts() const {
    return ns_.config().mode != netsim::DispatchMode::UserDispatcher;
  }

  Config cfg_;
  EventQueue& eq_;
  netsim::NetStack& ns_;
  Host host_;
  core::HermesRuntime* hermes_;          // null in non-Hermes modes
  std::optional<core::EventLoopHooks> hooks_;

  std::vector<netsim::ListeningSocket*> sockets_;
  std::deque<Request> pending_requests_;  // conn events not yet in a batch
  std::deque<WorkerEvent> batch_;
  WorkerEvent in_service_;  // popped by process_next, done at finish_event

  State state_ = State::Running;  // until start()
  EventQueue::Handle timeout_handle_{};
  SimTime blocked_since_{};
  SimTime last_sync_ = SimTime::nanos(-1);

  int64_t live_conns_ = 0;
  SimTime busy_time_{};
  uint64_t requests_done_ = 0;
  uint64_t accepts_done_ = 0;
  uint64_t loop_iterations_ = 0;
  uint64_t wasted_wakeups_ = 0;

  Histogram events_per_wait_{3};
  Histogram event_proc_time_{4};
  Histogram blocking_time_{4};
};

}  // namespace hermes::sim
