// Simulated userspace worker process: a run-to-completion epoll event loop
// (paper Fig. 9 / Fig. A1) driven by the discrete-event queue.
//
// A worker watches the listening sockets NetStack::sockets_of gives it,
// taken at construction and registered on in start(), and keeps one
// arrival-ordered queue of the requests on its connections. Loop
// structure per iteration, exactly mirroring the paper:
//   on_loop_enter(now)                  <- avail heartbeat (hang detection)
//   batch = epoll_wait()                <- the first kMaxBatch queued
//                                          requests, then one accept per
//                                          ready socket in port order
//   busy += |batch|
//   for each event: process (costs CPU time); busy -= 1 after each
//   schedule_and_sync()                 <- Hermes stage 2 (at loop END — the
//                                          placement §5.3.2 argues for), a
//                                          span of stage2_cost()
//   if nothing ready: block with the 5 ms timeout, else loop immediately
// A request is served from the head of the queue and popped when it
// completes. Each iteration pays wakeup_cost, plus, on shared sockets,
// per_listen_socket_cost per watched port (fixed at construction). Every
// cost is a span of simulated time, one after another on this core.
//
// A "hang" needs no special machinery: a poison request simply has a huge
// cost, so the worker stays inside the iteration and its avail timestamp
// goes stale — which is precisely how production hangs look to Hermes.
//
// Under DispatchMode::UserDispatcher (paper §2.2) the same loop is the
// userspace dispatcher on worker 0's core: sockets_of gives it every
// shared socket and the serving workers 1..N-1 none. Its batch accepts up
// to kMaxBatch connections at once, after any queued requests; its epoll
// return spends kDispatchCost on each as one span (in place of the port
// scan), then hands each connection still open to the serving workers in
// turn (Host::hand_off, which LbDevice wires to the target's
// adopt_connection), and then it serves its requests like any worker.
// Until the hand-off a connection has no owner; one closed meanwhile is
// skipped, so no worker ever accepts it.
//
// The worker records the per-worker distributions of Figs. 4 and 5 —
// events per epoll_wait, per-event processing time, blocking time — into
// obs::Histogram, the repository's one log-linear histogram.
#pragma once

#include <algorithm>
#include <deque>
#include <optional>
#include <functional>
#include <vector>

#include "core/hermes.h"
#include "netsim/netstack.h"
#include "obs/metrics.h"
#include "simcore/event_queue.h"
#include "sim/request.h"

namespace hermes::sim {

class Worker final : public netsim::Waiter {
 public:
  // epoll_wait timeout: an idle worker re-enters its loop this often
  // (core::HermesConfig's hang threshold and sync refresh build on it).
  static constexpr SimTime kEpollTimeout = SimTime::millis(5);
  // Most events one epoll_wait returns.
  static constexpr size_t kMaxBatch = 64;
  // UserDispatcher: the dispatcher's cost per connection, accept() +
  // picking a worker + handing the fd over (pipe/queue write + wakeup).
  static constexpr SimTime kDispatchCost = SimTime::micros(18);

  struct Config {
    WorkerId id = 0;
    // Cost model of the loop machinery itself. Settable so an analytic
    // queueing oracle (M/M/1, M/M/N) can zero every cost but service.
    SimTime wakeup_cost = SimTime::micros(2);       // epoll_wait return path
    SimTime accept_cost = SimTime::micros(3);       // accept() + epoll_ctl ADD
    SimTime per_listen_socket_cost = SimTime::nanos(300);  // O(#ports) scan
    // Hermes stage-2 costs (Table 5 accounting).
    SimTime scheduler_cost_per_worker = SimTime::nanos(60);
    SimTime sync_syscall_cost = SimTime::micros(1);
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
    // UserDispatcher: the dispatcher hands a connection to worker `to`.
    std::function<void(WorkerId to, netsim::Connection)> hand_off;
  };

  // Simulated CPU of `schedules` Stage-2 runs over a group `width` workers
  // wide, `publishes` of which stored the bitmap (Table 5's shares).
  static SimTime stage2_cost(const Config& cfg, uint32_t width,
                             int64_t schedules, int64_t publishes) {
    return cfg.scheduler_cost_per_worker * (width * schedules) +
           cfg.sync_syscall_cost * publishes;
  }

  // Takes the sockets NetStack::sockets_of(cfg.id) names, so every port
  // must be bound first.
  Worker(Config cfg, EventQueue& eq, netsim::NetStack& ns, Host host,
         core::HermesRuntime* hermes);

  WorkerId id() const { return cfg_.id; }

  // epoll_ctl on the watched sockets, then enter epoll_wait. Shared
  // sockets wake their last registered waiter first (LIFO), so the start
  // order of the workers is their wakeup preference.
  void start();

  // --- kernel-side notifications ---------------------------------------
  // Wait-queue wakeup from a socket this worker registered on.
  bool try_wake(netsim::ListeningSocket& source) override;

  // A request arrived on one of this worker's established connections.
  void deliver_request(const Request& req);

  // UserDispatcher mode: take ownership of a connection the dispatcher
  // (worker 0) accepted on our behalf; counts as an accept for this worker.
  void adopt_connection(netsim::Connection conn);

  // Immediate connection close bookkeeping (run from request completion).
  void note_conn_closed();

  // --- state ------------------------------------------------------------
  bool blocked() const { return state_ == State::Blocked; }
  int64_t live_connections() const { return live_conns_; }
  // Busy time spent so far: the spans charged, less the rest of the span
  // in progress, so never more than the simulated time elapsed.
  SimTime busy_time() const {
    return busy_time_ - std::max(SimTime::zero(), busy_until_ - eq_.now());
  }
  uint64_t requests_done() const { return requests_done_; }
  uint64_t accepts_done() const { return accepts_done_; }
  uint64_t loop_iterations() const { return loop_iterations_; }
  uint64_t wasted_wakeups() const { return wasted_wakeups_; }

  // Per-worker distributions for Figs. 4 and 5.
  obs::Histogram& events_per_wait() { return events_per_wait_; }
  obs::Histogram& event_processing_time() { return event_proc_time_; }
  obs::Histogram& blocking_time() { return blocking_time_; }

 private:
  enum class State : uint8_t { Blocked, Woken, Running };

  // Leaves epoll_wait if blocked in it; false if already awake.
  bool wake();
  // An accepted or adopted connection is now this worker's.
  void note_accepted(netsim::Connection conn);
  void block();
  void on_timeout();
  void start_iteration();
  size_t collect_batch();
  // Dispatcher: hands this batch's connections to the serving workers.
  void hand_off();
  void process_next();
  void finish_event();
  // Runs a span of `cost` on this core, then `then`.
  template <class F> void spend(SimTime cost, F then);
  // Hermes stage 2, if `at_start` is its placement and min_sync_interval
  // has passed since the last; returns its cost (zero if it did not run).
  SimTime run_stage2(bool at_start);
  void end_iteration();
  void enter_loop(bool after_span);

  Config cfg_;
  EventQueue& eq_;
  netsim::NetStack& ns_;
  Host host_;
  core::HermesRuntime* hermes_;          // null in non-Hermes modes
  std::optional<core::EventLoopHooks> hooks_;
  const std::vector<netsim::ListeningSocket*> sockets_;
  // UserDispatcher's worker 0: accepts for the serving workers.
  const bool dispatcher_;
  // wakeup_cost plus, on shared sockets, the O(#ports) scan (the
  // dispatch factor of Table 3 case 1).
  const SimTime epoll_return_cost_;

  // Requests in arrival order; the head is in service, or next.
  std::deque<Request> requests_;
  // This batch: its requests still at the head of requests_, then the
  // sockets to accept one connection from, in port order.
  size_t batch_requests_ = 0;
  std::vector<netsim::ListeningSocket*> batch_accepts_;
  size_t next_accept_ = 0;
  // Dispatcher: this batch's accepts, in accept order, and the next
  // serving worker in the round-robin.
  std::vector<netsim::Connection> hand_offs_;
  WorkerId next_target_ = 1;

  State state_ = State::Running;  // until start()
  EventQueue::Handle timeout_handle_{};
  SimTime blocked_since_{};
  SimTime next_sync_{};  // min_sync_interval after the last Stage 2

  int64_t live_conns_ = 0;
  SimTime busy_time_{};
  SimTime busy_until_{};  // end of the last span charged
  uint64_t requests_done_ = 0;
  uint64_t accepts_done_ = 0;
  uint64_t loop_iterations_ = 0;
  uint64_t wasted_wakeups_ = 0;

  obs::Histogram events_per_wait_{3};
  obs::Histogram event_proc_time_{4};
  obs::Histogram blocking_time_{4};
};

}  // namespace hermes::sim
