// Userspace dispatcher baseline (paper §2.2): a dedicated process sits on
// the shared listening sockets, accept()s every new connection, and hands
// it to a backend worker under a fair policy (round-robin here). Common in
// database systems (PostgreSQL-style), but — as the paper argues — a
// network LB's dispatcher sits on the critical path and saturates under
// high CPS: its single core caps the whole device's connection rate.
//
// The dispatcher consumes worker 0's core and is the only waiter on the
// shared sockets (it registers as worker 0); serving workers are ids
// 1..N-1, and it hands each connection to one by calling its
// adopt_connection directly. Until that hand-off a connection has no
// owner; one closed meanwhile (LbDevice::close_fraction) is dropped from
// the hand-off, so no worker ever accepts it.
#pragma once

#include <memory>
#include <vector>

#include "netsim/netstack.h"
#include "simcore/event_queue.h"
#include "sim/worker.h"
#include "util/check.h"
#include "util/types.h"

namespace hermes::sim {

class Dispatcher final : public netsim::Waiter {
 public:
  // Per-connection cost on the dispatcher's core: accept() + picking a
  // worker + handing the fd over (pipe/queue write + wakeup).
  static constexpr SimTime kDispatchCost = SimTime::micros(18);
  // epoll_wait return path, as Worker::Config::wakeup_cost.
  static constexpr SimTime kWakeupCost = SimTime::micros(2);
  // epoll_wait timeout, the same 5 ms as the workers' loop.
  static constexpr SimTime kIdleTimeout = SimTime::millis(5);
  // Connections accepted per wakeup.
  static constexpr int kMaxBatch = 64;

  // `workers` is the device's worker vector (not owned; outlives the
  // dispatcher). Worker 0 is this dispatcher's core and serves nothing.
  Dispatcher(EventQueue& eq, netsim::NetStack& ns,
             const std::vector<std::unique_ptr<Worker>>& workers)
      : eq_(eq), ns_(ns), workers_(workers) {
    HERMES_CHECK(workers_.size() >= 2);
  }

  void attach_sockets() { sockets_ = ns_.sockets_of(0); }

  void start() {
    ns_.register_waiter(0, this);
    block();
  }

  bool try_wake(netsim::ListeningSocket&) override {
    if (state_ != State::Blocked) return false;
    state_ = State::Woken;
    eq_.cancel(timeout_);
    eq_.schedule_after(SimTime::zero(), [this] { run(); });
    return true;
  }

  SimTime busy_time() const { return busy_time_; }
  uint64_t dispatched() const { return dispatched_; }

 private:
  enum class State : uint8_t { Blocked, Woken, Running };

  void block() {
    state_ = State::Blocked;
    timeout_ = eq_.schedule_after(kIdleTimeout, [this] {
      state_ = State::Woken;
      run();
    });
  }

  void run() {
    state_ = State::Running;
    busy_time_ += kWakeupCost;
    // Drain up to a batch of pending connections across all ports,
    // charging the per-connection dispatch cost serially (the critical
    // path that makes the dispatcher the bottleneck).
    int taken = 0;
    SimTime spent = kWakeupCost;
    for (netsim::ListeningSocket* sock : sockets_) {
      while (taken < kMaxBatch && !sock->accept_queue().empty()) {
        const netsim::Connection conn = ns_.accept(*sock, kInvalidWorker);
        if (!conn) break;
        pending_.push_back({conn, next_worker_});
        // Round-robin over the serving workers 1..N-1.
        next_worker_ =
            1 + next_worker_ % static_cast<WorkerId>(workers_.size() - 1);
        ++taken;
        spent += kDispatchCost;
      }
      if (taken >= kMaxBatch) break;
    }
    busy_time_ += spent - kWakeupCost;
    dispatched_ += static_cast<uint64_t>(taken);

    // Deliver after the dispatch processing time has elapsed.
    eq_.schedule_after(spent, [this] {
      for (auto& [conn, target] : pending_) {
        if (conn.valid()) workers_[target]->adopt_connection(conn);
      }
      pending_.clear();
      // More queued? immediately re-run; else block.
      for (netsim::ListeningSocket* sock : sockets_) {
        if (!sock->accept_queue().empty()) {
          eq_.schedule_after(SimTime::zero(), [this] { run(); });
          state_ = State::Woken;
          return;
        }
      }
      block();
    });
  }

  EventQueue& eq_;
  netsim::NetStack& ns_;
  const std::vector<std::unique_ptr<Worker>>& workers_;

  std::vector<netsim::ListeningSocket*> sockets_;
  std::vector<std::pair<netsim::Connection, WorkerId>> pending_;
  State state_ = State::Running;
  EventQueue::Handle timeout_{};
  WorkerId next_worker_ = 1;
  SimTime busy_time_{};
  uint64_t dispatched_ = 0;
};

}  // namespace hermes::sim
