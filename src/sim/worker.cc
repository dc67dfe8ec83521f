#include "sim/worker.h"

#include <cmath>

#include "util/check.h"

namespace hermes::sim {

Worker::Worker(Config cfg, EventQueue& eq, netsim::NetStack& ns, Host host,
               core::HermesRuntime* hermes)
    : cfg_(cfg), eq_(eq), ns_(ns), host_(std::move(host)), hermes_(hermes) {
  if (hermes_ != nullptr) {
    hooks_.emplace(hermes_->hooks_for(cfg_.id));
  }
}

void Worker::attach_sockets() { sockets_ = ns_.sockets_of(cfg_.id); }

void Worker::start() {
  HERMES_CHECK_MSG(!sockets_.empty() || !accepts(),
                   "attach_sockets() before start()");
  if (hooks_) hooks_->on_loop_enter(eq_.now());
  block();
}

bool Worker::try_wake(netsim::ListeningSocket&) {
  if (state_ != State::Blocked) return false;
  state_ = State::Woken;
  eq_.cancel(timeout_handle_);
  blocking_time_.record(eq_.now() - blocked_since_);
  eq_.schedule_after(SimTime::zero(), [this] { start_iteration(); });
  return true;
}

void Worker::on_socket_ready(netsim::ListeningSocket& sock) {
  // Per-worker sockets: only the owner is notified.
  HERMES_DCHECK(sock.owner() == cfg_.id);
  (void)sock;
  try_wake(sock);
}

void Worker::deliver_request(const Request& req) {
  pending_requests_.push_back(req);
  if (state_ == State::Blocked) {
    state_ = State::Woken;
    eq_.cancel(timeout_handle_);
    blocking_time_.record(eq_.now() - blocked_since_);
    eq_.schedule_after(SimTime::zero(), [this] { start_iteration(); });
  }
}

void Worker::adopt_connection(netsim::Connection conn) {
  HERMES_DCHECK(conn.valid() && conn.state() == netsim::ConnState::Accepted);
  conn.set_owner(cfg_.id);
  ++accepts_done_;
  ++live_conns_;
  if (hooks_) hooks_->on_conn_open();
  if (host_.on_accepted) host_.on_accepted(*this, conn);
}

void Worker::note_conn_closed() {
  --live_conns_;
  if (hooks_) hooks_->on_conn_close();
}

void Worker::block() {
  state_ = State::Blocked;
  blocked_since_ = eq_.now();
  timeout_handle_ =
      eq_.schedule_after(cfg_.epoll_timeout, [this] { on_timeout(); });
}

void Worker::on_timeout() {
  HERMES_DCHECK(state_ == State::Blocked);
  state_ = State::Woken;
  blocking_time_.record(eq_.now() - blocked_since_);
  start_iteration();
}

size_t Worker::collect_batch() {
  size_t n = 0;
  // Connection events first (they were triggered earlier in real time).
  while (!pending_requests_.empty() &&
         n < static_cast<size_t>(cfg_.max_batch)) {
    WorkerEvent ev;
    ev.kind = WorkerEvent::Kind::Request;
    ev.request = pending_requests_.front();
    pending_requests_.pop_front();
    batch_.push_back(ev);
    ++n;
  }
  // One accept per ready listening socket per iteration (Fig. A1's
  // accept_handler dequeues a single connection per event).
  if (!accepts()) return n;
  for (netsim::ListeningSocket* sock : sockets_) {
    if (n >= static_cast<size_t>(cfg_.max_batch)) break;
    if (!sock->accept_queue().empty()) {
      WorkerEvent ev;
      ev.kind = WorkerEvent::Kind::Accept;
      ev.socket = sock;
      batch_.push_back(ev);
      ++n;
    }
  }
  return n;
}

void Worker::start_iteration() {
  state_ = State::Running;
  ++loop_iterations_;

  if (cfg_.schedule_at_loop_start && hermes_ != nullptr) {
    hermes_->schedule_and_sync(cfg_.id, eq_.now());
  }

  const size_t n = collect_batch();
  events_per_wait_.record(static_cast<int64_t>(n));
  if (hooks_) hooks_->on_events_returned(static_cast<int64_t>(n));
  if (n == 0) ++wasted_wakeups_;

  // epoll_wait return overhead; shared-socket modes pay per watched port
  // (the O(#ports) dispatch factor of Table 3 case 1).
  SimTime overhead = cfg_.wakeup_cost;
  if (!netsim::uses_per_worker_sockets(ns_.config().mode)) {
    overhead += cfg_.per_listen_socket_cost *
                static_cast<int64_t>(sockets_.size());
  }
  busy_time_ += overhead;
  eq_.schedule_after(overhead, [this] { process_next(); });
}

void Worker::process_next() {
  if (batch_.empty()) {
    end_iteration();
    return;
  }
  in_service_ = batch_.front();
  batch_.pop_front();

  SimTime cost = in_service_.kind == WorkerEvent::Kind::Accept
                     ? cfg_.accept_cost
                     : in_service_.request.cost;
  if (cfg_.speed != 1.0) {
    cost = SimTime{static_cast<int64_t>(
        std::llround(static_cast<double>(cost.ns()) / cfg_.speed))};
  }
  busy_time_ += cost;
  event_proc_time_.record(cost);
  // Capturing only `this` keeps the closure inside std::function's inline
  // buffer: one event is in service at a time, so it waits in a member.
  eq_.schedule_after(cost, [this] { finish_event(); });
}

void Worker::finish_event() {
  if (hooks_) hooks_->on_event_processed();
  if (in_service_.kind == WorkerEvent::Kind::Accept) {
    const netsim::Connection conn = ns_.accept(*in_service_.socket, cfg_.id);
    if (conn) {  // may have been drained by a sibling (herd)
      ++accepts_done_;
      ++live_conns_;
      if (hooks_) hooks_->on_conn_open();
      if (host_.on_accepted) host_.on_accepted(*this, conn);
    }
  } else {
    ++requests_done_;
    if (host_.on_request_done) {
      host_.on_request_done(*this, in_service_.request);
    }
  }
  process_next();
}

void Worker::end_iteration() {
  // Hermes stage 2 at the end of the loop body.
  if (hermes_ != nullptr && !cfg_.schedule_at_loop_start &&
      (last_sync_.ns() < 0 ||
       eq_.now() - last_sync_ >= cfg_.min_sync_interval)) {
    busy_time_ += cfg_.scheduler_cost_per_worker *
                  static_cast<int64_t>(hermes_->workers_per_group());
    const auto res = hermes_->schedule_and_sync(cfg_.id, eq_.now());
    // The map-update "syscall" (Table 5) is only paid when the bitmap was
    // actually stored — change-suppressed syncs skip it.
    if (res.published) busy_time_ += cfg_.sync_syscall_cost;
    last_sync_ = eq_.now();
  }

  // Next loop entry: heartbeat, then either immediately re-run (events
  // ready) or block in epoll_wait.
  if (hooks_) hooks_->on_loop_enter(eq_.now());

  bool ready = !pending_requests_.empty();
  if (!ready && accepts()) {
    for (netsim::ListeningSocket* sock : sockets_) {
      if (!sock->accept_queue().empty()) {
        ready = true;
        break;
      }
    }
  }
  if (ready) {
    blocking_time_.record(0);
    eq_.schedule_after(SimTime::zero(), [this] { start_iteration(); });
    state_ = State::Woken;
  } else {
    block();
  }
}

}  // namespace hermes::sim
