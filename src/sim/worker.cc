#include "sim/worker.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace hermes::sim {

Worker::Worker(Config cfg, EventQueue& eq, netsim::NetStack& ns, Host host,
               core::HermesRuntime* hermes)
    : cfg_(cfg),
      eq_(eq),
      ns_(ns),
      host_(std::move(host)),
      hermes_(hermes),
      sockets_(ns.sockets_of(cfg.id)),
      dispatcher_(ns.config().mode == netsim::DispatchMode::UserDispatcher &&
                  cfg.id == 0),
      // The dispatcher's kDispatchCost covers its whole accept path.
      epoll_return_cost_(
          cfg.wakeup_cost +
          (dispatcher_ || netsim::uses_per_worker_sockets(ns.config().mode)
               ? SimTime::zero()
               : cfg.per_listen_socket_cost *
                     static_cast<int64_t>(sockets_.size()))) {
  HERMES_CHECK_MSG(!ns_.ports().empty(), "bind ports before building workers");
  HERMES_CHECK(!dispatcher_ || ns_.config().num_workers >= 2);
  if (hermes_ != nullptr) {
    hooks_.emplace(hermes_->hooks_for(cfg_.id));
  }
}

void Worker::start() {
  ns_.register_waiter(cfg_.id, this);
  if (hooks_) hooks_->on_loop_enter(eq_.now());
  block();
}

bool Worker::try_wake(netsim::ListeningSocket&) { return wake(); }

void Worker::deliver_request(const Request& req) {
  requests_.push_back(req);
  wake();
}

bool Worker::wake() {
  if (state_ != State::Blocked) return false;
  state_ = State::Woken;
  eq_.cancel(timeout_handle_);
  blocking_time_.record(eq_.now() - blocked_since_);
  eq_.schedule_after(SimTime::zero(), [this] { start_iteration(); });
  return true;
}

void Worker::adopt_connection(netsim::Connection conn) {
  HERMES_DCHECK(conn.valid() && conn.state() == netsim::ConnState::Accepted);
  conn.set_owner(cfg_.id);
  note_accepted(conn);
}

void Worker::note_accepted(netsim::Connection conn) {
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
      eq_.schedule_after(kEpollTimeout, [this] { on_timeout(); });
}

void Worker::on_timeout() {
  HERMES_DCHECK(state_ == State::Blocked);
  state_ = State::Woken;
  blocking_time_.record(eq_.now() - blocked_since_);
  start_iteration();
}

template <class F>
void Worker::spend(SimTime cost, F then) {
  busy_time_ += cost;
  busy_until_ = eq_.now() + cost;
  eq_.schedule_after(cost, std::move(then));
}

void Worker::start_iteration() {
  state_ = State::Running;
  ++loop_iterations_;

  const SimTime stage2 = run_stage2(/*at_start=*/true);  // §5.3.2 ablation

  const size_t n = collect_batch();
  events_per_wait_.record(n);
  if (hooks_) hooks_->on_events_returned(static_cast<int64_t>(n));
  if (n == 0) ++wasted_wakeups_;

  // The dispatcher's accepts are one serial span, the critical path that
  // makes its core the device's bottleneck.
  const SimTime overhead =
      epoll_return_cost_ +
      kDispatchCost * static_cast<int64_t>(hand_offs_.size()) + stage2;
  spend(overhead, [this] {
    if (!hand_offs_.empty()) hand_off();
    process_next();
  });
}

size_t Worker::collect_batch() {
  // Connection events first (they were triggered earlier in real time).
  batch_requests_ = std::min(requests_.size(), kMaxBatch);
  size_t n = batch_requests_;
  // One accept per ready listening socket (Fig. A1's accept_handler
  // dequeues a single connection per event); the dispatcher drains each.
  for (netsim::ListeningSocket* sock : sockets_) {
    while (n < kMaxBatch && !sock->accept_queue().empty()) {
      ++n;
      if (!dispatcher_) {
        batch_accepts_.push_back(sock);
        break;
      }
      hand_offs_.push_back(ns_.accept(*sock, kInvalidWorker));
    }
    if (n >= kMaxBatch) break;
  }
  return n;
}

void Worker::hand_off() {
  // Targets follow accept order, so a connection closed during the span
  // still uses up its turn.
  const auto serving = static_cast<WorkerId>(ns_.config().num_workers - 1);
  for (const netsim::Connection& conn : hand_offs_) {
    if (conn.valid()) host_.hand_off(next_target_, conn);
    next_target_ = 1 + next_target_ % serving;
  }
  hand_offs_.clear();
}

void Worker::process_next() {
  SimTime cost;
  if (batch_requests_ > 0) {
    cost = requests_.front().cost;
  } else if (next_accept_ < batch_accepts_.size()) {
    cost = cfg_.accept_cost;
  } else {
    batch_accepts_.clear();
    next_accept_ = 0;
    end_iteration();
    return;
  }
  if (cfg_.speed != 1.0) {
    cost = SimTime{static_cast<int64_t>(
        std::llround(static_cast<double>(cost.ns()) / cfg_.speed))};
  }
  event_proc_time_.record(cost);
  spend(cost, [this] { finish_event(); });
}

void Worker::finish_event() {
  if (hooks_) hooks_->on_event_processed();
  if (batch_requests_ > 0) {
    --batch_requests_;
    ++requests_done_;
    // Deliveries during the callback append, which leaves the head alone.
    if (host_.on_request_done) host_.on_request_done(*this, requests_.front());
    requests_.pop_front();
  } else {
    netsim::ListeningSocket& sock = *batch_accepts_[next_accept_++];
    const netsim::Connection conn = ns_.accept(sock, cfg_.id);
    if (conn) note_accepted(conn);  // a sibling may have drained it (herd)
  }
  process_next();
}

SimTime Worker::run_stage2(bool at_start) {
  if (hermes_ == nullptr || at_start != cfg_.schedule_at_loop_start ||
      eq_.now() < next_sync_) {
    return SimTime::zero();
  }
  next_sync_ = eq_.now() + cfg_.min_sync_interval;
  const bool published =
      hermes_->schedule_and_sync(cfg_.id, eq_.now()).published;
  return stage2_cost(cfg_, hermes_->group_width(cfg_.id), 1, published);
}

void Worker::end_iteration() {
  // Hermes stage 2 at the end of the loop body, a span of its own.
  const SimTime stage2 = run_stage2(/*at_start=*/false);
  if (stage2 == SimTime::zero()) return enter_loop(false);
  spend(stage2, [this] { enter_loop(true); });
}

void Worker::enter_loop(bool after_span) {
  // Heartbeat, then either re-run at once (events ready) or block in
  // epoll_wait. A Stage-2 span's completion starts the next iteration.
  if (hooks_) hooks_->on_loop_enter(eq_.now());

  const bool ready =
      !requests_.empty() ||
      std::any_of(sockets_.begin(), sockets_.end(),
                  [](const netsim::ListeningSocket* sock) {
                    return !sock->accept_queue().empty();
                  });
  if (!ready) return block();
  blocking_time_.record(0);
  state_ = State::Woken;
  if (after_span) return start_iteration();
  eq_.schedule_after(SimTime::zero(), [this] { start_iteration(); });
}

}  // namespace hermes::sim
