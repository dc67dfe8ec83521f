// Per-listening-socket accept queue: connections that completed the TCP
// handshake but have not yet been accept()ed by a userspace worker
// (paper §2.1, Fig. 1).
//
// Bounded like the kernel's (listen backlog): under reuseport a hung
// worker's queue filling up is exactly the failure mode the paper
// describes. NetStack checks the backlog before it allocates a connection
// and counts the drop (NetStack::Stats::drops), so push() past the backlog
// is a program error.
#pragma once

#include <cstddef>
#include <deque>

#include "netsim/conn_slab.h"
#include "util/check.h"

namespace hermes::netsim {

class AcceptQueue {
 public:
  explicit AcceptQueue(size_t backlog = 1024) : backlog_(backlog) {}

  // The caller has checked that the backlog has room.
  void push(Connection c) {
    HERMES_DCHECK(c.valid() && c.state() == ConnState::Queued);
    HERMES_CHECK_MSG(queue_.size() < backlog_, "accept queue: backlog full");
    queue_.push_back(c);
    if (queue_.size() > high_watermark_) high_watermark_ = queue_.size();
  }

  // accept(): dequeue the oldest pending connection; invalid view if empty.
  Connection pop() {
    if (queue_.empty()) return Connection{};
    Connection c = queue_.front();
    queue_.pop_front();
    return c;
  }

  bool empty() const { return queue_.empty(); }
  size_t size() const { return queue_.size(); }
  size_t backlog() const { return backlog_; }
  size_t high_watermark() const { return high_watermark_; }

 private:
  size_t backlog_;
  std::deque<Connection> queue_;
  size_t high_watermark_ = 0;
};

}  // namespace hermes::netsim
