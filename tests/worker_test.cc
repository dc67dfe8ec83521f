// Direct Worker unit tests (no LbDevice): batch limits, wakeup accounting,
// loop cadence, hermes hook integration.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "sim/worker.h"

namespace hermes::sim {
namespace {

// Minimal harness around one worker on a netstack (reuseport by default).
class WorkerHarness {
 public:
  explicit WorkerHarness(
      Worker::Config wc, uint32_t workers = 1,
      netsim::DispatchMode mode = netsim::DispatchMode::Reuseport,
      const std::vector<PortId>& ports = {80}) {
    netsim::NetStack::Config nc;
    nc.mode = mode;
    nc.num_workers = workers;
    ns_.emplace(nc);
    for (PortId p : ports) ns_->add_port(p);

    Worker::Host host;
    host.on_accepted = [this](Worker&, netsim::Connection c) {
      ++accepted_;
      accepted_ports_.push_back(c.port());
    };
    host.on_request_done = [this](Worker&, const Request& r) {
      done_.push_back(r.id);
    };
    worker_.emplace(wc, eq_, *ns_, host, nullptr);
    worker_->start();
  }

  Request make_request(SimTime cost, RequestId id) {
    Request r;
    r.id = id;
    r.conn = 1;
    r.arrival = eq_.now();
    r.cost = cost;
    return r;
  }

  EventQueue eq_;
  std::optional<netsim::NetStack> ns_;
  std::optional<Worker> worker_;
  int accepted_ = 0;
  std::vector<PortId> accepted_ports_;
  std::vector<RequestId> done_;
};

TEST(WorkerTest, IdleLoopTicksAtEpollTimeout) {
  static_assert(Worker::kEpollTimeout == SimTime::millis(5));
  WorkerHarness h(Worker::Config{});
  h.eq_.run_until(SimTime::millis(51));
  // One iteration per 5 ms timeout: ~10, all of them empty wakeups.
  EXPECT_NEAR(static_cast<double>(h.worker_->loop_iterations()), 10, 1);
  EXPECT_EQ(h.worker_->wasted_wakeups(), h.worker_->loop_iterations());
}

TEST(WorkerTest, RequestsProcessedInFifoOrder) {
  WorkerHarness h(Worker::Config{});
  for (RequestId i = 1; i <= 5; ++i) {
    h.worker_->deliver_request(h.make_request(SimTime::micros(100), i));
  }
  h.eq_.run_until(SimTime::millis(10));
  EXPECT_EQ(h.done_, (std::vector<RequestId>{1, 2, 3, 4, 5}));
}

TEST(WorkerTest, BatchCappedAtMaxBatch) {
  WorkerHarness h(Worker::Config{});
  constexpr RequestId kRequests = 3 * Worker::kMaxBatch;
  for (RequestId i = 1; i <= kRequests; ++i) {
    h.worker_->deliver_request(h.make_request(SimTime::micros(10), i));
  }
  h.eq_.run_until(SimTime::millis(10));
  // All requests complete (across multiple iterations)...
  EXPECT_EQ(h.done_.size(), kRequests);
  // ...and the fullest epoll_wait returned exactly kMaxBatch events.
  EXPECT_EQ(h.worker_->events_per_wait().max_value(),
            static_cast<uint64_t>(Worker::kMaxBatch));
}

TEST(WorkerTest, BusyTimeAccountsForProcessing) {
  WorkerHarness h(Worker::Config{});
  h.worker_->deliver_request(h.make_request(SimTime::millis(3), 1));
  h.eq_.run_until(SimTime::millis(10));
  EXPECT_GE(h.worker_->busy_time(), SimTime::millis(3));
  EXPECT_LT(h.worker_->busy_time(), SimTime::millis(4));
}

TEST(WorkerTest, AcceptsFromOwnSocket) {
  WorkerHarness h(Worker::Config{});
  netsim::FourTuple t{1, 2, 3, 80};
  ASSERT_TRUE(h.ns_->on_connection_request(t, 0, h.eq_.now()).valid());
  h.eq_.run_until(SimTime::millis(5));
  EXPECT_EQ(h.accepted_, 1);
  EXPECT_EQ(h.worker_->live_connections(), 1);
  EXPECT_EQ(h.worker_->accepts_done(), 1u);
}

// collect_batch takes one accept per ready socket in port (bind) order,
// whatever order the SYNs arrived in: 70 ports, bound in an order unlike
// their numbers, each get one SYN in reverse bind order; every fifth port
// stays idle.
TEST(WorkerTest, AcceptsInPortOrder) {
  std::vector<PortId> ports;
  for (uint32_t i = 0; i < 70; ++i) {
    ports.push_back(static_cast<PortId>(1000 + (i * 37) % 70));
  }
  WorkerHarness h(Worker::Config{}, 1, netsim::DispatchMode::Reuseport,
                  ports);
  std::vector<PortId> expected;
  for (size_t i = 0; i < ports.size(); ++i) {
    if (i % 5 != 4) expected.push_back(ports[i]);
  }
  for (auto it = expected.rbegin(); it != expected.rend(); ++it) {
    netsim::FourTuple t{1, 2, static_cast<uint16_t>(*it), *it};
    ASSERT_TRUE(h.ns_->on_connection_request(t, 0, h.eq_.now()).valid());
  }
  h.eq_.run_until(SimTime::millis(5));
  EXPECT_EQ(h.accepted_ports_, expected);
}

TEST(WorkerTest, AdoptConnectionBypassesAcceptPath) {
  // UserDispatcher mode: a serving worker never accepts from the shared
  // socket itself, so a queued SYN stays there until the dispatcher (worker
  // 0, absent here) takes it.
  Worker::Config wc;
  wc.id = 1;
  WorkerHarness h(wc, 2, netsim::DispatchMode::UserDispatcher);
  netsim::FourTuple t{1, 2, 3, 80};
  const netsim::Connection conn =
      h.ns_->on_connection_request(t, 0, h.eq_.now());
  ASSERT_TRUE(conn.valid());
  h.eq_.run_until(SimTime::millis(12));
  EXPECT_EQ(h.accepted_, 0);
  EXPECT_EQ(h.worker_->accepts_done(), 0u);
  // Simulate the dispatcher's accept + handoff.
  const netsim::Connection acc = h.ns_->accept(*h.ns_->shared_socket(80), 0);
  ASSERT_EQ(acc, conn);
  h.worker_->adopt_connection(acc);
  EXPECT_EQ(h.accepted_, 1);
  EXPECT_EQ(h.worker_->live_connections(), 1);
}

TEST(WorkerTest, BlockedWorkerWakesOnDelivery) {
  WorkerHarness h(Worker::Config{});
  h.eq_.run_until(SimTime::millis(2));
  EXPECT_TRUE(h.worker_->blocked());
  h.worker_->deliver_request(h.make_request(SimTime::micros(50), 1));
  h.eq_.run_until(SimTime::millis(2) + SimTime::micros(200));
  EXPECT_EQ(h.done_.size(), 1u);
  // Woken early: the blocking time recorded is well under the 5ms timeout.
  EXPECT_LT(h.worker_->blocking_time().quantile(0),
            static_cast<uint64_t>(SimTime::millis(3).ns()));
}

}  // namespace
}  // namespace hermes::sim
