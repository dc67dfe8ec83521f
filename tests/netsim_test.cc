// Kernel substrate: jhash, accept queues, wakeup disciplines, reuseport
// selection, and NetStack dispatch across all modes.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "netsim/netstack.h"
#include "simcore/rng.h"

namespace hermes::netsim {
namespace {

FourTuple tuple_of(uint32_t client, uint16_t sport, uint16_t dport) {
  return FourTuple{client, 0x0a000001, sport, dport};
}

// ------------------------------------------------------------------ hash

TEST(JhashTest, DeterministicAndSpreads) {
  const FourTuple a = tuple_of(1, 1000, 80);
  const FourTuple b = tuple_of(1, 1001, 80);
  EXPECT_EQ(skb_hash(a), skb_hash(a));
  EXPECT_NE(skb_hash(a), skb_hash(b));  // near-certain for jhash
}

TEST(JhashTest, UniformBucketSpread) {
  sim::Rng rng(1);
  constexpr uint32_t kBuckets = 16;
  uint64_t counts[kBuckets] = {};
  constexpr int kSamples = 160000;
  for (int i = 0; i < kSamples; ++i) {
    const FourTuple t = tuple_of(static_cast<uint32_t>(rng.next_u64()),
                                 static_cast<uint16_t>(rng.next_u64()), 80);
    ++counts[reciprocal_scale(skb_hash(t), kBuckets)];
  }
  for (uint64_t c : counts) {
    EXPECT_NEAR(static_cast<double>(c), kSamples / 16.0, kSamples / 16.0 * 0.05);
  }
}

TEST(JhashTest, LocalityHashIgnoresSource) {
  const FourTuple a = tuple_of(1, 1000, 443);
  const FourTuple b = tuple_of(99, 2000, 443);
  EXPECT_EQ(locality_hash(a), locality_hash(b));  // same daddr/dport
  FourTuple c = a;
  c.dport = 444;
  EXPECT_NE(locality_hash(a), locality_hash(c));
}

// ----------------------------------------------------------- AcceptQueue

TEST(AcceptQueueTest, FifoOrder) {
  ConnSlab slab;
  AcceptQueue q(4);
  const Connection c1 = slab.create(FourTuple{}, 80, 0, SimTime::zero());
  const Connection c2 = slab.create(FourTuple{}, 80, 0, SimTime::zero());
  EXPECT_TRUE(q.push(c1));
  EXPECT_TRUE(q.push(c2));
  EXPECT_EQ(q.pop().id(), 1u);
  EXPECT_EQ(q.pop().id(), 2u);
  EXPECT_FALSE(q.pop().valid());
}

TEST(AcceptQueueTest, BacklogOverflowDrops) {
  ConnSlab slab;
  AcceptQueue q(2);
  Connection c[3];
  for (int i = 0; i < 3; ++i) {
    c[i] = slab.create(FourTuple{}, 80, 0, SimTime::zero());
  }
  EXPECT_TRUE(q.push(c[0]));
  EXPECT_TRUE(q.push(c[1]));
  EXPECT_FALSE(q.push(c[2]));
  EXPECT_EQ(q.dropped(), 1u);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.high_watermark(), 2u);
}

// ------------------------------------------------------------- WaitQueue

class RecordingWaiter : public Waiter {
 public:
  explicit RecordingWaiter(bool idle) : idle_(idle) {}
  bool try_wake(ListeningSocket&) override {
    ++wakeups_;
    return idle_;
  }
  bool idle_;
  int wakeups_ = 0;
};

TEST(WaitQueueTest, ExclusiveLifoWakesMostRecentlyAddedIdle) {
  // Registration order w0, w1, w2: w2 is at the head (epoll_ctl prepends).
  WaitQueue q;
  RecordingWaiter w0(true), w1(true), w2(true);
  ListeningSocket sock(80, 16);
  q.add(&w0);
  q.add(&w1);
  q.add(&w2);
  const auto stats = q.wake(sock, WakePolicy::ExclusiveLifo);
  EXPECT_EQ(stats.woken, 1);
  EXPECT_EQ(w2.wakeups_, 1);  // the LIFO favourite
  EXPECT_EQ(w1.wakeups_, 0);
  EXPECT_EQ(w0.wakeups_, 0);
  // Again: still w2 — this is the concentration pathology.
  q.wake(sock, WakePolicy::ExclusiveLifo);
  EXPECT_EQ(w2.wakeups_, 2);
}

TEST(WaitQueueTest, ExclusiveLifoSkipsBusyHead) {
  WaitQueue q;
  RecordingWaiter w0(true), w1(false), w2(false);  // head w2 busy, w1 busy
  ListeningSocket sock(80, 16);
  q.add(&w0);
  q.add(&w1);
  q.add(&w2);
  const auto stats = q.wake(sock, WakePolicy::ExclusiveLifo);
  EXPECT_EQ(stats.woken, 1);
  EXPECT_EQ(w0.wakeups_, 1);  // first idle from the head
}

TEST(WaitQueueTest, ExclusiveRrRotates) {
  WaitQueue q;
  RecordingWaiter w0(true), w1(true), w2(true);
  ListeningSocket sock(80, 16);
  q.add(&w0);
  q.add(&w1);
  q.add(&w2);  // head order: w2, w1, w0
  q.wake(sock, WakePolicy::ExclusiveRr);
  q.wake(sock, WakePolicy::ExclusiveRr);
  q.wake(sock, WakePolicy::ExclusiveRr);
  // Each got exactly one wakeup — fair.
  EXPECT_EQ(w0.wakeups_, 1);
  EXPECT_EQ(w1.wakeups_, 1);
  EXPECT_EQ(w2.wakeups_, 1);
}

TEST(WaitQueueTest, WakeAllIsThunderingHerd) {
  WaitQueue q;
  RecordingWaiter w0(true), w1(true), w2(true), w3(false);
  ListeningSocket sock(80, 16);
  q.add(&w0);
  q.add(&w1);
  q.add(&w2);
  q.add(&w3);
  const auto stats = q.wake(sock, WakePolicy::WakeAll);
  // All idle waiters woke; one wins, two are wasted; busy one slept on.
  EXPECT_EQ(stats.woken, 1);
  EXPECT_EQ(stats.wasted_wakeups, 2);
  EXPECT_EQ(w0.wakeups_ + w1.wakeups_ + w2.wakeups_, 3);
  EXPECT_EQ(w3.wakeups_, 1);  // woken but reported busy
}

TEST(WaitQueueTest, NoIdleWaitersWakesNobody) {
  WaitQueue q;
  RecordingWaiter w0(false), w1(false);
  ListeningSocket sock(80, 16);
  q.add(&w0);
  q.add(&w1);
  const auto stats = q.wake(sock, WakePolicy::ExclusiveLifo);
  EXPECT_EQ(stats.woken, 0);
}

TEST(WaitQueueTest, RemoveUnregisters) {
  WaitQueue q;
  RecordingWaiter w0(true), w1(true);
  ListeningSocket sock(80, 16);
  q.add(&w0);
  q.add(&w1);
  q.remove(&w1);
  q.wake(sock, WakePolicy::ExclusiveLifo);
  EXPECT_EQ(w1.wakeups_, 0);
  EXPECT_EQ(w0.wakeups_, 1);
}

// --------------------------------------------------------- ReuseportGroup

TEST(ReuseportGroupTest, HashSelectionIsDeterministicAndCovers) {
  ReuseportGroup group(443);
  std::vector<std::unique_ptr<ListeningSocket>> socks;
  for (WorkerId w = 0; w < 4; ++w) {
    socks.push_back(std::make_unique<ListeningSocket>(443, 16, w));
    group.add_socket(socks.back().get());
  }
  sim::Rng rng(2);
  std::set<WorkerId> owners;
  for (int i = 0; i < 1000; ++i) {
    const FourTuple t = tuple_of(static_cast<uint32_t>(rng.next_u64()),
                                 static_cast<uint16_t>(rng.next_u64()), 443);
    ListeningSocket* s1 = group.select(t);
    EXPECT_EQ(group.select(t), s1);  // deterministic per tuple
    owners.insert(s1->owner());
  }
  EXPECT_EQ(owners.size(), 4u);  // all sockets reachable
  EXPECT_EQ(group.stats().hash_selections, 2000u);
}

TEST(ReuseportGroupTest, CookieResolution) {
  ReuseportGroup group(80);
  ListeningSocket s(80, 16, 0);
  group.add_socket(&s);
  EXPECT_EQ(group.by_cookie(s.cookie()), &s);
  EXPECT_EQ(group.by_cookie(0xdeadbeef), nullptr);
}

TEST(ReuseportGroupTest, CookiesAreGloballyUnique) {
  ListeningSocket a(80, 4), b(80, 4), c(81, 4);
  EXPECT_NE(a.cookie(), b.cookie());
  EXPECT_NE(b.cookie(), c.cookie());
}

// --------------------------------------------------------------- NetStack

class NotifyingWaiter : public Waiter {
 public:
  bool idle = true;
  std::vector<PortId> woken_on;
  bool try_wake(ListeningSocket& src) override {
    if (!idle) return false;
    woken_on.push_back(src.port());
    return true;
  }
};

TEST(NetStackTest, ExclusiveModeSharedSocketDispatch) {
  NetStack::Config cfg;
  cfg.mode = DispatchMode::EpollExclusive;
  cfg.num_workers = 3;
  NetStack ns(cfg);
  ns.add_port(80);

  NotifyingWaiter w0, w1, w2;
  // Register in order w0, w1, w2 => w2 at wait-queue heads.
  ns.register_waiter(&w0);
  ns.register_waiter(&w1);
  ns.register_waiter(&w2);

  const Connection c = ns.on_connection_request(tuple_of(1, 1000, 80), 80, 0,
                                                SimTime::zero());
  ASSERT_TRUE(c.valid());
  EXPECT_EQ(w2.woken_on.size(), 1u);  // LIFO favourite
  EXPECT_TRUE(w0.woken_on.empty());

  // The woken worker accepts from the shared socket.
  ListeningSocket* shared = ns.shared_socket(80);
  ASSERT_NE(shared, nullptr);
  const Connection acc = ns.accept(*shared, 2);
  EXPECT_EQ(acc, c);
  EXPECT_EQ(acc.owner(), 2u);
  EXPECT_EQ(acc.state(), ConnState::Accepted);
}

TEST(NetStackTest, ExclusiveAllBusyCountsUnnotified) {
  NetStack::Config cfg;
  cfg.mode = DispatchMode::EpollExclusive;
  cfg.num_workers = 2;
  NetStack ns(cfg);
  ns.add_port(80);
  NotifyingWaiter w0, w1;
  w0.idle = w1.idle = false;
  ns.register_waiter(&w0);
  ns.register_waiter(&w1);
  ASSERT_TRUE(ns.on_connection_request(tuple_of(1, 1, 80), 80, 0,
                                       SimTime::zero())
                  .valid());
  EXPECT_EQ(ns.stats().unnotified, 1u);
  // Connection still queued for the next epoll_wait caller.
  EXPECT_EQ(ns.shared_socket(80)->accept_queue().size(), 1u);
}

TEST(NetStackTest, ReuseportModeNotifiesOwningWorker) {
  NetStack::Config cfg;
  cfg.mode = DispatchMode::Reuseport;
  cfg.num_workers = 4;
  NetStack ns(cfg);
  ns.add_port(443);

  std::map<WorkerId, int> notified;
  ns.set_socket_ready_fn(
      [&](WorkerId w, ListeningSocket& s) {
        EXPECT_EQ(s.owner(), w);
        ++notified[w];
      });

  sim::Rng rng(3);
  for (int i = 0; i < 400; ++i) {
    ns.on_connection_request(
        tuple_of(static_cast<uint32_t>(rng.next_u64()),
                 static_cast<uint16_t>(rng.next_u64()), 443),
        443, 0, SimTime::zero());
  }
  // Hashing spreads notifications over all four workers.
  EXPECT_EQ(notified.size(), 4u);
  int total = 0;
  for (auto& [w, n] : notified) total += n;
  EXPECT_EQ(total, 400);
}

TEST(NetStackTest, BacklogOverflowDropsAndCounts) {
  NetStack::Config cfg;
  cfg.mode = DispatchMode::Reuseport;
  cfg.num_workers = 1;
  cfg.backlog = 2;
  NetStack ns(cfg);
  ns.add_port(80);
  for (int i = 0; i < 5; ++i) {
    ns.on_connection_request(tuple_of(1, static_cast<uint16_t>(i), 80), 80, 0,
                             SimTime::zero());
  }
  EXPECT_EQ(ns.stats().drops, 3u);
  EXPECT_EQ(ns.stats().connections, 2u);
  EXPECT_EQ(ns.live_connections(), 2u);
}

TEST(NetStackTest, CloseReleasesConnection) {
  NetStack::Config cfg;
  cfg.mode = DispatchMode::Reuseport;
  cfg.num_workers = 1;
  NetStack ns(cfg);
  ns.add_port(80);
  const Connection c = ns.on_connection_request(tuple_of(1, 1, 80), 80, 0,
                                                SimTime::zero());
  ASSERT_TRUE(c.valid());
  ListeningSocket* sock = ns.worker_socket(80, 0);
  ASSERT_NE(sock, nullptr);
  EXPECT_EQ(ns.accept(*sock, 0), c);
  ns.close(c);
  EXPECT_EQ(ns.live_connections(), 0u);
  EXPECT_FALSE(c.valid());  // generation bump invalidated the view
}

TEST(NetStackTest, SocketsOfWorkerPerMode) {
  {
    NetStack::Config cfg;
    cfg.mode = DispatchMode::EpollExclusive;
    cfg.num_workers = 2;
    NetStack ns(cfg);
    ns.add_port(80);
    ns.add_port(81);
    // Shared mode: every worker watches every port's shared socket —
    // the O(#ports) epoll registration the paper calls out in Case 1.
    EXPECT_EQ(ns.sockets_of(0).size(), 2u);
    EXPECT_EQ(ns.sockets_of(0), ns.sockets_of(1));
  }
  {
    NetStack::Config cfg;
    cfg.mode = DispatchMode::Reuseport;
    cfg.num_workers = 2;
    NetStack ns(cfg);
    ns.add_port(80);
    ns.add_port(81);
    const auto w0 = ns.sockets_of(0);
    const auto w1 = ns.sockets_of(1);
    ASSERT_EQ(w0.size(), 2u);
    EXPECT_NE(w0[0], w1[0]);  // per-worker sockets
    EXPECT_EQ(w0[0]->owner(), 0u);
    EXPECT_EQ(w1[0]->owner(), 1u);
  }
}

TEST(NetStackTest, HermesModeWithoutProgramFallsBackToHash) {
  NetStack::Config cfg;
  cfg.mode = DispatchMode::HermesMode;
  cfg.num_workers = 2;
  NetStack ns(cfg);
  ns.add_port(80);
  int notified = 0;
  ns.set_socket_ready_fn([&](WorkerId, ListeningSocket&) { ++notified; });
  ASSERT_TRUE(ns.on_connection_request(tuple_of(7, 7, 80), 80, 0,
                                       SimTime::zero())
                  .valid());
  EXPECT_EQ(notified, 1);
  EXPECT_EQ(ns.group(80)->stats().hash_selections, 1u);
}

}  // namespace
}  // namespace hermes::netsim
