// NetStack: the simulated kernel's connection-dispatch path.
//
// Owns ports, listening sockets (one shared socket per port, or one socket
// per worker per port under reuseport), reuseport groups, and connections.
// The sim layer feeds SYNs in one at a time (on_connection_request) and
// accept()s connections out; everything in between — socket selection,
// accept-queue backpressure, wait-queue wakeups — happens here with kernel
// semantics. As in Linux, a SYN wakes its waiters one way in every mode:
// through the wait queue of the socket it was queued on. The modes differ
// only in which socket that is (the one shared socket, or the reuseport
// pick) and in who waits there (every worker, the socket's owner, or —
// under UserDispatcher — worker 0 alone, whose loop is the dispatcher).
// sockets_of(w) alone says which sockets worker w watches.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "netsim/conn_slab.h"

#include "netsim/listening_socket.h"
#include "netsim/reuseport.h"
#include "netsim/wait_queue.h"
#include "obs/observability.h"
#include "util/types.h"

namespace hermes::netsim {

enum class DispatchMode : uint8_t {
  EpollWakeAll,    // pre-4.5 epoll: shared sockets, thundering herd
  EpollExclusive,  // shared sockets, WQ_FLAG_EXCLUSIVE (LIFO)
  EpollRr,         // shared sockets, round-robin wakeup patch
  IoUringFifo,     // shared sockets, io_uring-style fixed FIFO wakeups (§8)
  UserDispatcher,  // shared sockets drained by a userspace dispatcher (§2.2)
  Reuseport,       // per-worker sockets, hash selection
  HermesMode,      // per-worker sockets, eBPF-overridden selection
};

inline const char* to_string(DispatchMode m) {
  switch (m) {
    case DispatchMode::EpollWakeAll: return "epoll-wakeall";
    case DispatchMode::EpollExclusive: return "epoll-exclusive";
    case DispatchMode::EpollRr: return "epoll-rr";
    case DispatchMode::IoUringFifo: return "iouring-fifo";
    case DispatchMode::UserDispatcher: return "user-dispatcher";
    case DispatchMode::Reuseport: return "reuseport";
    case DispatchMode::HermesMode: return "hermes";
  }
  return "?";
}

inline bool uses_per_worker_sockets(DispatchMode m) {
  return m == DispatchMode::Reuseport || m == DispatchMode::HermesMode;
}

class NetStack {
 public:
  struct Config {
    DispatchMode mode = DispatchMode::EpollExclusive;
    uint32_t num_workers = 4;
    size_t backlog = 1024;
  };

  explicit NetStack(Config cfg);

  const Config& config() const { return cfg_; }

  // --- topology -------------------------------------------------------
  // Bind a port: creates the shared socket, or one socket per worker plus
  // the reuseport group, depending on mode.
  void add_port(PortId port);

  // epoll_ctl for worker `w`: add `waiter` to the wait queue of every
  // socket in sockets_of(w). A per-worker socket's queue then holds only
  // its owner. On shared sockets registration order matters (LIFO!): the
  // last registered worker sits at the head of every wait queue, exactly
  // as with epoll_ctl. The waiter is not owned and must outlive the stack.
  void register_waiter(WorkerId w, Waiter* waiter);

  // Observability sinks (nullable; not owned). Applies to already-bound
  // ports and to every port bound afterwards. Instruments socket selection
  // (dispatch picks/fallbacks) and the accept queues (depth, drops).
  void set_obs(obs::Observability* obs);

  // --- data path -------------------------------------------------------
  // A SYN to `tuple.dport` arrives (handshake is modeled as instantaneous;
  // the paper's phenomena live after the handshake): socket selection (the
  // reuseport group runs its program once), then accept-queue admission
  // and the wakeup. Returns the connection view, or an invalid view if the
  // selected socket's backlog was full (drop).
  Connection on_connection_request(const FourTuple& tuple, TenantId tenant,
                                   SimTime now);

  // Worker-side accept() on a specific socket.
  Connection accept(ListeningSocket& sock, WorkerId worker);

  void close(Connection c);

  // --- introspection ----------------------------------------------------
  ListeningSocket* shared_socket(PortId port);
  ListeningSocket* worker_socket(PortId port, WorkerId worker);
  ReuseportGroup* group(PortId port);
  const std::vector<PortId>& ports() const { return port_order_; }

  // All sockets a given worker's epoll instance watches, in port order:
  // its own socket per port under reuseport, else every shared socket —
  // except under UserDispatcher, where worker 0 (the dispatcher) watches
  // them all and workers 1..N-1 watch none. sim::Worker takes its list
  // from here.
  std::vector<ListeningSocket*> sockets_of(WorkerId worker);

  struct Stats {
    uint64_t drops = 0;             // backlog overflow
    uint64_t wasted_wakeups = 0;    // thundering-herd overhead
    uint64_t unnotified = 0;        // queued while every waiter was busy
  };
  const Stats& stats() const { return stats_; }
  uint64_t live_connections() const { return conns_.live(); }

  // The SoA connection arena: fleet-scale scans (imbalance tables, PCC
  // audits) stream its columns directly instead of walking a map.
  ConnSlab& conns() { return conns_; }

 private:
  struct PortEntry {
    std::unique_ptr<ListeningSocket> shared;              // shared modes
    std::vector<std::unique_ptr<ListeningSocket>> per_worker;
    std::unique_ptr<ReuseportGroup> rp_group;
  };

  Config cfg_;
  std::unordered_map<PortId, PortEntry> ports_;
  std::vector<PortId> port_order_;
  ConnSlab conns_;
  obs::Observability* obs_ = nullptr;  // nullable; not owned
  Stats stats_;
};

}  // namespace hermes::netsim
