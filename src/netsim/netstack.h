// NetStack: the simulated kernel's connection-dispatch path.
//
// Owns ports, listening sockets (one shared socket per port, or one socket
// per worker per port under reuseport), reuseport groups, and connections.
// The sim layer feeds SYNs in and accept()s connections out; everything in
// between — socket selection, accept-queue backpressure, wait-queue wakeups
// — happens here with kernel semantics.
#pragma once

#include <functional>
#include <memory>
#include <span>
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

  // In per-worker-socket modes the kernel "wakes" the owning worker by
  // marking its socket readable; the sim worker hooks this to schedule its
  // epoll_wait return.
  using SocketReadyFn = std::function<void(WorkerId, ListeningSocket&)>;

  explicit NetStack(Config cfg);

  const Config& config() const { return cfg_; }

  // --- topology -------------------------------------------------------
  // Bind a port: creates the shared socket, or one socket per worker plus
  // the reuseport group, depending on mode.
  void add_port(PortId port);

  // Shared-socket modes: register a worker's waiter on every port's wait
  // queue. Registration order matters (LIFO!): the last registered worker
  // sits at the head of every wait queue, exactly as with epoll_ctl.
  void register_waiter(Waiter* w);

  void set_socket_ready_fn(SocketReadyFn fn) { socket_ready_ = std::move(fn); }

  // Hermes attachment (per-port groups all share one program).
  void attach_bpf(const bpf::Vm* vm, const bpf::LoadedProgram* prog);

  // Observability sinks (nullable; not owned). Applies to already-bound
  // ports and to every port bound afterwards. Instruments socket selection
  // (dispatch picks/fallbacks) and the accept queues (depth, drops).
  void set_obs(obs::Observability* obs);

  // --- data path -------------------------------------------------------
  // A SYN arrives (handshake is modeled as instantaneous; the paper's
  // phenomena live after the handshake). Returns the connection view, or an
  // invalid view if the selected socket's backlog was full (drop).
  Connection on_connection_request(const FourTuple& tuple, PortId port,
                                   TenantId tenant, SimTime now);

  // A SYN burst: `tuples.size()` connection requests to one port at one
  // timestamp. Socket selection goes through ReuseportGroup::select_batch,
  // amortizing program/plan and metric-sink resolution across the burst;
  // per-connection admission semantics match on_connection_request exactly.
  // Returns the number established (drops excluded); when `out` is
  // non-null it receives one entry per SYN, an invalid view for drops.
  size_t on_connection_burst(std::span<const FourTuple> tuples, PortId port,
                             TenantId tenant, SimTime now,
                             Connection* out = nullptr);

  // Worker-side accept() on a specific socket.
  Connection accept(ListeningSocket& sock, WorkerId worker);

  void close(Connection c);

  // --- introspection ----------------------------------------------------
  ListeningSocket* shared_socket(PortId port);
  ListeningSocket* worker_socket(PortId port, WorkerId worker);
  ReuseportGroup* group(PortId port);
  const std::vector<PortId>& ports() const { return port_order_; }

  // All sockets a given worker's epoll instance watches.
  std::vector<ListeningSocket*> sockets_of(WorkerId worker);

  struct Stats {
    uint64_t connections = 0;
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

  // Admission path shared by the scalar and burst entries: everything
  // after socket selection (connection creation, backlog push or drop,
  // accounting, wakeup).
  Connection admit(const FourTuple& tuple, PortId port, TenantId tenant,
                   SimTime now, ListeningSocket* sock);

  Config cfg_;
  std::vector<ListeningSocket*> burst_socks_;  // select_batch scratch
  std::unordered_map<PortId, PortEntry> ports_;
  std::vector<PortId> port_order_;
  ConnSlab conns_;
  SocketReadyFn socket_ready_;
  const bpf::Vm* pending_vm_ = nullptr;
  const bpf::LoadedProgram* pending_prog_ = nullptr;
  obs::Observability* obs_ = nullptr;  // nullable; not owned
  Stats stats_;
};

}  // namespace hermes::netsim
