#include "netsim/netstack.h"

#include "util/check.h"

namespace hermes::netsim {

NetStack::NetStack(Config cfg) : cfg_(cfg) {
  HERMES_CHECK(cfg_.num_workers > 0);
}

void NetStack::add_port(PortId port) {
  HERMES_CHECK_MSG(ports_.find(port) == ports_.end(), "port already bound");
  PortEntry entry;
  if (uses_per_worker_sockets(cfg_.mode)) {
    entry.rp_group = std::make_unique<ReuseportGroup>(port);
    entry.per_worker.reserve(cfg_.num_workers);
    for (WorkerId w = 0; w < cfg_.num_workers; ++w) {
      auto sock = std::make_unique<ListeningSocket>(port, cfg_.backlog, w);
      entry.rp_group->add_socket(sock.get());
      entry.per_worker.push_back(std::move(sock));
    }
    if (pending_prog_ != nullptr) {
      entry.rp_group->attach_program(pending_vm_, pending_prog_);
    }
    if (obs_ != nullptr) entry.rp_group->set_metrics(&obs_->metrics);
  } else {
    entry.shared = std::make_unique<ListeningSocket>(port, cfg_.backlog);
  }
  ports_.emplace(port, std::move(entry));
  port_order_.push_back(port);
}

void NetStack::register_waiter(Waiter* w) {
  HERMES_CHECK_MSG(!uses_per_worker_sockets(cfg_.mode),
                   "waiters only exist in shared-socket modes");
  for (auto& [port, entry] : ports_) {
    entry.shared->wait_queue().add(w);
  }
}

void NetStack::set_obs(obs::Observability* obs) {
  obs_ = obs;
  for (auto& [port, entry] : ports_) {
    if (entry.rp_group != nullptr) {
      entry.rp_group->set_metrics(obs != nullptr ? &obs->metrics : nullptr);
    }
  }
}

void NetStack::attach_bpf(const bpf::Vm* vm, const bpf::LoadedProgram* prog) {
  HERMES_CHECK_MSG(cfg_.mode == DispatchMode::HermesMode,
                   "bpf program attach requires Hermes mode");
  pending_vm_ = vm;
  pending_prog_ = prog;
  for (auto& [port, entry] : ports_) {
    entry.rp_group->attach_program(vm, prog);
  }
}

Connection NetStack::on_connection_request(const FourTuple& tuple,
                                           PortId port, TenantId tenant,
                                           SimTime now) {
  auto it = ports_.find(port);
  HERMES_CHECK_MSG(it != ports_.end(), "SYN to unbound port");
  PortEntry& entry = it->second;

  ListeningSocket* sock = nullptr;
  if (uses_per_worker_sockets(cfg_.mode)) {
    sock = entry.rp_group->select(tuple);
    if (obs_ != nullptr) {
      obs_->traces.write(sock->owner(), obs::TraceType::Dispatch, now,
                         sock->owner(), skb_hash(tuple), port);
    }
  } else {
    sock = entry.shared.get();
  }
  return admit(tuple, port, tenant, now, sock);
}

size_t NetStack::on_connection_burst(std::span<const FourTuple> tuples,
                                     PortId port, TenantId tenant, SimTime now,
                                     Connection* out) {
  auto it = ports_.find(port);
  HERMES_CHECK_MSG(it != ports_.end(), "SYN to unbound port");
  PortEntry& entry = it->second;

  const bool per_worker = uses_per_worker_sockets(cfg_.mode);
  if (per_worker) {
    burst_socks_.resize(tuples.size());
    entry.rp_group->select_batch(tuples, burst_socks_);
  }

  size_t established = 0;
  for (size_t i = 0; i < tuples.size(); ++i) {
    ListeningSocket* sock =
        per_worker ? burst_socks_[i] : entry.shared.get();
    if (per_worker && obs_ != nullptr) {
      obs_->traces.write(sock->owner(), obs::TraceType::Dispatch, now,
                         sock->owner(), skb_hash(tuples[i]), port);
    }
    const Connection c = admit(tuples[i], port, tenant, now, sock);
    if (out != nullptr) out[i] = c;
    if (c) ++established;
  }
  return established;
}

Connection NetStack::admit(const FourTuple& tuple, PortId port,
                           TenantId tenant, SimTime now,
                           ListeningSocket* sock) {
  // Shared sockets have no owning worker; account those on shard 0.
  const WorkerId shard = sock->owner() == kInvalidWorker ? 0 : sock->owner();

  if (sock->accept_queue().size() >= sock->accept_queue().backlog()) {
    // Backlog overflow: drop the SYN without ever allocating a slab row.
    sock->accept_queue().note_drop();
    ++stats_.drops;
    if (obs_ != nullptr) {
      obs_->metrics.accept_dropped->inc(shard);
      obs_->traces.write(shard, obs::TraceType::Drop, now, port, 0,
                         sock->accept_queue().size());
    }
    return Connection{};
  }

  const Connection c = conns_.create(tuple, port, tenant, now);
  HERMES_CHECK(sock->accept_queue().push(c));
  ++stats_.connections;
  if (obs_ != nullptr) {
    obs_->metrics.accept_enqueued->inc(shard);
    obs_->metrics.accept_depth->record(shard, sock->accept_queue().size());
    obs_->traces.write(shard, obs::TraceType::Accept, now, port, c.id(),
                       sock->accept_queue().size());
  }

  if (uses_per_worker_sockets(cfg_.mode)) {
    // The owning worker's epoll reports the socket readable.
    if (socket_ready_) socket_ready_(sock->owner(), *sock);
  } else {
    const WakePolicy policy =
        cfg_.mode == DispatchMode::EpollWakeAll   ? WakePolicy::WakeAll
        : cfg_.mode == DispatchMode::EpollRr      ? WakePolicy::ExclusiveRr
        : cfg_.mode == DispatchMode::IoUringFifo  ? WakePolicy::ExclusiveFifo
                                                  : WakePolicy::ExclusiveLifo;
    const auto ws = sock->wait_queue().wake(*sock, policy);
    stats_.wasted_wakeups += static_cast<uint64_t>(ws.wasted_wakeups);
    if (ws.woken == 0) {
      // All waiters busy: the event stays ready; the next epoll_wait
      // caller will pick it up (kernel semantics, nothing lost).
      ++stats_.unnotified;
    }
  }
  return c;
}

Connection NetStack::accept(ListeningSocket& sock, WorkerId worker) {
  const Connection c = sock.accept_queue().pop();
  if (!c) return c;
  c.set_state(ConnState::Accepted);
  c.set_owner(worker);
  return c;
}

void NetStack::close(Connection c) {
  // Generation bump: every outstanding view of this connection goes stale.
  conns_.destroy(c);
}

ListeningSocket* NetStack::shared_socket(PortId port) {
  auto it = ports_.find(port);
  return it == ports_.end() ? nullptr : it->second.shared.get();
}

ListeningSocket* NetStack::worker_socket(PortId port, WorkerId worker) {
  auto it = ports_.find(port);
  if (it == ports_.end() || it->second.per_worker.size() <= worker) {
    return nullptr;
  }
  return it->second.per_worker[worker].get();
}

ReuseportGroup* NetStack::group(PortId port) {
  auto it = ports_.find(port);
  return it == ports_.end() ? nullptr : it->second.rp_group.get();
}

std::vector<ListeningSocket*> NetStack::sockets_of(WorkerId worker) {
  std::vector<ListeningSocket*> out;
  for (PortId port : port_order_) {
    PortEntry& entry = ports_.at(port);
    if (uses_per_worker_sockets(cfg_.mode)) {
      out.push_back(entry.per_worker[worker].get());
    } else {
      out.push_back(entry.shared.get());
    }
  }
  return out;
}

}  // namespace hermes::netsim
