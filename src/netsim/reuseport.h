// SO_REUSEPORT group: several sockets bound to one port, with the kernel's
// hash-based selection and the SO_ATTACH_REUSEPORT_EBPF override hook
// (paper §2.2 and §5.4).
//
// Selection order mirrors reuseport_select_sock():
//   1. if a BPF program is attached, run it; if it selected a socket via
//      bpf_sk_select_reuseport() and returned kRetUseSelection, use that;
//   2. otherwise fall back to reciprocal_scale(hash, n) over the sockets.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bpf/vm.h"
#include "netsim/four_tuple.h"
#include "netsim/listening_socket.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace hermes::netsim {

class ReuseportGroup {
 public:
  explicit ReuseportGroup(PortId port) : port_(port) {}

  PortId port() const { return port_; }

  void add_socket(ListeningSocket* sock) {
    HERMES_CHECK(sock != nullptr && sock->port() == port_);
    sockets_.push_back(sock);
    by_cookie_[sock->cookie()] = sock;
  }

  const std::vector<ListeningSocket*>& sockets() const { return sockets_; }

  ListeningSocket* by_cookie(uint64_t cookie) const {
    auto it = by_cookie_.find(cookie);
    return it == by_cookie_.end() ? nullptr : it->second;
  }

  // SO_ATTACH_REUSEPORT_EBPF. The program must already be verified/loaded;
  // vm and prog must outlive the group (Hermes owns both).
  void attach_program(const bpf::Vm* vm, const bpf::LoadedProgram* prog) {
    vm_ = vm;
    prog_ = prog;
  }
  void detach_program() {
    vm_ = nullptr;
    prog_ = nullptr;
  }

  struct SelectStats {
    uint64_t bpf_selections = 0;   // program picked the socket
    uint64_t bpf_fallbacks = 0;    // program ran but declined (kRetFallback)
    uint64_t hash_selections = 0;  // no program attached
    uint64_t bpf_insns = 0;        // executed instructions (overhead, Table 5)
  };
  const SelectStats& stats() const { return stats_; }

  // Observability sink for dispatch decisions (nullable; not owned).
  void set_metrics(obs::PipelineMetrics* m) { metrics_ = m; }

  // Per-policy dispatch counter (sched.policy.<name>.dispatches), resolved
  // by whoever attaches the program — this layer doesn't know which
  // scheduling policy generated it. Nullable; not owned. Counted on every
  // successful program selection, alongside dispatch.bpf.
  void set_policy_counter(obs::Counter* c) { policy_dispatches_ = c; }

  // Socket selection for an incoming SYN.
  ListeningSocket* select(const FourTuple& tuple) {
    HERMES_CHECK_MSG(!sockets_.empty(), "reuseport group has no sockets");
    const uint32_t hash = skb_hash(tuple);
    ListeningSocket* picked = nullptr;
    if (prog_ != nullptr) {
      bpf::ReuseportCtx ctx;
      ctx.hash = hash;
      ctx.hash2 = locality_hash(tuple);
      ctx.ip_protocol = 6;  // IPPROTO_TCP
      const auto run = vm_->run(*prog_, ctx);
      stats_.bpf_insns += run.insns_executed;
      if (metrics_ != nullptr) {
        metrics_->bpf_tier_dispatches[kTierSlot]->inc(0);
        if (run.fused_hits != 0) {
          metrics_->bpf_fused_ops->add(0, run.fused_hits);
        }
        if (run.elided_checks != 0) {
          metrics_->bpf_elided_checks->add(0, run.elided_checks);
        }
      }
      if (run.ret == bpf::kRetUseSelection && ctx.selection_made) {
        if (ListeningSocket* s = by_cookie(ctx.selected_socket)) {
          ++stats_.bpf_selections;
          if (metrics_ != nullptr) metrics_->dispatch_bpf->inc(0);
          if (policy_dispatches_ != nullptr) policy_dispatches_->inc(0);
          picked = s;
        }
      }
      if (picked == nullptr) {
        // The program declined: survivor set below the dispatch minimum
        // (Algo. 2 line 4) — the kernel falls back to reuseport hashing.
        ++stats_.bpf_fallbacks;
        if (metrics_ != nullptr) metrics_->dispatch_fallback->inc(0);
      }
    } else {
      ++stats_.hash_selections;
      if (metrics_ != nullptr) metrics_->dispatch_hash->inc(0);
    }
    if (picked == nullptr) {
      const uint32_t idx =
          reciprocal_scale(hash, static_cast<uint32_t>(sockets_.size()));
      picked = sockets_[idx];
    }
    if (metrics_ != nullptr) metrics_->dispatch_picks->inc(picked->owner());
    return picked;
  }

 private:
  // The bpf.tierN_dispatches slot every program run is counted in.
  static constexpr size_t kTierSlot = static_cast<size_t>(bpf::default_tier());

  PortId port_;
  std::vector<ListeningSocket*> sockets_;
  std::unordered_map<uint64_t, ListeningSocket*> by_cookie_;
  const bpf::Vm* vm_ = nullptr;
  const bpf::LoadedProgram* prog_ = nullptr;
  obs::PipelineMetrics* metrics_ = nullptr;  // nullable; not owned
  obs::Counter* policy_dispatches_ = nullptr;  // nullable; not owned
  SelectStats stats_;
};

}  // namespace hermes::netsim
