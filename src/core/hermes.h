// HermesRuntime: ties the pieces of the closed loop together (paper §4.1).
//
//   stage 1  WorkerStatusTable (lock-free shm)      <- EventLoopHooks
//   stage 2  Scheduler (Algo. 1) + bitmap sync       <- schedule_and_sync()
//   stage 3  dispatch program (Algo. 2) over eBPF    <- PortAttachment
//
// The runtime is deliberately kernel-agnostic: it owns the bpf VM, the
// M_sel map (one u64 bitmap per worker group) and one verified image of
// the dispatch program (built, verified, compiled and proved once); per
// port it hands out a ReuseportSockArray plus that image bound to it. The
// simulator attaches those to netsim reuseport groups; the live demo
// drives them directly. Both consume identical code paths.
//
// Each stage has one implementation. Stage 2 always runs the gathered
// cascade with change suppression; its oracle,
// Scheduler::schedule_reference_with_order, is a pure function tests call
// on the same WST. The policy (Options::policy, cascade by default) picks
// the Stage-2 aux pipeline and the Stage-3 program. No environment
// variable selects anything.
//
// Workers with id >= 64 are handled by the two-level scheme the paper
// describes (§7): workers are partitioned into groups of
// `config.workers_per_group`; each group has its own bitmap slot in M_sel,
// each worker schedules only its own group's slice of the WST, and the
// dispatch program picks group-by-hash then worker-by-bitmap. A schedule
// gathers its group's slice once; the cascade and the policy's aux
// refresh both read that snapshot.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bpf/maps.h"
#include "bpf/vm.h"
#include "core/config.h"
#include "core/dispatch_prog.h"
#include "core/event_loop_hooks.h"
#include "core/fault_injection.h"
#include "core/policy.h"
#include "core/scheduler.h"
#include "core/wst.h"
#include "obs/observability.h"

namespace hermes::core {

// Per-port kernel-side state: the socket map and the dispatch program
// bound to it.
struct PortAttachment {
  std::unique_ptr<bpf::ReuseportSockArray> sock_map;
  std::unique_ptr<bpf::LoadedProgram> program;
};

class HermesRuntime {
 public:
  struct Options {
    HermesConfig config{};
    uint32_t num_workers = 4;
    // Optional fault-injection hooks: a test seam the torture tests plant
    // faults through (not owned). Null means every hook site is a
    // branch-not-taken.
    FaultInjector* faults = nullptr;
    // Optional observability sinks (metrics + trace rings; not owned).
    // Null disables all instrumentation at zero cost.
    obs::Observability* obs = nullptr;
    // Scheduling policy (core/policy.h): which Stage-2 aux pipeline +
    // Stage-3 dispatch program pair the runtime runs. Defaults to the
    // paper's cascade.
    PolicyKind policy = PolicyKind::Cascade;
    // Per-worker capacity weights for the weighted policy (empty = all 1).
    std::vector<uint32_t> worker_weights;
  };

  explicit HermesRuntime(const Options& opts);

  uint32_t num_workers() const { return num_workers_; }
  uint32_t num_groups() const { return num_groups_; }
  uint32_t workers_per_group() const { return wpg_; }
  // Workers in `w`'s group: the slice of the WST its Stage 2 scans.
  uint32_t group_width(WorkerId w) const {
    return std::min(wpg_, num_workers_ - w / wpg_ * wpg_);
  }
  const HermesConfig& config() const { return scheduler_.config(); }

  WorkerStatusTable& wst() { return wst_; }
  const WorkerStatusTable& wst() const { return wst_; }
  Scheduler& scheduler() { return scheduler_; }
  bpf::Vm& vm() { return vm_; }
  bpf::ArrayMap& sel_map() { return *sel_map_; }
  const SchedulingPolicy& policy() const { return *policy_; }
  PolicyKind policy_kind() const { return policy_->kind(); }
  // The active policy's auxiliary map (slot 2), or null for policies with
  // no aux state (cascade).
  bpf::ArrayMap* aux_map() { return aux_map_.get(); }

  // Stage-1 instrumentation handle for a worker (Fig. 9).
  EventLoopHooks hooks_for(WorkerId w) {
    return EventLoopHooks{wst_, w, faults_,
                          obs_ != nullptr ? &obs_->metrics : nullptr};
  }

  // Stage 2, executed by worker `self` at the end of its event loop:
  // cascade-filter the worker's own group and atomically publish the
  // bitmap to the kernel through M_sel. The group's WST slice is gathered
  // once, and the cascade and the policy's aux refresh both read that one
  // snapshot. Returns the filter result; result.published says whether the
  // store actually happened (it is skipped when the bitmap is unchanged
  // within config.sync_refresh_interval, or when fault injection drops
  // it).
  ScheduleResult schedule_and_sync(WorkerId self, SimTime now);

  // Stage-3 attachment for one port: builds the socket map from the given
  // per-worker socket cookies and binds the dispatch program to it. The
  // first call builds and loads the program (verify, compile), then proves
  // it (prove.h) from the verifier's analysis; every later call only binds
  // that image to the new socket array, which the bind step checks has the
  // verified shape. Aborts if the program fails verification or the proof
  // — that would be a build bug — before any port gets the image.
  PortAttachment attach_port(const std::vector<uint64_t>& worker_cookies);

  // Current kernel-visible bitmap of a group (diagnostics/tests).
  uint64_t kernel_bitmap(uint32_t group = 0) {
    return sel_map_->load_u64(group);
  }

  struct Counters {
    uint64_t schedules = 0;      // scheduler executions (Fig. 14)
    uint64_t syncs = 0;          // map-update "syscalls" (Table 5)
    uint64_t workers_selected_sum = 0;  // for avg pass ratio (Fig. 14)
    uint64_t syncs_dropped = 0;  // map updates suppressed by fault injection
    uint64_t syncs_suppressed = 0;  // stores skipped: bitmap unchanged
    uint64_t aux_publishes = 0;  // policy aux-map refreshes (word stores / 64)
    uint64_t program_loads = 0;  // dispatch-program verify + compile passes
  };
  const Counters& counters() const { return counters_; }

 private:
  // Everything after the schedule itself: counters, obs, change
  // suppression, the fault hook, and the M_sel store.
  void finish_sync(WorkerId self, uint32_t group, SimTime now,
                   ScheduleResult& res);

  // Policy aux refresh for one group: fill_aux over the given gathered
  // slice, then publish word-atomically into aux_map_[group]. No-op for
  // policies without aux state.
  void refresh_aux(WorkerId self, uint32_t group, WorkerId base,
                   uint32_t limit, SimTime now, const ScheduleResult& res,
                   const int64_t* enter, const int64_t* pending,
                   const int64_t* conns);

  uint32_t num_workers_;
  uint32_t wpg_;
  uint32_t num_groups_;
  std::vector<uint8_t> wst_memory_;  // the WST's bytes, 64 spare to align
  WorkerStatusTable wst_;
  FaultInjector* faults_;       // nullable; not owned
  obs::Observability* obs_;     // nullable; not owned
  Scheduler scheduler_;
  bpf::Vm vm_;
  std::unique_ptr<bpf::ArrayMap> sel_map_;
  std::unique_ptr<SchedulingPolicy> policy_;
  std::unique_ptr<bpf::ArrayMap> aux_map_;  // null: policy has no aux state
  // The dispatch program is a pure function of the runtime config, so one
  // verification, proof and compile covers every port; set by the first
  // attach_port once the proof holds.
  std::shared_ptr<const bpf::VerifiedImage> image_;
  Counters counters_;
  // Change-suppression cache (DESIGN.md §8): the last bitmap actually
  // stored into M_sel per group, and when. last_push_ns_ < 0 means "no
  // valid cache"; it also dates the previous sync for sync.gap_ns. Two
  // separate atomics can momentarily disagree under a cross-worker race;
  // the forced refresh after sync_refresh_interval bounds the damage to
  // one interval.
  std::vector<std::atomic<uint64_t>> last_pushed_bitmap_;
  std::vector<std::atomic<int64_t>> last_push_ns_;
};

}  // namespace hermes::core
