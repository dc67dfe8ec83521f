#include "core/hermes.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "bpf/analysis/prove.h"
#include "util/check.h"

namespace hermes::core {

namespace {

uint32_t groups_for(uint32_t workers, uint32_t wpg) {
  return (workers + wpg - 1) / wpg;
}

}  // namespace

HermesRuntime::HermesRuntime(const Options& opts)
    : num_workers_(opts.num_workers),
      wpg_(std::min(opts.config.workers_per_group, kMaxWorkersPerGroup)),
      num_groups_(groups_for(opts.num_workers, wpg_)),
      owned_wst_(),
      wst_([&] {
        void* mem = opts.wst_memory;
        if (mem == nullptr) {
          const size_t bytes =
              WorkerStatusTable::required_bytes(opts.num_workers);
          // 64-byte alignment for the cache-line slot layout.
          owned_wst_.resize(bytes + 64);
          auto addr = reinterpret_cast<uintptr_t>(owned_wst_.data());
          mem = reinterpret_cast<void*>((addr + 63) & ~uintptr_t{63});
        }
        return WorkerStatusTable::init(mem, opts.num_workers);
      }()),
      faults_(opts.faults),
      obs_(opts.obs),
      scheduler_(opts.config),
      sel_map_(std::make_unique<bpf::ArrayMap>(num_groups_, sizeof(uint64_t))),
      policy_(make_policy(opts.policy, PolicyConfig{opts.worker_weights})),
      aux_map_(policy_->aux_value_bytes() > 0
                   ? std::make_unique<bpf::ArrayMap>(
                         num_groups_, policy_->aux_value_bytes())
                   : nullptr),
      last_sync_ns_(num_groups_),
      last_pushed_bitmap_(num_groups_),
      last_push_ns_(num_groups_),
      gather_enter_(num_workers_),
      gather_pending_(num_workers_),
      gather_conns_(num_workers_) {
  HERMES_CHECK(num_workers_ > 0);
  HERMES_CHECK(policy_->aux_words() <= kMaxWorkersPerGroup);
  for (auto& t : last_sync_ns_) t.store(-1, std::memory_order_relaxed);
  for (auto& t : last_push_ns_) t.store(-1, std::memory_order_relaxed);
}

ScheduleResult HermesRuntime::schedule_and_sync(WorkerId self, SimTime now) {
  HERMES_CHECK(self < num_workers_);
  const uint32_t group = self / wpg_;
  const WorkerId base = group * wpg_;
  const uint32_t limit = std::min(wpg_, num_workers_ - base);

  ScheduleResult res;
  if (obs_ != nullptr) {
    const auto t0 = std::chrono::steady_clock::now();
    res = scheduler_.schedule(wst_, now, base, limit);
    const auto dt = std::chrono::steady_clock::now() - t0;
    obs_->metrics.sched_fast_path_ns->add(
        self, static_cast<uint64_t>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                      .count()));
  } else {
    res = scheduler_.schedule(wst_, now, base, limit);
  }
  if (aux_map_ != nullptr) {
    // Aux policies re-gather the group slice onto the stack (the
    // scheduler's own gather is internal, and member scratch would race
    // across worker threads). One extra SoA scan, aux policies only.
    int64_t enter[kMaxWorkersPerGroup];
    int64_t pending[kMaxWorkersPerGroup];
    int64_t conns[kMaxWorkersPerGroup];
    wst_.gather(base, limit, enter, pending, conns);
    refresh_aux(self, group, base, limit, now, res, enter, pending, conns);
  }
  finish_sync(self, group, now, res);
  return res;
}

void HermesRuntime::schedule_all_groups(WorkerId self, SimTime now,
                                        ScheduleResult* out) {
  HERMES_CHECK(self < num_workers_);
  // One pass over the whole WST; each group then filters its slice of the
  // same SoA arrays (always the gathered fast-path core — the point of the
  // variant is the single scan).
  wst_.gather(0, num_workers_, gather_enter_.data(), gather_pending_.data(),
              gather_conns_.data());
  const HermesConfig& cfg = scheduler_.config();
  for (uint32_t g = 0; g < num_groups_; ++g) {
    const WorkerId base = g * wpg_;
    const uint32_t limit = std::min(wpg_, num_workers_ - base);
    out[g] = scheduler_.schedule_gathered(
        gather_enter_.data() + base, gather_pending_.data() + base,
        gather_conns_.data() + base, limit, now, cfg.stage_order,
        cfg.num_stages);
    if (aux_map_ != nullptr) {
      refresh_aux(self, g, base, limit, now, out[g],
                  gather_enter_.data() + base, gather_pending_.data() + base,
                  gather_conns_.data() + base);
    }
    finish_sync(self, g, now, out[g]);
  }
}

void HermesRuntime::refresh_aux(WorkerId self, uint32_t group, WorkerId base,
                                uint32_t limit, SimTime now,
                                const ScheduleResult& res,
                                const int64_t* enter, const int64_t* pending,
                                const int64_t* conns) {
  uint64_t words[kMaxWorkersPerGroup];
  PolicyAuxInputs in;
  in.loop_enter_ns = enter;
  in.pending_events = pending;
  in.connections = conns;
  in.limit = limit;
  in.base = base;
  in.now = now;
  in.result = &res;
  policy_->fill_aux(in, words);
  const uint32_t n = policy_->aux_words();
  for (uint32_t w = 0; w < n; ++w) {
    aux_map_->store_word_u64(group, w, words[w]);
  }
  ++counters_.aux_publishes;
  if (obs_ != nullptr) {
    obs_->metrics.policy_publishes[static_cast<size_t>(policy_->kind())]->inc(
        self);
  }
}

void HermesRuntime::finish_sync(WorkerId self, uint32_t group, SimTime now,
                                ScheduleResult& res) {
  ++counters_.schedules;
  counters_.workers_selected_sum += res.selected;

  if (obs_ != nullptr) {
    obs::PipelineMetrics& m = obs_->metrics;
    m.filter_runs->inc(self);
    m.filter_after_time->add(self, res.after_time);
    m.filter_after_conn->add(self, res.after_conn);
    m.filter_after_event->add(self, res.after_event);
    m.filter_selected->record(self, res.selected);
    if (res.selected < scheduler_.config().min_workers_for_dispatch) {
      m.filter_low_survivor->inc(self);
    }
    // Stage survivor counts packed into one word (21 bits each is plenty
    // for <=64-worker groups; the packing exists so one ring record carries
    // the whole verdict).
    const uint64_t packed = (static_cast<uint64_t>(res.after_time) << 42) |
                            (static_cast<uint64_t>(res.after_conn) << 21) |
                            static_cast<uint64_t>(res.after_event);
    obs_->traces.write(self, obs::TraceType::FilterVerdict, now, res.selected,
                       res.bitmap, packed);
  }

  // Change suppression (fast path only, DESIGN.md §8): when the bitmap
  // equals the group's last push and that push is fresher than
  // sync_refresh_interval, the store — and its Table-5 "syscall" — is
  // skipped entirely. Checked before the fault hook: a suppressed sync
  // never reaches the syscall boundary faults model. The interval bound
  // (strict <) forces a real publish at least once per interval, which
  // also repairs any divergence between the cache and the map (delayed
  // stale syncs, racing workers).
  if (scheduler_.path() == SchedPath::Fast) {
    const int64_t prev_push =
        last_push_ns_[group].load(std::memory_order_relaxed);
    if (prev_push >= 0 &&
        now.ns() - prev_push <
            scheduler_.config().sync_refresh_interval.ns() &&
        last_pushed_bitmap_[group].load(std::memory_order_relaxed) ==
            res.bitmap) {
      ++counters_.syncs_suppressed;
      if (obs_ != nullptr) obs_->metrics.sched_syncs_suppressed->inc(self);
      return;
    }
  }

  // Userspace -> kernel decision sync: one atomic 8-byte store into the
  // eBPF array map. Multiple workers may race here; last write wins, which
  // is exactly the paper's lock-free design (freshest status is best).
  if (faults_ != nullptr && !faults_->on_bitmap_sync(self, group, res.bitmap)) {
    ++counters_.syncs_dropped;
    if (obs_ != nullptr) obs_->metrics.sync_dropped->inc(self);
    return;
  }
  sel_map_->store_u64(group, res.bitmap);
  // Cache updates follow the completed store only — a dropped or held sync
  // must not poison the suppression cache.
  last_pushed_bitmap_[group].store(res.bitmap, std::memory_order_relaxed);
  last_push_ns_[group].store(now.ns(), std::memory_order_relaxed);
  res.published = true;
  ++counters_.syncs;
  if (obs_ != nullptr) {
    obs_->metrics.sync_published->inc(self);
    obs_->metrics.policy_publishes[static_cast<size_t>(policy_->kind())]->inc(
        self);
    const int64_t prev =
        last_sync_ns_[group].exchange(now.ns(), std::memory_order_relaxed);
    const int64_t gap = prev >= 0 ? now.ns() - prev : 0;
    if (prev >= 0 && gap >= 0) {
      obs_->metrics.sync_gap_ns->record(self, static_cast<uint64_t>(gap));
    }
    obs_->traces.write(self, obs::TraceType::BitmapSync, now, group,
                       res.bitmap, static_cast<uint64_t>(gap < 0 ? 0 : gap));
  }
}

PortAttachment HermesRuntime::attach_port(
    const std::vector<uint64_t>& worker_cookies) {
  HERMES_CHECK_MSG(worker_cookies.size() == num_workers_,
                   "one socket cookie per worker required");
  PortAttachment att;
  // The socket array is sized to the program's provable key bound
  // (num_groups * workers_per_group), not the live worker count: a
  // partial last group leaves trailing slots at kNoSocket, and a
  // selection landing there falls back via sk_select's miss — the same
  // sparse-sockarray semantics as the kernel. This keeps the prove.h
  // obligation exact: every selected key < the array's capacity.
  att.sock_map =
      std::make_unique<bpf::ReuseportSockArray>(num_groups_ * wpg_);
  for (uint32_t w = 0; w < num_workers_; ++w) {
    HERMES_CHECK(att.sock_map->update(w, worker_cookies[w]));
  }

  PolicyProgramParams pp;
  pp.base.sel_map_slot = 0;
  pp.base.sock_map_slot = 1;
  pp.base.num_groups = num_groups_;
  pp.base.workers_per_group = wpg_;
  pp.base.min_workers = scheduler_.config().min_workers_for_dispatch;
  pp.aux_map_slot = 2;

  std::vector<bpf::Map*> maps = {sel_map_.get(), att.sock_map.get()};
  if (aux_map_ != nullptr) maps.push_back(aux_map_.get());
  bpf::Program prog = policy_->build_program(pp);

  // Machine-check the generated program BEFORE load (the policy-authoring
  // safety contract, DESIGN.md §12): on every path reaching the socket
  // selection the key is proven < num_workers. The program is a pure
  // function of the runtime config, so one proof covers all ports.
  if (!dispatch_proved_) {
    const bpf::analysis::DispatchProof proof = bpf::analysis::prove_dispatch(
        prog, maps, att.sock_map->max_entries());
    HERMES_CHECK_MSG(proof.ok, proof.detail.c_str());
    dispatch_proved_ = true;
  }

  std::string err;
  att.program = vm_.load(std::move(prog), std::move(maps), &err);
  HERMES_CHECK_MSG(att.program != nullptr, err.c_str());
  return att;
}

}  // namespace hermes::core
