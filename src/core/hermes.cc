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
      last_pushed_bitmap_(num_groups_),
      last_push_ns_(num_groups_) {
  HERMES_CHECK(num_workers_ > 0);
  HERMES_CHECK(policy_->aux_words() <= kMaxWorkersPerGroup);
  for (auto& t : last_push_ns_) t.store(-1, std::memory_order_relaxed);
}

ScheduleResult HermesRuntime::schedule_and_sync(WorkerId self, SimTime now) {
  HERMES_CHECK(self < num_workers_);
  const uint32_t group = self / wpg_;
  const WorkerId base = group * wpg_;
  const uint32_t limit = std::min(wpg_, num_workers_ - base);

  // One snapshot of the slice, on the stack (workers schedule
  // concurrently): the cascade and the aux refresh both read it, so the
  // published bitmap and aux words agree.
  int64_t enter[kMaxWorkersPerGroup];
  int64_t pending[kMaxWorkersPerGroup];
  int64_t conns[kMaxWorkersPerGroup];
  const auto schedule = [&] {
    wst_.gather(base, limit, enter, pending, conns);
    const HermesConfig& cfg = scheduler_.config();
    return scheduler_.schedule_gathered(enter, pending, conns, limit, now,
                                        cfg.stage_order, cfg.num_stages);
  };

  ScheduleResult res;
  if (obs_ != nullptr) {
    const auto t0 = std::chrono::steady_clock::now();
    res = schedule();
    const auto dt = std::chrono::steady_clock::now() - t0;
    obs_->metrics.sched_fast_path_ns->add(
        self, static_cast<uint64_t>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                      .count()));
  } else {
    res = schedule();
  }
  if (aux_map_ != nullptr) {
    refresh_aux(self, group, base, limit, now, res, enter, pending, conns);
  }
  finish_sync(self, group, now, res);
  return res;
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

  // Change suppression (DESIGN.md §8): when the bitmap equals the
  // group's last push and that push is fresher than sync_refresh_interval,
  // the store — and its Table-5 "syscall" — is skipped entirely. Checked
  // before the fault hook: a suppressed sync never reaches the syscall
  // boundary faults model. The interval bound (strict <) forces a real
  // publish at least once per interval, which also repairs any divergence
  // between the cache and the map (delayed stale syncs, racing workers).
  const int64_t prev_push =
      last_push_ns_[group].load(std::memory_order_relaxed);
  if (prev_push >= 0 &&
      now.ns() - prev_push < scheduler_.config().sync_refresh_interval.ns() &&
      last_pushed_bitmap_[group].load(std::memory_order_relaxed) ==
          res.bitmap) {
    ++counters_.syncs_suppressed;
    if (obs_ != nullptr) obs_->metrics.sched_syncs_suppressed->inc(self);
    return;
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
    const int64_t gap = prev_push >= 0 ? now.ns() - prev_push : 0;
    if (prev_push >= 0 && gap >= 0) {
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

  std::vector<bpf::Map*> maps = {sel_map_.get(), att.sock_map.get()};
  if (aux_map_ != nullptr) maps.push_back(aux_map_.get());

  if (image_ == nullptr) {
    PolicyProgramParams pp;
    pp.base.sel_map_slot = 0;
    pp.base.sock_map_slot = 1;
    pp.base.num_groups = num_groups_;
    pp.base.workers_per_group = wpg_;
    pp.base.min_workers = scheduler_.config().min_workers_for_dispatch;
    pp.aux_map_slot = 2;
    std::string err;
    att.program =
        vm_.load(policy_->build_program(pp), std::move(maps), &err);
    HERMES_CHECK_MSG(att.program != nullptr, err.c_str());

    // Machine-check the loaded program before any port runs it (the
    // policy-authoring safety contract, DESIGN.md §12): on every path
    // reaching the socket selection the key is proven < the socket
    // array's capacity. The proof reads the verifier's own analysis.
    // Every port's array has that capacity, which Vm::bind re-checks.
    const bpf::analysis::DispatchProof proof = bpf::analysis::prove_dispatch(
        att.program->image()->analysis(), att.sock_map->max_entries());
    HERMES_CHECK_MSG(proof.ok, proof.detail.c_str());
    image_ = att.program->image();
    ++counters_.program_loads;
  } else {
    att.program = vm_.bind(image_, std::move(maps));
  }
  return att;
}

}  // namespace hermes::core
