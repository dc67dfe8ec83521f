#include "sim/data_plane.h"

#include <array>
#include <bit>
#include <charconv>
#include <string_view>

#include "util/check.h"

namespace hermes::sim {

namespace {

// Decimal digits of v into buf; returns the count.
size_t format_u64(uint64_t v, char (&buf)[20]) {
  return static_cast<size_t>(std::to_chars(buf, buf + 20, v).ptr - buf);
}

void append_u64(std::string* out, uint64_t v) {
  char buf[20];
  out->append(buf, format_u64(v, buf));
}

// Bodies are the 26-periodic pattern first + (phase + i) % 26. Each
// alphabet is rendered once, 26 bytes longer than a run, so a run of up
// to kPatternChunk bytes can start at any phase.
constexpr uint64_t kAlphabet = 26;
using Pattern = std::array<char, kAlphabet + DataPlane::kPatternChunk>;

constexpr Pattern render(char first) {
  Pattern p{};
  for (size_t i = 0; i < p.size(); ++i) {
    p[i] = static_cast<char>(first + i % kAlphabet);
  }
  return p;
}

constexpr Pattern kRequestPattern = render('a');
constexpr Pattern kResponsePattern = render('A');

// Calls emit(data, len) over the runs that spell n pattern bytes starting
// at `phase`.
template <typename Emit>
void for_each_run(const Pattern& pattern, uint64_t phase, uint64_t n,
                  Emit&& emit) {
  uint64_t at = phase % kAlphabet;
  while (n > 0) {
    const uint64_t take =
        n < DataPlane::kPatternChunk ? n : DataPlane::kPatternChunk;
    emit(pattern.data() + at, static_cast<uint32_t>(take));
    at = (at + take) % kAlphabet;
    n -= take;
  }
}

void append_pattern(const Pattern& pattern, uint64_t phase, uint64_t n,
                    std::string* out) {
  out->reserve(out->size() + n);
  for_each_run(pattern, phase, n,
               [out](const char* p, uint32_t len) { out->append(p, len); });
}

}  // namespace

void DataPlane::synth_request_wire(const Request& req, bool last_on_conn,
                                   std::string* out) {
  out->clear();
  out->append("POST /t");
  append_u64(out, req.tenant);
  out->append("/r");
  append_u64(out, req.id);
  out->append(" HTTP/1.1\r\nHost: tenant-");
  append_u64(out, req.tenant);
  out->append(".svc.hermes\r\nUser-Agent: hermes-client\r\nX-Request-Id: ");
  append_u64(out, req.id);
  out->append("\r\n");
  if (last_on_conn) out->append("Connection: close\r\n");
  // Pad the message toward the plan's request size with a body.
  const size_t overhead = out->size() + 40;  // ~Content-Length + blank line
  const uint64_t body_len = req.bytes > overhead ? req.bytes - overhead : 0;
  out->append("Content-Length: ");
  append_u64(out, body_len);
  out->append("\r\n\r\n");
  append_pattern(kRequestPattern, req.id, body_len, out);
}

void DataPlane::synth_response_body(const Request& req, std::string* out) {
  out->clear();
  // Echo-sized deterministic payload.
  append_pattern(kResponsePattern, req.id * 7, req.bytes, out);
}

netsim::IoChain DataPlane::encode_response(const Request& req) {
  static constexpr std::string_view kHead =
      "HTTP/1.1 200 OK\r\nServer: hermes-lb\r\nContent-Length: ";
  static constexpr std::string_view kEnd = "\r\n\r\n";
  char digits[20];
  const size_t nd = format_u64(req.bytes, digits);
  const uint64_t total = kHead.size() + nd + kEnd.size() + req.bytes;
  HERMES_CHECK_MSG(total <= UINT32_MAX, "response exceeds one segment");

  netsim::SegRef seg = netsim::IoSegment::alloc(static_cast<uint32_t>(total));
  seg->append(kHead.data(), static_cast<uint32_t>(kHead.size()));
  seg->append(digits, static_cast<uint32_t>(nd));
  seg->append(kEnd.data(), static_cast<uint32_t>(kEnd.size()));
  for_each_run(kResponsePattern, req.id * 7, req.bytes,
               [&seg](const char* p, uint32_t len) { seg->append(p, len); });
  netsim::IoChain out;
  out.append_ref(seg, 0, seg->size());
  return out;
}

DataPlane::DataPlane(const Config& cfg, uint32_t num_workers,
                     obs::Observability* obs)
    : cfg_(cfg),
      num_workers_(num_workers),
      obs_(obs),
      rr_(num_workers, /*randomize_start=*/true),
      pool_([&] {
        core::BackendConnectionPool::Config pc = cfg.pool;
        pc.num_workers = num_workers;
        return pc;
      }()) {
  std::vector<core::BackendId> backends(kNumBackends);
  for (uint32_t b = 0; b < kNumBackends; ++b) backends[b] = b;
  rr_.update_backends(std::move(backends), kRoundRobinSeed);
}

DataPlane::Totals DataPlane::totals() const {
  Totals t = totals_;
  const core::BackendConnectionPool::Stats& s = pool_.stats();
  t.pool_hits = s.hits;
  t.pool_misses = s.misses;
  t.pool_expiries = s.expiries;
  t.pool_evictions = s.evictions;
  return t;
}

http::ConnState& DataPlane::conn_state(netsim::ConnId id) {
  if (http::ConnState* cs = conns_.find(id)) return *cs;
  http::ConnState::Config cc;
  cc.zero_copy = cfg_.zero_copy;
  cc.capture_body = false;  // bodies travel only in the wire chain
  return conns_.emplace(id, cc);
}

SimTime DataPlane::on_request(WorkerId w, const Request& req,
                              bool last_on_conn, SimTime now) {
  if (w >= num_workers_) w = 0;  // unowned yet: account to worker 0
  http::ConnState& cs = conn_state(req.conn);

  synth_request_wire(req, last_on_conn, &scratch_);
  cs.on_client_data(std::string_view{scratch_});
  HERMES_CHECK_MSG(!cs.failed(), "data plane synthesized a bad request");
  auto ready = cs.pop_ready();
  HERMES_CHECK_MSG(ready.has_value(),
                   "data plane request did not parse to completion");

  totals_.bytes_in += scratch_.size();
  const size_t wire_bytes = ready->wire.size();
  totals_.backend_stream_hash =
      ready->wire.digest(totals_.backend_stream_hash);
  ++totals_.requests_forwarded;
  if (cfg_.zero_copy) {
    totals_.bytes_zero_copied += wire_bytes;
  } else {
    totals_.bytes_copied += wire_bytes;
  }

  // Pick a backend and take (or establish) a connection to it.
  const core::BackendId b = rr_.pick(w);
  const uint64_t expiries_before = pool_.stats().expiries;
  const auto pooled = pool_.acquire(w, b, now);
  pending_.put(req.id, Pending{b, pooled ? pooled->id : 0});

  if (obs_ != nullptr) {
    auto& m = obs_->metrics;
    m.http_requests_forwarded->inc(w);
    if (cfg_.zero_copy) {
      m.http_bytes_zero_copied->add(w, wire_bytes);
    } else {
      m.http_bytes_copied->add(w, wire_bytes);
    }
    (pooled ? m.pool_hits : m.pool_misses)->inc(w);
    if (const uint64_t expired = pool_.stats().expiries - expiries_before) {
      m.pool_expiries->add(w, expired);
    }
    m.pool_occupancy->set(static_cast<int64_t>(pool_.idle_total()));
  }
  return pooled ? SimTime{} : kBackendHandshakeCost;
}

void DataPlane::on_response(WorkerId w, const Request& req, SimTime now) {
  if (w >= num_workers_) w = 0;
  // A connection reset mid-flight has no client left to answer, but its
  // backend still replied: the backend connection returns to the pool
  // either way.
  if (http::ConnState* cs = conns_.find(req.conn)) {
    egress_response(w, req, *cs);
  }

  if (Pending p; pending_.take(req.id, &p)) {
    pool_.release(w, p.backend, p.pooled_id, now);
    if (obs_ != nullptr) {
      obs_->metrics.pool_occupancy->set(
          static_cast<int64_t>(pool_.idle_total()));
    }
  }
}

void DataPlane::egress_response(WorkerId w, const Request& req,
                                http::ConnState& cs) {
  const netsim::IoChain out = cs.egress(encode_response(req));
  totals_.client_stream_hash = out.digest(totals_.client_stream_hash);
  totals_.bytes_out += out.size();
  ++totals_.responses_returned;
  if (cfg_.zero_copy) {
    totals_.bytes_zero_copied += out.size();
  } else {
    totals_.bytes_copied += out.size();
  }
  if (obs_ != nullptr) {
    auto& m = obs_->metrics;
    if (cfg_.zero_copy) {
      m.http_bytes_zero_copied->add(w, static_cast<int64_t>(out.size()));
    } else {
      m.http_bytes_copied->add(w, static_cast<int64_t>(out.size()));
    }
  }
}

void DataPlane::on_conn_close(netsim::ConnId id) {
  conns_.erase(id);
}

size_t DataPlane::PendingTable::find(RequestId id) const {
  size_t i = home(id);
  while (slots_[i].used && slots_[i].id != id) i = (i + 1) & mask_;
  return i;
}

void DataPlane::PendingTable::put(RequestId id, const Pending& p) {
  if (2 * (size_ + 1) > slots_.size()) grow();
  Slot& s = slots_[find(id)];
  if (!s.used) ++size_;
  s = Slot{id, p, true};
}

bool DataPlane::PendingTable::take(RequestId id, Pending* out) {
  if (size_ == 0) return false;
  size_t hole = find(id);
  if (!slots_[hole].used) return false;
  *out = slots_[hole].p;
  --size_;
  // Backward-shift erase: pull each later entry of the probe run whose
  // home is not cyclically in (hole, j] back into the hole.
  for (size_t j = (hole + 1) & mask_; slots_[j].used; j = (j + 1) & mask_) {
    const size_t k = home(slots_[j].id);
    const bool stays = hole <= j ? (hole < k && k <= j) : (hole < k || k <= j);
    if (!stays) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole].used = false;
  return true;
}

void DataPlane::PendingTable::grow() {
  std::vector<Slot> old = std::move(slots_);
  const size_t cap = old.empty() ? 64 : 2 * old.size();
  slots_.assign(cap, Slot{});
  mask_ = cap - 1;
  shift_ = 64 - std::countr_zero(cap);
  for (const Slot& s : old) {
    if (s.used) slots_[find(s.id)] = s;
  }
}

}  // namespace hermes::sim
