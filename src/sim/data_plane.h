// The L7 proxy data plane: real bytes behind the simulator's abstract
// requests.
//
// For every sim::Request the workload layer generates, the data plane
// synthesizes the request's actual HTTP/1.1 wire bytes, admits them into
// the connection's http::ConnState (keep-alive + pipelining over iobuf
// chains), re-parses them exactly as the LB would, and forwards the wire
// chain to one of kNumBackends backends picked round-robin — reusing a
// pooled backend connection when one is warm, else charging
// kBackendHandshakeCost into the request's service time. Byte counts
// alone cost no simulated CPU. The response path encodes a deterministic
// backend reply into one segment of exactly its wire size and egresses it
// to the client through the same zero-copy-or-oracle machinery.
//
// Synthesis is cheap by construction: request and response bodies are
// 26-periodic letter patterns, appended as memcpy runs out of one static
// pre-rendered alphabet per direction, never byte by byte.
//
// Both modes (Config::zero_copy true = zero-copy, false = copy oracle;
// chosen by config only, never by the environment) must produce
// bit-identical backend and client byte streams; the data plane chains
// IoChain::digest (netsim/iobuf.h) over each direction so benches and
// tests can assert it. Each forwarded chain's digest seeds the next, so a
// chained value is equal across modes but is not one digest of the
// concatenated stream. The digests are the oracle for synthesis too: a
// byte change in the pattern rendering moves them off their pinned values.
// They run on every byte in every build: ~0.15-0.2 ns/B on a 2 GHz VM
// (bench/proxy_path's digest_kib_cost_ns), ~0.4 us per ~2.4 KB request.
//
// Each connection's http::ConnState sits in a netsim::ConnTable keyed by
// Request::conn, i.e. by slab slot.
//
// Disabled by default (Config::enabled=false): every pre-existing bench
// and test runs byte-identically with the data plane compiled in.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/backend_pool.h"
#include "http/conn_state.h"
#include "netsim/conn_table.h"
#include "netsim/iobuf.h"
#include "obs/observability.h"
#include "sim/request.h"
#include "util/types.h"

namespace hermes::sim {

class DataPlane {
 public:
  struct Config {
    bool enabled = false;
    // Splice-style forwarding (references into admitted segments) vs the
    // copy oracle. Only differential tests turn it off.
    bool zero_copy = true;
    // Settable because tests age connections out faster than the default
    // idle expiry (num_workers is overwritten with the device's).
    core::BackendConnectionPool::Config pool{};
  };

  static constexpr uint32_t kNumBackends = 8;
  // Charged into a request's service time on a pool miss (the TCP/TLS
  // handshake to the backend the paper's §7 pools exist to avoid).
  static constexpr SimTime kBackendHandshakeCost = SimTime::micros(50);
  // Seeds the per-worker round-robin start offsets.
  static constexpr uint64_t kRoundRobinSeed = 42;

  struct Totals {
    uint64_t requests_forwarded = 0;
    uint64_t responses_returned = 0;
    uint64_t bytes_in = 0;             // client→LB admitted bytes
    uint64_t bytes_out = 0;            // LB→client bytes
    uint64_t bytes_zero_copied = 0;    // forwarded by reference
    uint64_t bytes_copied = 0;         // forwarded by memcpy (oracle)
    // The pool's own counts (BackendConnectionPool::Stats).
    uint64_t pool_hits = 0;
    uint64_t pool_misses = 0;
    uint64_t pool_expiries = 0;
    uint64_t pool_evictions = 0;
    uint64_t parse_errors = 0;
    // Chained IoChain::digest over every byte forwarded toward backends /
    // clients, in completion order. Equal across modes or bust. The seed
    // is the fields' historical starting value, so a run with the data
    // plane off keeps the totals (and perfbench sim_digest) it always had.
    static constexpr uint64_t kStreamSeed = 1469598103934665603ULL;
    uint64_t backend_stream_hash = kStreamSeed;
    uint64_t client_stream_hash = kStreamSeed;
  };

  DataPlane(const Config& cfg, uint32_t num_workers, obs::Observability* obs);

  // Client request admitted on `req.conn`, to be served by worker `w`.
  // Synthesizes + parses + forwards the request's wire bytes. Returns
  // the extra service cost: kBackendHandshakeCost on a pool miss, else 0.
  SimTime on_request(WorkerId w, const Request& req, bool last_on_conn,
                     SimTime now);

  // Request served: encode the backend response, egress it if its client
  // connection is still open, and return the request's backend connection
  // to the pool. A request this data plane never forwarded is a no-op.
  void on_response(WorkerId w, const Request& req, SimTime now);

  void on_conn_close(netsim::ConnId id);

  Totals totals() const;
  const Config& config() const { return cfg_; }
  const core::BackendConnectionPool& pool() const { return pool_; }
  size_t live_conn_states() const { return conns_.size(); }
  // Requests forwarded whose backend connection is not yet back in the
  // pool. Zero once every in-flight request has completed.
  size_t pending_requests() const { return pending_.size(); }

  // Bodies are appended in runs of at most this many bytes.
  static constexpr uint32_t kPatternChunk = 4096;

  // Builds the deterministic wire form for a request / its response —
  // shared with bench/proxy_path so micro and sim legs agree.
  static void synth_request_wire(const Request& req, bool last_on_conn,
                                 std::string* out);
  static void synth_response_body(const Request& req, std::string* out);
  // The backend's reply to `req` (200, Server: hermes-lb, Content-Length,
  // synth_response_body) in one segment of exactly its wire size. Byte-
  // identical to http::ConnState::encode of the equivalent http::Response.
  static netsim::IoChain encode_response(const Request& req);

 private:
  struct Pending {
    core::BackendId backend = 0;
    uint64_t pooled_id = 0;  // 0 = freshly established
  };

  // Pending entries by request id in one flat, open-addressed array
  // (linear probing, backward-shift erase). Slots are reused request after
  // request, so the steady state allocates nothing; the array doubles
  // only when more than half full.
  class PendingTable {
   public:
    void put(RequestId id, const Pending& p);
    // Removes id's entry into *out; false if there is none.
    bool take(RequestId id, Pending* out);
    size_t size() const { return size_; }

   private:
    struct Slot {
      RequestId id = 0;
      Pending p;
      bool used = false;
    };
    size_t home(RequestId id) const {
      return static_cast<size_t>((id * 0x9E3779B97F4A7C15ULL) >> shift_);
    }
    size_t find(RequestId id) const;  // id's slot, or the empty slot for it
    void grow();

    std::vector<Slot> slots_;
    size_t mask_ = 0;
    int shift_ = 64;
    size_t size_ = 0;
  };

  http::ConnState& conn_state(netsim::ConnId id);
  void egress_response(WorkerId w, const Request& req, http::ConnState& cs);

  Config cfg_;
  uint32_t num_workers_;
  obs::Observability* obs_;
  core::RoundRobinBackends rr_;
  core::BackendConnectionPool pool_;
  netsim::ConnTable<http::ConnState> conns_;
  // Keyed by request, not connection: an entry outlives a connection reset
  // while its request is in flight.
  PendingTable pending_;
  std::string scratch_;
  Totals totals_;  // pool_* stay 0: totals() reads them from pool_
};

}  // namespace hermes::sim
