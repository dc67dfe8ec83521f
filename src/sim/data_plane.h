// The L7 proxy data plane: real bytes behind the simulator's abstract
// requests.
//
// For every sim::Request the workload layer generates, the data plane
// synthesizes the request's actual HTTP/1.1 wire bytes, admits them into
// the connection's http::ConnState (keep-alive + pipelining over iobuf
// chains), re-parses them exactly as the LB would, and forwards the wire
// chain to a backend picked round-robin — reusing a pooled backend
// connection when one is warm, else charging the handshake cost into the
// request's service time. The response path encodes a deterministic
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
#include <unordered_map>

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
    uint32_t num_backends = 8;
    core::BackendConnectionPool::Config pool{};
    // Charged into a request's service time on a pool miss (the TCP/TLS
    // handshake to the backend the paper's §7 pools exist to avoid).
    SimTime backend_handshake_cost = SimTime::micros(50);
    // Body-size-dependent service cost: every request additionally costs
    // per_byte_cost * Request::bytes (parse + forward work scales with the
    // wire size). Zero by default — the abstract cost model stays
    // byte-identical unless a scenario opts in.
    SimTime per_byte_cost{};
    uint64_t seed = 42;  // round-robin start offsets
  };

  struct Totals {
    uint64_t requests_forwarded = 0;
    uint64_t responses_returned = 0;
    uint64_t bytes_in = 0;             // client→LB admitted bytes
    uint64_t bytes_out = 0;            // LB→client bytes
    uint64_t bytes_zero_copied = 0;    // forwarded by reference
    uint64_t bytes_copied = 0;         // forwarded by memcpy (oracle)
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
  // the extra service cost (backend handshake on a pool miss).
  SimTime on_request(WorkerId w, const Request& req, bool last_on_conn,
                     SimTime now);

  // Request served: encode the backend response and egress it.
  void on_response(WorkerId w, const Request& req, SimTime now);

  void on_conn_close(netsim::ConnId id);

  const Totals& totals() const { return totals_; }
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

  http::ConnState& conn_state(netsim::ConnId id);
  void egress_response(WorkerId w, const Request& req, http::ConnState& cs);
  void sync_pool_stats(WorkerId w);

  Config cfg_;
  uint32_t num_workers_;
  obs::Observability* obs_;
  core::RoundRobinBackends rr_;
  core::BackendConnectionPool pool_;
  core::BackendConnectionPool::Stats pool_seen_{};  // last obs-synced stats
  netsim::ConnTable<http::ConnState> conns_;
  // Keyed by request, not connection: an entry outlives a connection reset
  // while its request is in flight.
  std::unordered_map<RequestId, Pending> pending_;
  std::string scratch_;
  Totals totals_;
};

}  // namespace hermes::sim
