// Per-connection HTTP/1.1 state for the L7 proxy data plane: keep-alive,
// pipelining, and splice-style zero-copy forwarding.
//
// Client bytes arrive as retained iobuf slices. ConnState drives the
// incremental RequestParser directly over those slices — no flattening —
// and builds, per request, the exact *wire chain* the proxy forwards to
// the backend. In zero-copy mode the wire chain references the admitted
// segments (zero memcpy on the proxy path; header/target views borrow
// from the retained segments). In oracle mode (Config::zero_copy = false)
// the wire chain deep-copies every byte — the differential reference
// whose output streams must be bit-identical to the zero-copy path. The
// mode is chosen only through Config; no environment variable selects it.
//
// The same split applies on egress: a serialized backend response is
// encoded once (admission copy, identical in both modes) and then either
// referenced or re-copied toward the client.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "http/parser.h"
#include "http/response.h"
#include "netsim/iobuf.h"

namespace hermes::http {

// The forwarding mode every ConnState and DataPlane defaults to. Kept
// only because the repository benchmark prints it on its config line
// (perfbench/src/main.cc); it reads no environment variable.
constexpr bool zero_copy_enabled_from_env() { return true; }

class ConnState {
 public:
  struct Config {
    bool zero_copy = true;
    // Capture parsed bodies into Request::body. The data plane leaves
    // this off: body bytes travel only in the wire chain.
    bool capture_body = false;
    // Parsed-but-unconsumed request cap (pipelining backpressure).
    uint32_t max_pipeline = 64;
  };

  // One fully parsed request plus the exact bytes that encoded it.
  struct Ready {
    Request request;
    netsim::IoChain wire;
  };

  struct Stats {
    uint64_t requests = 0;
    uint64_t responses = 0;
    uint64_t bytes_in = 0;
    uint64_t bytes_out = 0;
    // Proxy-path (forwarding) byte accounting. forward_bytes_copied
    // must be exactly 0 in zero-copy mode — the gated bench metric.
    uint64_t forward_bytes_copied = 0;
    uint64_t forward_bytes_referenced = 0;
  };

  ConnState();
  explicit ConnState(const Config& cfg);

  ConnState(const ConnState&) = delete;
  ConnState& operator=(const ConnState&) = delete;

  // Client→LB bytes: a slice of a retained segment (zero-copy entry).
  void on_client_data(const netsim::IoSlice& slice);
  // Admission helper: copies flat bytes into a fresh segment first
  // (models the NIC→userspace admission copy; identical in both modes).
  void on_client_data(std::string_view flat);

  bool has_ready() const { return ready_len_ > 0; }
  std::optional<Ready> pop_ready();
  // Slots the ready queue has allocated; never more than max_pipeline.
  size_t ready_capacity() const { return ready_.capacity(); }

  // LB→client chain for one encoded response: references `encoded` in
  // zero-copy mode, deep-copies it in the oracle.
  netsim::IoChain egress(const netsim::IoChain& encoded);

  // Serializes a Response into a chain (backend-side admission copy,
  // identical in both modes).
  static netsim::IoChain encode(const Response& r);

  bool failed() const { return parser_.failed(); }
  std::string_view error() const { return parser_.error(); }
  // True once a request carried Connection: close (or HTTP/1.0 without
  // keep-alive); further input is left unconsumed.
  bool wants_close() const { return saw_close_; }
  size_t buffered_bytes() const;

  const Stats& stats() const { return stats_; }
  const Config& config() const { return cfg_; }

 private:
  void pump();
  void push_ready(Ready r);

  Config cfg_;
  RequestParser parser_;
  // Retained, not-yet-parsed bytes. pump() erases the consumed prefix
  // once per call, so the queue holds only unconsumed slices.
  std::vector<netsim::IoSlice> in_q_;
  size_t in_q_off_ = 0;  // parse offset into in_q_.front()
  netsim::IoChain cur_wire_;          // bytes of the in-progress request
  // Parsed requests awaiting pop_ready(): a ring over reused slots
  // [ready_head_, ready_head_ + ready_len_) mod ready_.size(). It grows
  // only when every slot is live, and pump() stops at max_pipeline live
  // requests, so a stream that never fully drains stays bounded.
  std::vector<Ready> ready_;
  size_t ready_head_ = 0;
  size_t ready_len_ = 0;
  Stats stats_;
  bool saw_close_ = false;
};

}  // namespace hermes::http
