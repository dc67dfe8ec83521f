// Per-connection HTTP/1.1 state for the L7 proxy data plane: keep-alive,
// pipelining, and splice-style zero-copy forwarding.
//
// Client bytes arrive as retained iobuf slices and queue in an IoChain
// (one slice inline, so an idle connection's queue allocates nothing).
// ConnState drives the incremental RequestParser directly over those
// slices — no flattening — and builds, per request, the exact *wire
// chain* the proxy forwards to the backend. In zero-copy mode the wire
// chain references the admitted segments (zero memcpy on the proxy path;
// header/target views borrow from the retained segments). In oracle mode
// (Config::zero_copy = false) the wire chain deep-copies every byte — the
// differential reference whose output streams must be bit-identical to
// the zero-copy path. The mode is chosen only through Config; no
// environment variable selects it.
//
// Parsing is on demand: there is no queue of parsed requests. pump() stops
// as soon as the parser holds a completed request — that request is the
// one ready request — and pipelined bytes after it stay as retained slices
// until pop_ready() takes it and parses the next one. A pipeline that never
// drains therefore holds at most one parsed request plus raw bytes, and an
// error in a later request surfaces only once the requests before it have
// been popped.
//
// The parser is lent per message. A connection holds a RequestParser only
// while a message is partly parsed or its parsed request waits for
// pop_ready(); pump() takes a reset parser from a per-thread free list and
// hands it back as soon as the parser is idle() again (at a message
// boundary with no partial line). A failed parser stays with its
// connection, so failed() and error() keep reporting. A keep-alive
// connection that sits between requests thus costs a small row, not a
// parser, and the free list holds no more parsers than were lent at once.
//
// The same split applies on egress: a serialized backend response is
// encoded once (admission copy, identical in both modes) and then either
// referenced or re-copied toward the client.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

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

  bool has_ready() const { return parser_ && parser_->has_request(); }
  // Takes the ready request, then parses on toward the next one.
  std::optional<Ready> pop_ready();

  // LB→client chain for one encoded response: references `encoded` in
  // zero-copy mode, deep-copies it in the oracle.
  netsim::IoChain egress(const netsim::IoChain& encoded);

  // Serializes a Response into a chain (backend-side admission copy,
  // identical in both modes).
  static netsim::IoChain encode(const Response& r);

  bool failed() const { return parser_ && parser_->failed(); }
  std::string_view error() const {
    return parser_ ? parser_->error() : std::string_view{};
  }
  // True once a popped request carried Connection: close (or HTTP/1.0
  // without keep-alive); further input is left unconsumed.
  bool wants_close() const { return saw_close_; }
  size_t buffered_bytes() const { return in_.size(); }

  const Stats& stats() const { return stats_; }
  const Config& config() const { return cfg_; }

 private:
  void pump();

  Config cfg_;
  bool saw_close_ = false;
  // Lent while a message is in flight; null between messages.
  std::unique_ptr<RequestParser> parser_;
  netsim::IoChain in_;        // retained, not-yet-parsed bytes
  netsim::IoChain cur_wire_;  // bytes of the parser's current request
  Stats stats_;
};

}  // namespace hermes::http
