// Incremental HTTP/1.1 request parser.
//
// The paper's L7 LB terminates connections and routes on application-layer
// attributes (§2.1: parse HTTP, route by policy, TLS offload, protocol
// translation, compression). This parser is the first step of that pipeline:
// it consumes bytes as they arrive (possibly fragmented arbitrarily) and
// produces a Request. Used by the live demo's real workers, by the
// simulator's data plane (http::ConnState feeds it straight from retained
// iobuf segments), and by tests.
//
// Scope: request line + headers + fixed Content-Length bodies + chunked
// transfer encoding (with chunk extensions and trailer sections). No HTTP/2
// (the paper's LBs translate such protocols before this stage).
//
// Message-framing headers are validated the way a terminating proxy must:
// conflicting duplicate Content-Length values, Content-Length combined with
// Transfer-Encoding, and transfer codings we cannot de-frame are all hard
// errors (request-smuggling shapes, RFC 9110 §8.6 / RFC 9112 §6.1).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hermes::http {

enum class Method : uint8_t {
  Get, Head, Post, Put, Delete, Connect, Options, Trace, Patch, Unknown
};

const char* to_string(Method m);
Method parse_method(std::string_view s);

// Case-insensitive header collection preserving insertion order.
//
// Storage is a per-map bump arena (chunked, stable addresses): add()
// copies name/value bytes into the arena once, and entries live in a
// small inline array that spills to a vector only past kInlineEntries —
// a typical request performs one arena-block allocation total instead
// of two std::string heap allocations per header. Entries carry a
// precomputed lowercase FNV-1a hash of the name, so get()/for_each()
// compare hashes instead of re-lowercasing stored names on every probe.
//
// add_borrowed() skips the arena copy for callers that guarantee the
// bytes outlive the map (the zero-copy parse path over retained iobuf
// segments).
class HeaderMap {
 public:
  HeaderMap() = default;
  HeaderMap(HeaderMap&& o) noexcept { move_from(o); }
  HeaderMap& operator=(HeaderMap&& o) noexcept {
    if (this != &o) {
      clear();
      move_from(o);
    }
    return *this;
  }
  HeaderMap(const HeaderMap&) = delete;
  HeaderMap& operator=(const HeaderMap&) = delete;

  // Copies name/value into the map's arena.
  void add(std::string_view name, std::string_view value);
  // Stores views without copying; caller guarantees the referenced
  // bytes outlive this map.
  void add_borrowed(std::string_view name, std::string_view value);

  // First value for `name` (case-insensitive), if any.
  std::optional<std::string_view> get(std::string_view name) const;
  // Calls fn(value) for each value of `name` (repeated headers included)
  // in order, without allocating, until fn returns false. Returns false
  // iff fn did.
  template <typename Fn>
  bool for_each(std::string_view name, Fn&& fn) const {
    const uint32_t h = lower_hash(name);
    for (size_t i = 0; i < n_; ++i) {
      const Entry& e = entry(i);
      if (e.hash == h && e.name_len == name.size() &&
          iequals(std::string_view{e.name, e.name_len}, name) &&
          !fn(std::string_view{e.value, e.value_len})) {
        return false;
      }
    }
    return true;
  }

  size_t size() const { return n_; }
  std::pair<std::string_view, std::string_view> at(size_t i) const {
    const Entry& e = entry(i);
    return {std::string_view{e.name, e.name_len},
            std::string_view{e.value, e.value_len}};
  }

  void clear();

  // Copies `s` into the arena and returns a stable view (used for the
  // request target, which shares the request's arena).
  std::string_view intern(std::string_view s);

  size_t arena_blocks() const { return blocks_.size(); }

  static bool iequals(std::string_view a, std::string_view b);
  // FNV-1a over the ASCII-lowercased bytes of `s`.
  static uint32_t lower_hash(std::string_view s);

 private:
  struct Entry {
    const char* name;
    const char* value;
    uint32_t name_len;
    uint32_t value_len;
    uint32_t hash;  // lower_hash(name)
  };

  static constexpr size_t kInlineEntries = 8;
  static constexpr uint32_t kBlockBytes = 1024;

  struct Block {
    std::unique_ptr<char[]> buf;
    uint32_t used = 0;
    uint32_t cap = 0;
  };

  const Entry& entry(size_t i) const {
    return i < kInlineEntries ? inline_[i] : spill_[i - kInlineEntries];
  }
  char* arena_alloc(uint32_t n);
  void push_entry(const char* name, uint32_t name_len, const char* value,
                  uint32_t value_len);
  void move_from(HeaderMap& o);

  Entry inline_[kInlineEntries];
  std::vector<Entry> spill_;
  uint32_t n_ = 0;
  std::vector<Block> blocks_;
};

// A parsed request. Move-only: target/path/query (and, for arena-owned
// headers, every name/value view) point into the request's HeaderMap
// arena, which has stable addresses across moves. When the parser ran
// in borrow mode (feed(..., stable=true)), views may instead point into
// the caller's retained buffers and are valid only as long as those
// buffers live — in the data plane, as long as the request's wire chain.
struct Request {
  Method method = Method::Unknown;
  std::string_view target;   // origin-form, e.g. "/index.html?q=1"
  std::string_view path;     // target without the query
  std::string_view query;    // without '?'
  int version_major = 1;
  int version_minor = 1;
  HeaderMap headers;
  HeaderMap trailers;        // chunked trailer section, if any
  std::string body;
  size_t wire_size = 0;      // total bytes consumed for this request

  Request() = default;
  Request(Request&&) noexcept = default;
  Request& operator=(Request&&) noexcept = default;
  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;

  std::optional<std::string_view> host() const {
    return headers.get("host");
  }
  bool keep_alive() const;
  bool is_websocket_upgrade() const;
};

// Push parser. Feed bytes; when a full request is available, take() it.
// After take(), feeding continues with the next pipelined request, so one
// parser can serve a whole keep-alive connection; ConnState instead lends
// a parser per message and hands it back once it is idle(). The parser
// owns one Request it fills in place; take() moves it out and resets it
// field by field, and framing checks walk the header entries without
// allocating.
class RequestParser {
 public:
  enum class State : uint8_t {
    RequestLine, Headers, Body, ChunkSize, ChunkData, ChunkTrailer,
    Complete, Error
  };

  // Consumes up to data.size() bytes; returns bytes consumed. Stops
  // consuming once a request completes (pipelining: caller re-feeds rest).
  //
  // `stable=true` promises the fed bytes outlive the produced Request;
  // request-line and header lines that arrive unfragmented are then
  // *borrowed* (string_views straight into the caller's buffer, zero
  // copies). Lines that span feeds still fall back to an arena copy.
  size_t feed(std::string_view data, bool stable = false);

  State state() const { return state_; }
  // At a message boundary with no partial line buffered: nothing of the
  // next request has been seen, so the parser holds no connection state.
  bool idle() const {
    return state_ == State::RequestLine && line_buf_.empty();
  }
  bool has_request() const { return state_ == State::Complete; }
  bool failed() const { return state_ == State::Error; }
  std::string_view error() const { return error_; }

  // When off, body bytes are framed and counted (wire_size, body_bytes())
  // but not accumulated into Request::body — the data plane forwards the
  // raw wire chain instead of flattening the body. Default on.
  void set_body_capture(bool on) { capture_body_ = on; }
  // Body bytes seen for the request currently being parsed.
  uint64_t body_bytes() const { return body_bytes_; }

  // Retrieve the parsed request and reset, in place, for the next one.
  Request take();

  // Hard limits (guard against abusive inputs, as any real LB must).
  static constexpr size_t kMaxRequestLine = 8192;
  static constexpr size_t kMaxHeaderBytes = 64 * 1024;
  static constexpr size_t kMaxBodyBytes = 16 * 1024 * 1024;

 private:
  void set_error(const char* msg);
  void process_line(std::string_view line, bool borrowable, size_t raw_len);
  bool parse_request_line(std::string_view line, bool borrowable);
  bool parse_header_line(std::string_view line, bool borrowable,
                         HeaderMap& into);
  void headers_done();
  void on_chunk_size_line(std::string_view line);
  void on_body_bytes(std::string_view chunk);

  State state_ = State::RequestLine;
  std::string line_buf_;
  Request req_;
  uint64_t body_remaining_ = 0;
  uint64_t body_bytes_ = 0;
  bool capture_body_ = true;
  const char* error_ = "";
};

}  // namespace hermes::http
