#include "http/parser.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstring>

namespace hermes::http {

namespace {

char ascii_lower(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

// Strict decimal parse: 1*DIGIT, nothing else (no sign, no whitespace).
bool parse_dec(std::string_view s, uint64_t* out) {
  if (s.empty()) return false;
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc{} && p == s.data() + s.size();
}

// Calls fn(token) for each comma-separated, OWS-trimmed element of `s`.
// Returns false (and stops) if fn returns false or an element is empty.
template <typename Fn>
bool for_each_list_token(std::string_view s, Fn&& fn) {
  size_t start = 0;
  while (true) {
    const size_t comma = s.find(',', start);
    const std::string_view tok =
        trim(s.substr(start, comma == std::string_view::npos
                                 ? std::string_view::npos
                                 : comma - start));
    if (tok.empty() || !fn(tok)) return false;
    if (comma == std::string_view::npos) return true;
    start = comma + 1;
  }
}

}  // namespace

const char* to_string(Method m) {
  switch (m) {
    case Method::Get: return "GET";
    case Method::Head: return "HEAD";
    case Method::Post: return "POST";
    case Method::Put: return "PUT";
    case Method::Delete: return "DELETE";
    case Method::Connect: return "CONNECT";
    case Method::Options: return "OPTIONS";
    case Method::Trace: return "TRACE";
    case Method::Patch: return "PATCH";
    case Method::Unknown: return "UNKNOWN";
  }
  return "UNKNOWN";
}

Method parse_method(std::string_view s) {
  if (s == "GET") return Method::Get;
  if (s == "HEAD") return Method::Head;
  if (s == "POST") return Method::Post;
  if (s == "PUT") return Method::Put;
  if (s == "DELETE") return Method::Delete;
  if (s == "CONNECT") return Method::Connect;
  if (s == "OPTIONS") return Method::Options;
  if (s == "TRACE") return Method::Trace;
  if (s == "PATCH") return Method::Patch;
  return Method::Unknown;
}

bool HeaderMap::iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (ascii_lower(a[i]) != ascii_lower(b[i])) return false;
  }
  return true;
}

uint32_t HeaderMap::lower_hash(std::string_view s) {
  uint32_t h = 2166136261u;
  for (const char c : s) {
    h ^= static_cast<uint8_t>(ascii_lower(c));
    h *= 16777619u;
  }
  return h;
}

char* HeaderMap::arena_alloc(uint32_t n) {
  if (blocks_.empty() || blocks_.back().cap - blocks_.back().used < n) {
    const uint32_t cap = n > kBlockBytes ? n : kBlockBytes;
    blocks_.push_back(Block{std::make_unique<char[]>(cap), 0, cap});
  }
  Block& b = blocks_.back();
  char* p = b.buf.get() + b.used;
  b.used += n;
  return p;
}

std::string_view HeaderMap::intern(std::string_view s) {
  if (s.empty()) return {};
  char* p = arena_alloc(static_cast<uint32_t>(s.size()));
  std::memcpy(p, s.data(), s.size());
  return std::string_view{p, s.size()};
}

void HeaderMap::push_entry(const char* name, uint32_t name_len,
                           const char* value, uint32_t value_len) {
  const Entry e{name, value, name_len, value_len,
                lower_hash(std::string_view{name, name_len})};
  if (n_ < kInlineEntries) {
    inline_[n_] = e;
  } else {
    spill_.push_back(e);
  }
  ++n_;
}

void HeaderMap::add(std::string_view name, std::string_view value) {
  // One arena allocation covers both strings.
  char* p = arena_alloc(static_cast<uint32_t>(name.size() + value.size()));
  std::memcpy(p, name.data(), name.size());
  std::memcpy(p + name.size(), value.data(), value.size());
  push_entry(p, static_cast<uint32_t>(name.size()), p + name.size(),
             static_cast<uint32_t>(value.size()));
}

void HeaderMap::add_borrowed(std::string_view name, std::string_view value) {
  push_entry(name.data(), static_cast<uint32_t>(name.size()), value.data(),
             static_cast<uint32_t>(value.size()));
}

std::optional<std::string_view> HeaderMap::get(std::string_view name) const {
  std::optional<std::string_view> out;
  for_each(name, [&out](std::string_view v) {
    out = v;
    return false;
  });
  return out;
}

void HeaderMap::clear() {
  n_ = 0;
  spill_.clear();
  blocks_.clear();
}

void HeaderMap::move_from(HeaderMap& o) {
  spill_ = std::move(o.spill_);
  blocks_ = std::move(o.blocks_);
  n_ = o.n_;
  const size_t inline_n = n_ < kInlineEntries ? n_ : kInlineEntries;
  std::copy(o.inline_, o.inline_ + inline_n, inline_);
  // Leave the source empty: its inline entries would otherwise dangle
  // into the arena blocks we just took.
  o.n_ = 0;
  o.spill_.clear();
  o.blocks_.clear();
}

bool Request::keep_alive() const {
  const auto conn = headers.get("connection");
  if (version_major == 1 && version_minor == 0) {
    return conn && HeaderMap::iequals(*conn, "keep-alive");
  }
  return !(conn && HeaderMap::iequals(*conn, "close"));
}

bool Request::is_websocket_upgrade() const {
  const auto up = headers.get("upgrade");
  return up && HeaderMap::iequals(*up, "websocket");
}

void RequestParser::set_error(const char* msg) {
  state_ = State::Error;
  error_ = msg;
}

size_t RequestParser::feed(std::string_view data, bool stable) {
  size_t consumed = 0;
  while (consumed < data.size() && state_ != State::Complete &&
         state_ != State::Error) {
    const std::string_view rest = data.substr(consumed);
    switch (state_) {
      case State::RequestLine:
      case State::Headers:
      case State::ChunkSize:
      case State::ChunkTrailer: {
        // Line-oriented states: scan for CRLF (tolerate bare LF). Lines
        // fully contained in this feed are parsed in place — no copy
        // into line_buf_; only lines spanning feeds are buffered.
        const size_t limit =
            state_ == State::RequestLine ? kMaxRequestLine : kMaxHeaderBytes;
        const size_t nl = rest.find('\n');
        if (nl == std::string_view::npos) {
          if (line_buf_.size() + rest.size() > limit) {
            set_error("line too long");
            break;
          }
          line_buf_.append(rest.data(), rest.size());
          consumed += rest.size();
          req_.wire_size += rest.size();
          break;  // need more data
        }
        const size_t raw_len = line_buf_.size() + nl + 1;
        if (raw_len > limit) {
          set_error("line too long");
          break;
        }
        consumed += nl + 1;
        req_.wire_size += nl + 1;
        std::string_view line;
        bool borrowable;
        if (line_buf_.empty()) {
          line = rest.substr(0, nl);
          borrowable = stable;
        } else {
          line_buf_.append(rest.data(), nl);
          line = line_buf_;
          borrowable = false;
        }
        if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
        process_line(line, borrowable, raw_len);
        line_buf_.clear();
        break;
      }

      case State::Body: {
        const size_t take_n =
            body_remaining_ < rest.size()
                ? static_cast<size_t>(body_remaining_)
                : rest.size();
        on_body_bytes(rest.substr(0, take_n));
        body_remaining_ -= take_n;
        consumed += take_n;
        if (body_remaining_ == 0) state_ = State::Complete;
        break;
      }

      case State::ChunkData: {
        // Chunk payload, then its trailing CRLF.
        if (body_remaining_ > 0) {
          const size_t take_n =
              body_remaining_ < rest.size()
                  ? static_cast<size_t>(body_remaining_)
                  : rest.size();
          on_body_bytes(rest.substr(0, take_n));
          body_remaining_ -= take_n;
          consumed += take_n;
        } else {
          // Swallow CRLF after the chunk.
          const char c = rest.front();
          ++consumed;
          ++req_.wire_size;
          if (c == '\n') state_ = State::ChunkSize;
          else if (c != '\r') set_error("missing chunk CRLF");
        }
        break;
      }

      case State::Complete:
      case State::Error:
        break;
    }
  }
  return consumed;
}

void RequestParser::process_line(std::string_view line, bool borrowable,
                                 size_t raw_len) {
  switch (state_) {
    case State::RequestLine:
      if (line.empty()) {
        // Robustness: ignore leading blank lines (RFC 9112 §2.2); they
        // do not count toward the request's wire size.
        req_.wire_size -= raw_len;
        return;
      }
      if (!parse_request_line(line, borrowable)) {
        set_error("malformed request line");
      } else {
        state_ = State::Headers;
      }
      return;
    case State::Headers:
      if (line.empty()) {
        headers_done();
      } else if (!parse_header_line(line, borrowable, req_.headers)) {
        set_error("malformed header");
      }
      return;
    case State::ChunkSize:
      on_chunk_size_line(line);
      return;
    case State::ChunkTrailer:
      if (line.empty()) {
        state_ = State::Complete;
      } else if (!parse_header_line(line, borrowable, req_.trailers)) {
        set_error("malformed trailer");
      }
      return;
    default:
      return;
  }
}

bool RequestParser::parse_request_line(std::string_view line,
                                       bool borrowable) {
  const size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) return false;
  const size_t sp2 = line.rfind(' ');
  if (sp2 == sp1) return false;

  req_.method = parse_method(line.substr(0, sp1));
  const std::string_view target = trim(line.substr(sp1 + 1, sp2 - sp1 - 1));
  if (target.empty()) return false;

  const std::string_view version = line.substr(sp2 + 1);
  if (version.size() != 8 || !version.starts_with("HTTP/") ||
      version[6] != '.' ||
      !std::isdigit(static_cast<unsigned char>(version[5])) ||
      !std::isdigit(static_cast<unsigned char>(version[7]))) {
    return false;
  }
  req_.version_major = version[5] - '0';
  req_.version_minor = version[7] - '0';

  req_.target = borrowable ? target : req_.headers.intern(target);
  const size_t q = req_.target.find('?');
  if (q == std::string_view::npos) {
    req_.path = req_.target;
    req_.query = {};
  } else {
    req_.path = req_.target.substr(0, q);
    req_.query = req_.target.substr(q + 1);
  }
  return true;
}

namespace {

// RFC 9110 token characters (valid in header field names).
bool is_tchar(char c) {
  if (std::isalnum(static_cast<unsigned char>(c))) return true;
  switch (c) {
    case '!': case '#': case '$': case '%': case '&': case '\'': case '*':
    case '+': case '-': case '.': case '^': case '_': case '`': case '|':
    case '~':
      return true;
    default:
      return false;
  }
}

int hex_val(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

bool RequestParser::parse_header_line(std::string_view line, bool borrowable,
                                      HeaderMap& into) {
  const size_t colon = line.find(':');
  if (colon == std::string_view::npos || colon == 0) return false;
  const std::string_view name = line.substr(0, colon);
  for (char c : name) {
    if (!is_tchar(c)) return false;
  }
  const std::string_view value = trim(line.substr(colon + 1));
  if (borrowable) {
    into.add_borrowed(name, value);
  } else {
    into.add(name, value);
  }
  return true;
}

void RequestParser::on_chunk_size_line(std::string_view line) {
  // Strict chunk-size grammar (RFC 9112 §7.1): 1*HEXDIG, then an
  // optional extension section introduced by ';' (extensions are
  // accepted and ignored). No leading whitespace.
  size_t i = 0;
  uint64_t value = 0;
  while (i < line.size() && hex_val(line[i]) >= 0) {
    value = value * 16 + static_cast<uint64_t>(hex_val(line[i]));
    if (value > kMaxBodyBytes) {
      set_error("body too large");
      return;
    }
    ++i;
  }
  if (i == 0) {
    set_error("bad chunk size");
    return;
  }
  if (i < line.size()) {
    size_t j = i;
    while (j < line.size() && (line[j] == ' ' || line[j] == '\t')) ++j;
    if (j < line.size() && line[j] != ';') {
      set_error("bad chunk size");
      return;
    }
  }
  if (value == 0) {
    state_ = State::ChunkTrailer;
    return;
  }
  if (body_bytes_ + value > kMaxBodyBytes) {
    set_error("body too large");
    return;
  }
  body_remaining_ = value;
  state_ = State::ChunkData;
}

void RequestParser::on_body_bytes(std::string_view chunk) {
  if (capture_body_) req_.body.append(chunk);
  body_bytes_ += chunk.size();
  req_.wire_size += chunk.size();
}

void RequestParser::headers_done() {
  const HeaderMap& h = req_.headers;

  // Transfer-Encoding: walk the (possibly repeated) coding list in order.
  // "chunked" must be the final coding and may appear only there; any
  // other final coding leaves the message length undeterminable.
  bool te_seen = false;
  bool chunked_last = false;
  bool chunked_not_final = false;
  const bool te_ok = h.for_each("transfer-encoding", [&](std::string_view v) {
    te_seen = true;
    return for_each_list_token(v, [&](std::string_view tok) {
      chunked_not_final |= chunked_last;
      chunked_last = HeaderMap::iequals(tok, "chunked");
      return true;
    });
  });

  // Content-Length: repeated headers (or list members) must agree;
  // conflicting values are a smuggling shape (RFC 9110 §8.6).
  bool cl_seen = false;
  bool cl_have = false;
  bool cl_conflict = false;
  uint64_t cl = 0;
  const bool cl_ok = h.for_each("content-length", [&](std::string_view v) {
    cl_seen = true;
    return for_each_list_token(v, [&](std::string_view tok) {
      uint64_t val = 0;
      if (!parse_dec(tok, &val)) return false;
      if (cl_have && val != cl) {
        cl_conflict = true;
        return false;
      }
      cl = val;
      cl_have = true;
      return true;
    });
  });

  if (te_seen) {
    // Content-Length alongside Transfer-Encoding is the classic
    // request-smuggling shape: reject outright (RFC 9112 §6.1).
    if (cl_seen) {
      set_error("content-length with transfer-encoding");
    } else if (!te_ok) {
      set_error("malformed transfer-encoding");
    } else if (chunked_not_final) {
      set_error("chunked not final transfer-encoding");
    } else if (!chunked_last) {
      set_error("unsupported transfer-encoding");
    } else {
      state_ = State::ChunkSize;
    }
    return;
  }

  if (cl_seen) {
    if (!cl_ok) {
      set_error(cl_conflict ? "conflicting content-length"
                            : "bad content-length");
    } else if (cl > kMaxBodyBytes) {
      set_error("body too large");
    } else {
      body_remaining_ = cl;
      state_ = cl == 0 ? State::Complete : State::Body;
    }
    return;
  }
  state_ = State::Complete;  // no body
}

Request RequestParser::take() {
  Request out = std::move(req_);
  // Reset in place. Moving the header maps left both of them empty.
  req_.method = Method::Unknown;
  req_.target = req_.path = req_.query = {};
  req_.version_major = 1;
  req_.version_minor = 1;
  req_.body.clear();
  req_.wire_size = 0;
  line_buf_.clear();
  body_remaining_ = 0;
  body_bytes_ = 0;
  state_ = State::RequestLine;
  error_ = "";
  return out;
}

}  // namespace hermes::http
