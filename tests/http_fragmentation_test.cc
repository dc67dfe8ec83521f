// Property test: parsing an HTTP request stream through http::ConnState
// over iobuf chains — at EVERY fragmentation boundary, from 1-byte splits
// through whole-buffer delivery — must produce results identical to the
// flat-string RequestParser path: same requests, same headers, same
// bodies, same consumed-byte counts, same forwarded wire bytes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "http/conn_state.h"
#include "http/parser.h"

namespace hermes::http {
namespace {

// A parsed request flattened into owning strings so results from the
// borrow-mode path (views into retained segments) can be compared after
// those segments are released.
struct FlatRequest {
  Method method;
  std::string target;
  std::string path;
  std::string query;
  std::vector<std::pair<std::string, std::string>> headers;
  std::vector<std::pair<std::string, std::string>> trailers;
  std::string body;
  size_t wire_size;

  bool operator==(const FlatRequest& o) const {
    return method == o.method && target == o.target && path == o.path &&
           query == o.query && headers == o.headers &&
           trailers == o.trailers && body == o.body &&
           wire_size == o.wire_size;
  }
};

FlatRequest flatten(const Request& r) {
  FlatRequest f;
  f.method = r.method;
  f.target = std::string(r.target);
  f.path = std::string(r.path);
  f.query = std::string(r.query);
  for (size_t i = 0; i < r.headers.size(); ++i) {
    auto [n, v] = r.headers.at(i);
    f.headers.emplace_back(std::string(n), std::string(v));
  }
  for (size_t i = 0; i < r.trailers.size(); ++i) {
    auto [n, v] = r.trailers.at(i);
    f.trailers.emplace_back(std::string(n), std::string(v));
  }
  f.body = r.body;
  f.wire_size = r.wire_size;
  return f;
}

// Golden: parse the whole stream flat with a bare RequestParser.
std::vector<FlatRequest> parse_flat(const std::string& stream) {
  std::vector<FlatRequest> out;
  RequestParser p;
  size_t off = 0;
  while (off < stream.size()) {
    const size_t n = p.feed(std::string_view{stream}.substr(off));
    off += n;
    if (p.has_request()) {
      out.push_back(flatten(p.take()));
      continue;
    }
    EXPECT_FALSE(p.failed()) << p.error();
    if (n == 0) break;
  }
  return out;
}

// Candidate: deliver the stream to a ConnState as iobuf slices split at
// the given fragment boundaries; also checks the forwarded wire chains
// partition the stream exactly.
std::vector<FlatRequest> parse_chained(const std::string& stream,
                                       const std::vector<size_t>& cuts,
                                       bool zero_copy) {
  ConnState::Config cfg;
  cfg.zero_copy = zero_copy;
  cfg.capture_body = true;
  ConnState cs(cfg);

  size_t prev = 0;
  for (size_t cut : cuts) {
    cs.on_client_data(std::string_view{stream}.substr(prev, cut - prev));
    prev = cut;
  }
  cs.on_client_data(std::string_view{stream}.substr(prev));

  // Parsing is on demand, so a later request's error surfaces only while
  // popping: check after the last pop.
  std::vector<FlatRequest> out;
  std::string forwarded;
  while (auto r = cs.pop_ready()) {
    out.push_back(flatten(r->request));
    forwarded += r->wire.to_string();
  }
  EXPECT_FALSE(cs.failed()) << cs.error();
  EXPECT_EQ(forwarded, stream.substr(0, forwarded.size()));
  return out;
}

const std::string kStreams[] = {
    // Simple keep-alive GET with query string.
    "GET /search?q=hermes&lang=en HTTP/1.1\r\n"
    "Host: example.com\r\n"
    "Accept: */*\r\n"
    "\r\n",
    // POST with a fixed-length body.
    "POST /api/v1/items HTTP/1.1\r\n"
    "Host: api.example.com\r\n"
    "Content-Type: application/json\r\n"
    "Content-Length: 17\r\n"
    "\r\n"
    "{\"name\":\"widget\"}",
    // Chunked with extensions and a trailer section.
    "PUT /upload HTTP/1.1\r\n"
    "Host: u.example.com\r\n"
    "Transfer-Encoding: chunked\r\n"
    "\r\n"
    "5;ext=1\r\n"
    "hello\r\n"
    "6 ;x\r\n"
    " world\r\n"
    "0\r\n"
    "X-Checksum: abc123\r\n"
    "\r\n",
    // Pipelined: three requests back to back, mixed shapes.
    "GET /a HTTP/1.1\r\nHost: h\r\n\r\n"
    "POST /b HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nwxyz"
    "GET /c?k=v HTTP/1.1\r\nHost: h\r\nX-Trace: 1\r\nX-Trace: 2\r\n\r\n",
};

TEST(HttpFragmentation, EverySingleSplitMatchesFlatParse) {
  for (const std::string& stream : kStreams) {
    const std::vector<FlatRequest> golden = parse_flat(stream);
    ASSERT_FALSE(golden.empty());
    // Whole-buffer delivery first.
    EXPECT_EQ(parse_chained(stream, {}, /*zero_copy=*/true), golden);
    // Then every two-fragment split boundary.
    for (size_t cut = 1; cut < stream.size(); ++cut) {
      const auto got = parse_chained(stream, {cut}, /*zero_copy=*/true);
      ASSERT_EQ(got, golden) << "stream len " << stream.size()
                             << " split at " << cut;
    }
  }
}

TEST(HttpFragmentation, OneByteAtATimeMatchesFlatParse) {
  for (const std::string& stream : kStreams) {
    const std::vector<FlatRequest> golden = parse_flat(stream);
    std::vector<size_t> cuts;
    for (size_t i = 1; i < stream.size(); ++i) cuts.push_back(i);
    EXPECT_EQ(parse_chained(stream, cuts, /*zero_copy=*/true), golden);
  }
}

TEST(HttpFragmentation, OracleModeMatchesFlatParseAtEverySplit) {
  // The copy oracle must frame identically — it shares the parser but
  // exercises the non-borrowing (arena-copy) header path.
  for (const std::string& stream : kStreams) {
    const std::vector<FlatRequest> golden = parse_flat(stream);
    for (size_t cut = 1; cut < stream.size(); ++cut) {
      const auto got = parse_chained(stream, {cut}, /*zero_copy=*/false);
      ASSERT_EQ(got, golden) << "oracle split at " << cut;
    }
  }
}

TEST(HttpFragmentation, ThreeWaySplitsOnChunkedStream) {
  const std::string& stream = kStreams[2];
  const std::vector<FlatRequest> golden = parse_flat(stream);
  // All ordered (i, j) pairs — covers chunk-size lines, chunk data, and
  // trailer lines each straddling two boundaries at once.
  for (size_t i = 1; i + 1 < stream.size(); i += 3) {
    for (size_t j = i + 1; j < stream.size(); j += 3) {
      const auto got =
          parse_chained(stream, {i, j}, /*zero_copy=*/true);
      ASSERT_EQ(got, golden) << "splits at " << i << "," << j;
    }
  }
}

}  // namespace
}  // namespace hermes::http
