// HTTP/1.1 request parser: whole-message, byte-at-a-time, pipelining,
// chunked bodies, limits, malformed input.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "http/parser.h"

namespace hermes::http {
namespace {

Request parse_all(std::string_view wire) {
  RequestParser p;
  const size_t consumed = p.feed(wire);
  EXPECT_TRUE(p.has_request()) << "state=" << static_cast<int>(p.state())
                               << " err=" << p.error();
  EXPECT_EQ(consumed, wire.size());
  return p.take();
}

TEST(ParserTest, SimpleGet) {
  const auto req = parse_all("GET /index.html HTTP/1.1\r\nHost: a.com\r\n\r\n");
  EXPECT_EQ(req.method, Method::Get);
  EXPECT_EQ(req.target, "/index.html");
  EXPECT_EQ(req.path, "/index.html");
  EXPECT_EQ(req.version_major, 1);
  EXPECT_EQ(req.version_minor, 1);
  ASSERT_TRUE(req.host().has_value());
  EXPECT_EQ(*req.host(), "a.com");
}

TEST(ParserTest, QuerySplit) {
  const auto req = parse_all("GET /search?q=1&x=2 HTTP/1.1\r\n\r\n");
  EXPECT_EQ(req.path, "/search");
  EXPECT_EQ(req.query, "q=1&x=2");
}

TEST(ParserTest, AllMethods) {
  for (const char* m : {"GET", "HEAD", "POST", "PUT", "DELETE", "CONNECT",
                        "OPTIONS", "TRACE", "PATCH"}) {
    const auto req =
        parse_all(std::string(m) + " / HTTP/1.1\r\n\r\n");
    EXPECT_STREQ(to_string(req.method), m);
  }
  const auto req = parse_all("BREW /pot HTTP/1.1\r\n\r\n");
  EXPECT_EQ(req.method, Method::Unknown);
}

TEST(ParserTest, ContentLengthBody) {
  const auto req = parse_all(
      "POST /api HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world");
  EXPECT_EQ(req.body, "hello world");
  EXPECT_EQ(req.wire_size,
            std::string("POST /api HTTP/1.1\r\nContent-Length: 11\r\n\r\n"
                        "hello world")
                .size());
}

TEST(ParserTest, ZeroContentLength) {
  const auto req =
      parse_all("POST /api HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
  EXPECT_TRUE(req.body.empty());
}

TEST(ParserTest, ChunkedBody) {
  const auto req = parse_all(
      "POST /up HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n");
  EXPECT_EQ(req.body, "hello world");
}

TEST(ParserTest, ChunkedWithExtensionAndTrailer) {
  const auto req = parse_all(
      "POST /up HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "4;name=val\r\nabcd\r\n0\r\nX-Trailer: t\r\n\r\n");
  EXPECT_EQ(req.body, "abcd");
}

TEST(ParserTest, ByteAtATimeFeeding) {
  const std::string wire =
      "POST /a HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\n\r\nabc";
  RequestParser p;
  for (char c : wire) {
    ASSERT_FALSE(p.failed());
    EXPECT_EQ(p.feed(std::string_view{&c, 1}), 1u);
  }
  ASSERT_TRUE(p.has_request());
  const auto req = p.take();
  EXPECT_EQ(req.body, "abc");
  EXPECT_EQ(req.wire_size, wire.size());
}

TEST(ParserTest, PipelinedRequestsStopAtBoundary) {
  const std::string wire =
      "GET /one HTTP/1.1\r\n\r\nGET /two HTTP/1.1\r\n\r\n";
  RequestParser p;
  const size_t consumed = p.feed(wire);
  ASSERT_TRUE(p.has_request());
  EXPECT_LT(consumed, wire.size());  // stopped at the first boundary
  EXPECT_EQ(p.take().path, "/one");
  const size_t consumed2 = p.feed(std::string_view{wire}.substr(consumed));
  ASSERT_TRUE(p.has_request());
  EXPECT_EQ(consumed + consumed2, wire.size());
  EXPECT_EQ(p.take().path, "/two");
}

TEST(ParserTest, KeepAliveSemantics) {
  EXPECT_TRUE(parse_all("GET / HTTP/1.1\r\n\r\n").keep_alive());
  EXPECT_FALSE(
      parse_all("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").keep_alive());
  EXPECT_FALSE(parse_all("GET / HTTP/1.0\r\n\r\n").keep_alive());
  EXPECT_TRUE(parse_all("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
                  .keep_alive());
}

TEST(ParserTest, WebsocketUpgradeDetected) {
  const auto req = parse_all(
      "GET /chat HTTP/1.1\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n"
      "\r\n");
  EXPECT_TRUE(req.is_websocket_upgrade());
  EXPECT_FALSE(parse_all("GET / HTTP/1.1\r\n\r\n").is_websocket_upgrade());
}

TEST(ParserTest, HeaderCaseInsensitivityAndRepeats) {
  const auto req = parse_all(
      "GET / HTTP/1.1\r\nX-Tag: one\r\nx-tag: two\r\nHOST: h\r\n\r\n");
  EXPECT_EQ(*req.headers.get("X-TAG"), "one");  // first wins for get()
  std::vector<std::string_view> tags;
  EXPECT_TRUE(req.headers.for_each("x-Tag", [&tags](std::string_view v) {
    tags.push_back(v);
    return true;
  }));
  EXPECT_EQ(tags, (std::vector<std::string_view>{"one", "two"}));
  // A callback that returns false stops the walk at the first value.
  int calls = 0;
  EXPECT_FALSE(req.headers.for_each("X-TAG", [&calls](std::string_view) {
    ++calls;
    return false;
  }));
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(*req.host(), "h");
}

TEST(ParserTest, HeaderValueTrimmed) {
  const auto req = parse_all("GET / HTTP/1.1\r\nX:   padded value  \r\n\r\n");
  EXPECT_EQ(*req.headers.get("x"), "padded value");
}

TEST(ParserTest, ToleratesBareLf) {
  const auto req = parse_all("GET / HTTP/1.1\nHost: a\n\n");
  EXPECT_EQ(*req.host(), "a");
}

TEST(ParserTest, LeadingBlankLinesIgnored) {
  const auto req = parse_all("\r\n\r\nGET /x HTTP/1.1\r\n\r\n");
  EXPECT_EQ(req.path, "/x");
}

TEST(ParserErrorTest, MalformedRequestLine) {
  for (const char* bad :
       {"GARBAGE\r\n\r\n", "GET\r\n\r\n", "GET /\r\n\r\n",
        "GET / HTTP/11\r\n\r\n", "GET / FTP/1.1\r\n\r\n"}) {
    RequestParser p;
    p.feed(bad);
    EXPECT_TRUE(p.failed()) << bad;
  }
}

TEST(ParserErrorTest, MalformedHeaders) {
  for (const char* bad :
       {"GET / HTTP/1.1\r\nNoColon\r\n\r\n",
        "GET / HTTP/1.1\r\n: novalue\r\n\r\n",
        "GET / HTTP/1.1\r\nBad Name: x\r\n\r\n"}) {
    RequestParser p;
    p.feed(bad);
    EXPECT_TRUE(p.failed()) << bad;
  }
}

TEST(ParserErrorTest, BadContentLength) {
  RequestParser p;
  p.feed("POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n");
  EXPECT_TRUE(p.failed());
}

TEST(ParserErrorTest, OversizedBodyRejected) {
  RequestParser p;
  p.feed("POST / HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n");
  EXPECT_TRUE(p.failed());
  EXPECT_STREQ(p.error().data(), "body too large");
}

TEST(ParserErrorTest, OversizedRequestLineRejected) {
  RequestParser p;
  std::string line = "GET /";
  line.append(RequestParser::kMaxRequestLine, 'a');
  p.feed(line);
  EXPECT_TRUE(p.failed());
}

TEST(ParserErrorTest, BadChunkSize) {
  RequestParser p;
  p.feed(
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n");
  EXPECT_TRUE(p.failed());
}

TEST(ParserTest, TrailersAreCaptured) {
  const auto req = parse_all(
      "POST /up HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "3\r\nabc\r\n0\r\nX-Checksum: deadbeef\r\nX-Count: 1\r\n\r\n");
  EXPECT_EQ(req.body, "abc");
  EXPECT_EQ(req.trailers.size(), 2u);
  EXPECT_EQ(*req.trailers.get("x-checksum"), "deadbeef");
  EXPECT_EQ(*req.trailers.get("X-COUNT"), "1");
  // Trailers never masquerade as headers.
  EXPECT_FALSE(req.headers.get("x-checksum").has_value());
}

TEST(ParserTest, ChunkExtensionWithSpaceBeforeSemicolon) {
  const auto req = parse_all(
      "POST /up HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "4 ;padded=yes\r\nwxyz\r\n0\r\n\r\n");
  EXPECT_EQ(req.body, "wxyz");
}

TEST(ParserTest, IdenticalDuplicateContentLengthAccepted) {
  // RFC 9110 §8.6: identical repeated values may be coalesced.
  const auto req = parse_all(
      "POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\n"
      "abc");
  EXPECT_EQ(req.body, "abc");
  const auto req2 = parse_all(
      "POST / HTTP/1.1\r\nContent-Length: 3, 3\r\n\r\nabc");
  EXPECT_EQ(req2.body, "abc");
}

TEST(ParserErrorTest, ConflictingContentLengthRejected) {
  // Different values in repeated headers or a comma list: the classic
  // request-smuggling vector. Hard error, never "pick one".
  for (const char* bad :
       {"POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\n",
        "POST / HTTP/1.1\r\nContent-Length: 3, 4\r\n\r\n"}) {
    RequestParser p;
    p.feed(bad);
    EXPECT_TRUE(p.failed()) << bad;
    EXPECT_STREQ(p.error().data(), "conflicting content-length") << bad;
  }
}

TEST(ParserErrorTest, ContentLengthWithTransferEncodingRejected) {
  RequestParser p;
  p.feed(
      "POST / HTTP/1.1\r\nContent-Length: 5\r\n"
      "Transfer-Encoding: chunked\r\n\r\n");
  EXPECT_TRUE(p.failed());
  EXPECT_STREQ(p.error().data(), "content-length with transfer-encoding");
}

TEST(ParserErrorTest, UnsupportedTransferEncodingRejected) {
  RequestParser p;
  p.feed("POST / HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n");
  EXPECT_TRUE(p.failed());

  // chunked must be the FINAL coding; "chunked, gzip" would leave the
  // message un-frameable by the chunked de-framer.
  RequestParser q;
  q.feed("POST / HTTP/1.1\r\nTransfer-Encoding: chunked, gzip\r\n\r\n");
  EXPECT_TRUE(q.failed());
}

TEST(ParserErrorTest, ChunkSizeWithLeadingWhitespaceRejected) {
  RequestParser p;
  p.feed("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n 4\r\n");
  EXPECT_TRUE(p.failed());
}

TEST(ParserTest, BorrowModeViewsPointIntoCallerBuffer) {
  // stable=true + unfragmented lines: target and header views must alias
  // the fed buffer (zero copies), not parser-owned storage.
  const std::string wire = "GET /zc?a=1 HTTP/1.1\r\nHost: zc.example\r\n\r\n";
  RequestParser p;
  EXPECT_EQ(p.feed(wire, /*stable=*/true), wire.size());
  ASSERT_TRUE(p.has_request());
  const auto req = p.take();
  const char* lo = wire.data();
  const char* hi = wire.data() + wire.size();
  EXPECT_TRUE(req.target.data() >= lo && req.target.data() < hi);
  ASSERT_TRUE(req.host().has_value());
  EXPECT_TRUE(req.host()->data() >= lo && req.host()->data() < hi);
  EXPECT_EQ(req.headers.arena_blocks(), 0u);  // nothing copied
}

TEST(ParserTest, BodyCaptureOffStillFramesAndCounts) {
  const std::string wire =
      "POST /big HTTP/1.1\r\nContent-Length: 10\r\n\r\n0123456789";
  RequestParser p;
  p.set_body_capture(false);
  EXPECT_EQ(p.feed(wire), wire.size());
  ASSERT_TRUE(p.has_request());
  EXPECT_EQ(p.body_bytes(), 10u);
  const auto req = p.take();
  EXPECT_TRUE(req.body.empty());
  EXPECT_EQ(req.wire_size, wire.size());
}

TEST(ParserTest, HeaderMapArenaReuse) {
  // Many headers: inline entries spill, arena grows in blocks, and every
  // stored view stays valid (stable addresses) after the map moves.
  std::string wire = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 40; ++i) {
    wire += "X-Header-" + std::to_string(i) + ": value-" +
            std::to_string(i) + "\r\n";
  }
  wire += "\r\n";
  auto req = parse_all(wire);
  EXPECT_EQ(req.headers.size(), 40u);
  Request moved = std::move(req);
  for (int i = 0; i < 40; ++i) {
    const auto v = moved.headers.get("x-header-" + std::to_string(i));
    ASSERT_TRUE(v.has_value()) << i;
    EXPECT_EQ(*v, "value-" + std::to_string(i));
  }
}

TEST(ParserTest, TakeResetsForReuse) {
  RequestParser p;
  p.feed("GET /a HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(p.has_request());
  auto first = p.take();
  EXPECT_EQ(p.state(), RequestParser::State::RequestLine);
  p.feed("GET /b HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(p.has_request());
  EXPECT_EQ(p.take().path, "/b");
  EXPECT_EQ(first.path, "/a");
}

}  // namespace
}  // namespace hermes::http
