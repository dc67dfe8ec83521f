// http::ConnState: keep-alive + pipelining over iobuf chains, zero-copy
// wire building vs the copy oracle, Connection: close semantics, and
// on-demand parsing (at most one parsed request held).
#include "http/conn_state.h"

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

namespace hermes::http {
namespace {

std::string simple_get(int i, bool close = false) {
  std::string s = "GET /item/" + std::to_string(i) + " HTTP/1.1\r\n";
  s += "Host: example.com\r\n";
  if (close) s += "Connection: close\r\n";
  s += "\r\n";
  return s;
}

TEST(ConnState, SingleRequestZeroCopyWireMatches) {
  ConnState cs;  // default: zero-copy
  const std::string wire = simple_get(1);
  cs.on_client_data(std::string_view{wire});
  ASSERT_TRUE(cs.has_ready());
  auto r = cs.pop_ready();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->request.method, Method::Get);
  EXPECT_EQ(r->request.path, "/item/1");
  EXPECT_EQ(r->wire.to_string(), wire);
  // The forwarding path never memcpy'd: only the admission copy happened.
  EXPECT_EQ(cs.stats().forward_bytes_copied, 0u);
  EXPECT_EQ(cs.stats().forward_bytes_referenced, wire.size());
}

TEST(ConnState, OracleModeCopiesButProducesIdenticalBytes) {
  ConnState::Config cc;
  cc.zero_copy = false;
  ConnState oracle(cc);
  ConnState zc;

  const std::string wire = simple_get(7) + simple_get(8);
  oracle.on_client_data(std::string_view{wire});
  zc.on_client_data(std::string_view{wire});

  for (int i = 0; i < 2; ++i) {
    auto a = oracle.pop_ready();
    auto b = zc.pop_ready();
    ASSERT_TRUE(a && b);
    EXPECT_EQ(a->wire.digest(), b->wire.digest());
    EXPECT_EQ(a->wire.to_string(), b->wire.to_string());
  }
  EXPECT_GT(oracle.stats().forward_bytes_copied, 0u);
  EXPECT_EQ(zc.stats().forward_bytes_copied, 0u);
}

TEST(ConnState, KeepAlivePipeliningAcrossFragmentedSlices) {
  ConnState cs;
  std::string wire;
  constexpr int kReqs = 5;
  for (int i = 0; i < kReqs; ++i) wire += simple_get(i);

  // Deliver in awkward 7-byte slices, each its own retained segment.
  for (size_t off = 0; off < wire.size(); off += 7) {
    const size_t n = std::min<size_t>(7, wire.size() - off);
    cs.on_client_data(std::string_view{wire}.substr(off, n));
  }

  std::string reassembled;
  int popped = 0;
  while (auto r = cs.pop_ready()) {
    EXPECT_EQ(r->request.path,
              "/item/" + std::to_string(popped));
    reassembled += r->wire.to_string();
    ++popped;
  }
  EXPECT_EQ(popped, kReqs);
  EXPECT_EQ(reassembled, wire);  // wire chains partition the input exactly
  EXPECT_EQ(cs.stats().forward_bytes_copied, 0u);
}

TEST(ConnState, ConnectionCloseStopsConsuming) {
  ConnState cs;
  const std::string wire = simple_get(1, /*close=*/true) + simple_get(2);
  cs.on_client_data(std::string_view{wire});
  auto r = cs.pop_ready();
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->request.keep_alive());
  EXPECT_TRUE(cs.wants_close());
  // The pipelined second request is left unparsed, like a closing server.
  EXPECT_FALSE(cs.has_ready());
  EXPECT_GT(cs.buffered_bytes(), 0u);
}

TEST(ConnState, MaxPipelineBackpressure) {
  // Parsing is on demand: of five pipelined requests exactly one is
  // parsed ahead, and the other four stay as unparsed bytes until the
  // one before them is popped.
  ConnState cs;
  std::string wire;
  for (int i = 0; i < 5; ++i) wire += simple_get(i);
  cs.on_client_data(std::string_view{wire});

  size_t parsed = 0;  // bytes of the requests parsed so far
  int popped = 0;
  while (cs.has_ready()) {
    parsed += simple_get(popped).size();
    EXPECT_EQ(cs.buffered_bytes(), wire.size() - parsed);
    auto r = cs.pop_ready();
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->request.path, "/item/" + std::to_string(popped));
    ++popped;
  }
  EXPECT_EQ(popped, 5);
  EXPECT_EQ(cs.buffered_bytes(), 0u);
}

TEST(ConnState, ReadyQueueStaysBoundedOnAPipelineThatNeverDrains) {
  // A long pipelined stream that never drains: every step delivers 1-3
  // requests and pops 1-3, but always leaves one behind. However many
  // requests are outstanding, at most one is parsed; the rest stay as
  // raw bytes, in order.
  ConnState cs;
  int delivered = 0;
  int popped = 0;
  std::deque<size_t> lengths;  // wire sizes of the unpopped requests
  for (int step = 0; step < 3000; ++step) {
    for (int k = 0; k <= step % 3; ++k) {
      const std::string req = simple_get(delivered++);
      lengths.push_back(req.size());
      cs.on_client_data(std::string_view{req});
    }
    for (int k = 0; k <= (step + 1) % 3 && delivered - popped > 1; ++k) {
      auto r = cs.pop_ready();
      ASSERT_TRUE(r.has_value());
      ASSERT_EQ(r->request.path, "/item/" + std::to_string(popped));
      ++popped;
      lengths.pop_front();
    }
    ASSERT_TRUE(cs.has_ready());
    // The one parsed request's bytes are in its wire chain; every later
    // request is still buffered.
    const size_t unparsed =
        std::accumulate(lengths.begin() + 1, lengths.end(), size_t{0});
    ASSERT_EQ(cs.buffered_bytes(), unparsed);
  }
  EXPECT_GT(popped, 5000);
  EXPECT_FALSE(cs.failed());
}

TEST(ConnState, MalformedPipelinedRequestFailsOnlyAfterTheOneBeforeIt) {
  // The second request is garbage. It is not parsed until the first is
  // popped, so the first is served before the connection fails.
  ConnState cs;
  const std::string first = simple_get(1);
  cs.on_client_data(std::string_view{first + "NONSENSE\r\n\r\n"});
  ASSERT_TRUE(cs.has_ready());
  EXPECT_FALSE(cs.failed());

  auto r = cs.pop_ready();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->wire.to_string(), first);
  EXPECT_TRUE(cs.failed());
  EXPECT_FALSE(cs.has_ready());
  EXPECT_FALSE(cs.pop_ready().has_value());
}

TEST(ConnState, ConnectionCloseMidPipelineLeavesLaterBytesUnconsumed) {
  ConnState cs;
  const std::string tail = simple_get(3) + simple_get(4);
  cs.on_client_data(
      std::string_view{simple_get(1) + simple_get(2, /*close=*/true) + tail});

  auto a = cs.pop_ready();
  ASSERT_TRUE(a.has_value());
  EXPECT_FALSE(cs.wants_close());
  auto b = cs.pop_ready();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->request.path, "/item/2");
  EXPECT_TRUE(cs.wants_close());
  // Nothing after the closing request is parsed or forwarded.
  EXPECT_FALSE(cs.has_ready());
  EXPECT_EQ(cs.buffered_bytes(), tail.size());
  EXPECT_EQ(cs.stats().requests, 2u);
  EXPECT_EQ(cs.stats().forward_bytes_referenced,
            simple_get(1).size() + simple_get(2, true).size());
}

TEST(ConnState, BodyBytesTravelInWireChainNotRequestBody) {
  ConnState cs;  // capture_body off by default
  const std::string wire =
      "POST /up HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
  cs.on_client_data(std::string_view{wire});
  auto r = cs.pop_ready();
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->request.body.empty());          // not flattened
  EXPECT_EQ(r->wire.to_string(), wire);          // but fully forwarded
}

TEST(ConnState, ParseErrorSurfaces) {
  ConnState cs;
  cs.on_client_data(std::string_view{"NONSENSE\r\n\r\n"});
  EXPECT_TRUE(cs.failed());
  EXPECT_FALSE(cs.has_ready());
}

// The parser is lent per message, so a connection between requests is a
// small row. Growing it past this is a per-connection memory regression.
static_assert(sizeof(ConnState) <= 168);

TEST(ConnState, InterleavedHalfRequestsKeepTheirParsers) {
  // 1000 connections each hold half a request at once, then get the rest
  // in a different order. A parser lent away mid-message would hand one
  // connection's partial line or headers to another. Modes and body
  // capture alternate so each lend must also take its connection's
  // capture setting.
  constexpr int kConns = 1000;
  std::vector<std::unique_ptr<ConnState>> conns;
  std::vector<std::string> wires;
  for (int i = 0; i < kConns; ++i) {
    ConnState::Config cc;
    cc.zero_copy = i % 2 == 0;
    cc.capture_body = i % 3 == 0;
    conns.push_back(std::make_unique<ConnState>(cc));
    const std::string body(static_cast<size_t>(i % 17),
                           static_cast<char>('a' + i % 26));
    wires.push_back("POST /item/" + std::to_string(i) +
                    " HTTP/1.1\r\nHost: example.com\r\nContent-Length: " +
                    std::to_string(body.size()) + "\r\n\r\n" + body);
  }
  // Cut points fall inside the request line, a header line, the blank
  // line and the body.
  auto cut = [&](int i) { return wires[i].size() * (1 + i % 7) / 8; };
  for (int i = 0; i < kConns; ++i) {
    conns[i]->on_client_data(std::string_view{wires[i]}.substr(0, cut(i)));
    ASSERT_FALSE(conns[i]->has_ready()) << i;
  }
  for (int k = 0; k < kConns; ++k) {
    const int i = (k * 7919) % kConns;  // 7919 is prime: a permutation
    conns[i]->on_client_data(std::string_view{wires[i]}.substr(cut(i)));
    ASSERT_TRUE(conns[i]->has_ready()) << i;
  }
  for (int i = 0; i < kConns; ++i) {
    auto r = conns[i]->pop_ready();
    ASSERT_TRUE(r.has_value()) << i;
    EXPECT_EQ(r->request.path, "/item/" + std::to_string(i));
    EXPECT_EQ(r->wire.to_string(), wires[i]);
    const size_t body_len = static_cast<size_t>(i % 17);
    EXPECT_EQ(r->request.body.size(), i % 3 == 0 ? body_len : 0u) << i;
    EXPECT_FALSE(conns[i]->failed());
    EXPECT_EQ(conns[i]->buffered_bytes(), 0u);
  }
}

TEST(ConnState, TwoPipelinedRequestsInOneSlice) {
  ConnState cs;
  const std::string a = simple_get(1);
  const std::string b = simple_get(2);
  cs.on_client_data(std::string_view{a + b});
  ASSERT_TRUE(cs.has_ready());
  EXPECT_EQ(cs.buffered_bytes(), b.size());
  auto ra = cs.pop_ready();
  ASSERT_TRUE(ra.has_value());
  EXPECT_EQ(ra->wire.to_string(), a);
  ASSERT_TRUE(cs.has_ready());
  EXPECT_EQ(cs.buffered_bytes(), 0u);
  auto rb = cs.pop_ready();
  ASSERT_TRUE(rb.has_value());
  EXPECT_EQ(rb->request.path, "/item/2");
  EXPECT_EQ(rb->wire.to_string(), b);
  EXPECT_FALSE(cs.has_ready());
  // The connection parses again once more bytes arrive.
  cs.on_client_data(std::string_view{simple_get(3)});
  auto rc = cs.pop_ready();
  ASSERT_TRUE(rc.has_value());
  EXPECT_EQ(rc->request.path, "/item/3");
}

TEST(ConnState, RequestLineSplitMidLineAcrossFeeds) {
  // The first feed ends inside the request line: the parser holds a
  // partial line and must stay with this connection while another
  // connection runs whole requests in between.
  ConnState split;
  ConnState other;
  const std::string wire = simple_get(4);
  const size_t mid = std::string_view{wire}.find(' ', 4);  // in the line
  split.on_client_data(std::string_view{wire}.substr(0, mid));
  EXPECT_FALSE(split.has_ready());
  EXPECT_FALSE(split.failed());
  EXPECT_EQ(split.buffered_bytes(), 0u);  // consumed into the parser
  for (int i = 0; i < 3; ++i) {
    other.on_client_data(std::string_view{simple_get(10 + i)});
    auto r = other.pop_ready();
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->request.path, "/item/" + std::to_string(10 + i));
  }
  split.on_client_data(std::string_view{wire}.substr(mid));
  auto r = split.pop_ready();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->request.path, "/item/4");
  EXPECT_EQ(r->request.host(), "example.com");
  EXPECT_EQ(r->wire.to_string(), wire);
}

TEST(ConnState, FailedParserStaysFailedAfterMoreBytes) {
  ConnState bad;
  bad.on_client_data(std::string_view{"NONSENSE\r\n\r\n"});
  ASSERT_TRUE(bad.failed());
  const std::string error{bad.error()};
  EXPECT_FALSE(error.empty());
  // A valid request after the error is never parsed.
  bad.on_client_data(std::string_view{simple_get(1)});
  EXPECT_TRUE(bad.failed());
  EXPECT_EQ(bad.error(), error);
  EXPECT_FALSE(bad.has_ready());
  EXPECT_FALSE(bad.pop_ready().has_value());
  // The failed parser was not handed back: a fresh connection parses.
  ConnState good;
  EXPECT_FALSE(good.failed());
  EXPECT_TRUE(good.error().empty());
  good.on_client_data(std::string_view{simple_get(2)});
  ASSERT_TRUE(good.has_ready());
  EXPECT_FALSE(good.failed());
  EXPECT_EQ(good.pop_ready()->request.path, "/item/2");
}

TEST(ConnState, EgressRespectsMode) {
  Response resp;
  resp.set_status(200).set_body("0123456789");
  const netsim::IoChain encoded = ConnState::encode(resp);

  ConnState zc;
  ConnState::Config oc;
  oc.zero_copy = false;
  ConnState oracle(oc);

  const netsim::IoChain a = zc.egress(encoded);
  const netsim::IoChain b = oracle.egress(encoded);
  EXPECT_EQ(a.to_string(), b.to_string());
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(zc.stats().forward_bytes_copied, 0u);
  EXPECT_EQ(oracle.stats().forward_bytes_copied, encoded.size());
}

}  // namespace
}  // namespace hermes::http
