// http::ConnState: keep-alive + pipelining over iobuf chains, zero-copy
// wire building vs the copy oracle, Connection: close semantics, and
// backpressure.
#include "http/conn_state.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

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
    EXPECT_EQ(a->wire.fnv1a(), b->wire.fnv1a());
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
  ConnState::Config cc;
  cc.max_pipeline = 2;
  ConnState cs(cc);
  std::string wire;
  for (int i = 0; i < 5; ++i) wire += simple_get(i);
  cs.on_client_data(std::string_view{wire});

  // Only max_pipeline requests parse ahead; popping resumes the pump.
  int popped = 0;
  while (auto r = cs.pop_ready()) ++popped;
  EXPECT_EQ(popped, 5);
}

TEST(ConnState, ReadyQueueStaysBoundedOnAPipelineThatNeverDrains) {
  // A long pipelined stream whose ready queue never empties: every step
  // delivers 1-3 requests and pops 1-3, but always leaves one behind.
  // The queue must reuse its slots (FIFO order intact across wraps)
  // instead of growing with the stream. Up to four requests are
  // outstanding, so backpressure at max_pipeline engages as well.
  ConnState::Config cc;
  cc.max_pipeline = 3;
  ConnState cs(cc);
  int delivered = 0;
  int popped = 0;
  for (int step = 0; step < 3000; ++step) {
    for (int k = 0; k <= step % 3; ++k) {
      const std::string req = simple_get(delivered++);
      cs.on_client_data(std::string_view{req});
    }
    for (int k = 0; k <= (step + 1) % 3 && delivered - popped > 1; ++k) {
      auto r = cs.pop_ready();
      ASSERT_TRUE(r.has_value());
      ASSERT_EQ(r->request.path, "/item/" + std::to_string(popped));
      ++popped;
    }
    ASSERT_TRUE(cs.has_ready());
    ASSERT_LE(cs.ready_capacity(), cc.max_pipeline);
  }
  EXPECT_GT(popped, 5000);
  EXPECT_FALSE(cs.failed());
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
  EXPECT_EQ(a.fnv1a(), b.fnv1a());
  EXPECT_EQ(zc.stats().forward_bytes_copied, 0u);
  EXPECT_EQ(oracle.stats().forward_bytes_copied, encoded.size());
}

TEST(ConnState, EnvSelectorParsesHermesZerocopy) {
  // Never persists: restore whatever was set around this test.
  const char* old = std::getenv("HERMES_ZEROCOPY");
  const std::string saved = old ? old : "";

  unsetenv("HERMES_ZEROCOPY");
  EXPECT_TRUE(zero_copy_enabled_from_env());
  setenv("HERMES_ZEROCOPY", "1", 1);
  EXPECT_TRUE(zero_copy_enabled_from_env());
  setenv("HERMES_ZEROCOPY", "0", 1);
  EXPECT_FALSE(zero_copy_enabled_from_env());

  if (old != nullptr) {
    setenv("HERMES_ZEROCOPY", saved.c_str(), 1);
  } else {
    unsetenv("HERMES_ZEROCOPY");
  }
}

}  // namespace
}  // namespace hermes::http
