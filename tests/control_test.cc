// PolicyEndpoint: the Appendix-C HTTP control plane for live scheduler
// policy updates, driven through the real HTTP parser.
#include <gtest/gtest.h>

#include "core/control.h"
#include "test_util.h"

namespace hermes::core {
namespace {

class ControlTest : public ::testing::Test {
 protected:
  ControlTest() : scheduler_(HermesConfig{}), endpoint_(scheduler_) {}

  http::Response send(const std::string& wire) {
    http::RequestParser p;
    p.feed(wire);
    EXPECT_TRUE(p.has_request()) << wire;
    return endpoint_.handle(p.take());
  }

  Scheduler scheduler_;
  PolicyEndpoint endpoint_;
};

TEST_F(ControlTest, GetPolicyReturnsCurrentConfig) {
  const auto resp = send("GET /policy HTTP/1.1\r\n\r\n");
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"theta_ratio\":0.5"), std::string::npos);
  EXPECT_NE(resp.body.find("\"order\":\"time,conn,event\""),
            std::string::npos);
  EXPECT_NE(resp.body.find("\"hang_threshold_ms\":50"), std::string::npos);
}

TEST_F(ControlTest, SetTheta) {
  const auto resp = send("POST /policy/theta?value=1.25 HTTP/1.1\r\n\r\n");
  EXPECT_EQ(resp.status, 200);
  EXPECT_DOUBLE_EQ(scheduler_.config().theta_ratio, 1.25);
}

TEST_F(ControlTest, SetHangThreshold) {
  const auto resp = send("POST /policy/hang-ms?value=120 HTTP/1.1\r\n\r\n");
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(scheduler_.config().hang_threshold.ns(),
            SimTime::millis(120).ns());
}

TEST_F(ControlTest, SetOrderPermutation) {
  const auto resp =
      send("POST /policy/order?value=time,event,conn HTTP/1.1\r\n\r\n");
  EXPECT_EQ(resp.status, 200);
  const auto& cfg = scheduler_.config();
  EXPECT_EQ(cfg.num_stages, 3u);
  EXPECT_EQ(cfg.stage_order[0], FilterStage::Time);
  EXPECT_EQ(cfg.stage_order[1], FilterStage::PendingEvents);
  EXPECT_EQ(cfg.stage_order[2], FilterStage::Connections);
}

TEST_F(ControlTest, SetShorterCascade) {
  const auto resp = send("POST /policy/order?value=time HTTP/1.1\r\n\r\n");
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(scheduler_.config().num_stages, 1u);
}

TEST_F(ControlTest, RejectsBadValues) {
  EXPECT_EQ(send("POST /policy/theta?value=-1 HTTP/1.1\r\n\r\n").status, 400);
  EXPECT_EQ(send("POST /policy/theta?value=abc HTTP/1.1\r\n\r\n").status, 400);
  EXPECT_EQ(send("POST /policy/theta HTTP/1.1\r\n\r\n").status, 400);
  EXPECT_EQ(send("POST /policy/hang-ms?value=0 HTTP/1.1\r\n\r\n").status, 400);
  EXPECT_EQ(send("POST /policy/order?value=bogus HTTP/1.1\r\n\r\n").status,
            400);
  // Config unchanged by the rejects.
  EXPECT_DOUBLE_EQ(scheduler_.config().theta_ratio, 0.5);
}

TEST_F(ControlTest, UnknownEndpoints404) {
  EXPECT_EQ(send("GET /nope HTTP/1.1\r\n\r\n").status, 404);
  EXPECT_EQ(send("POST /policy/nope?value=1 HTTP/1.1\r\n\r\n").status, 404);
  EXPECT_EQ(send("DELETE /policy HTTP/1.1\r\n\r\n").status, 404);
}

TEST_F(ControlTest, MultiKeyQueryStringParsed) {
  const auto resp =
      send("POST /policy/theta?other=9&value=0.75&x=1 HTTP/1.1\r\n\r\n");
  EXPECT_EQ(resp.status, 200);
  EXPECT_DOUBLE_EQ(scheduler_.config().theta_ratio, 0.75);
}

TEST_F(ControlTest, UpdatedPolicyTakesEffectOnNextSchedule) {
  // End-to-end: flip theta to 0 and verify the live scheduler narrows.
  auto buf = testing::wst_buffer(4);
  auto wst = WorkerStatusTable::init(buf.data(), 4);
  const SimTime now = SimTime::millis(1);
  for (WorkerId w = 0; w < 4; ++w) {
    wst.update_avail(w, now);
    wst.add_connections(w, w);  // 0,1,2,3
  }
  const auto before = scheduler_.schedule(wst, now);  // theta 0.5 -> 3 pass
  EXPECT_EQ(before.selected, 3u);
  send("POST /policy/theta?value=0 HTTP/1.1\r\n\r\n");
  const auto after = scheduler_.schedule(wst, now);  // theta 0 -> 2 pass
  EXPECT_EQ(after.selected, 2u);
}

TEST_F(ControlTest, AcceptsExactRangeBoundaries) {
  EXPECT_EQ(send("POST /policy/theta?value=0 HTTP/1.1\r\n\r\n").status, 200);
  EXPECT_EQ(send("POST /policy/theta?value=16 HTTP/1.1\r\n\r\n").status, 200);
  EXPECT_EQ(send("POST /policy/theta?value=16.5 HTTP/1.1\r\n\r\n").status,
            400);
  EXPECT_EQ(send("POST /policy/hang-ms?value=60000 HTTP/1.1\r\n\r\n").status,
            200);
  EXPECT_EQ(send("POST /policy/hang-ms?value=60001 HTTP/1.1\r\n\r\n").status,
            400);
}

TEST_F(ControlTest, OrderRejectsEmptyAndPartialTokens) {
  EXPECT_EQ(send("POST /policy/order?value= HTTP/1.1\r\n\r\n").status, 400);
  EXPECT_EQ(send("POST /policy/order?value=conn,bogus HTTP/1.1\r\n\r\n").status,
            400);
  // A rejected order never changes the cascade length.
  EXPECT_EQ(scheduler_.config().num_stages, 3u);
}

TEST_F(ControlTest, DescribeRoundTripsThroughOrderEndpoint) {
  // Set a two-stage cascade, read it back via GET, and feed the reported
  // order string into the endpoint again: a full round trip must be a
  // fixed point.
  ASSERT_EQ(send("POST /policy/order?value=event,conn HTTP/1.1\r\n\r\n").status,
            200);
  const auto get = send("GET /policy HTTP/1.1\r\n\r\n");
  EXPECT_NE(get.body.find("\"order\":\"event,conn\""), std::string::npos);

  ASSERT_EQ(send("POST /policy/order?value=event,conn HTTP/1.1\r\n\r\n").status,
            200);
  const auto& cfg = scheduler_.config();
  EXPECT_EQ(cfg.num_stages, 2u);
  EXPECT_EQ(cfg.stage_order[0], FilterStage::PendingEvents);
  EXPECT_EQ(cfg.stage_order[1], FilterStage::Connections);
  EXPECT_NE(send("GET /policy HTTP/1.1\r\n\r\n")
                .body.find("\"order\":\"event,conn\""),
            std::string::npos);
}

}  // namespace
}  // namespace hermes::core
