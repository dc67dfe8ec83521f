// Route table: host/path/method matching, specificity, cost accounting.
#include <gtest/gtest.h>

#include "http/cost_model.h"
#include "http/parser.h"
#include "http/router.h"

namespace hermes::http {
namespace {

Request make_req(std::string host, std::string path,
                 Method method = Method::Get) {
  Request r;
  r.method = method;
  r.path = std::move(path);
  if (!host.empty()) r.headers.add("Host", std::move(host));
  return r;
}

TEST(HostMatchTest, ExactAndWildcardAndAny) {
  EXPECT_TRUE(RouteTable::host_matches("a.com", "a.com"));
  EXPECT_TRUE(RouteTable::host_matches("a.com", "A.COM"));
  EXPECT_FALSE(RouteTable::host_matches("a.com", "b.com"));
  EXPECT_TRUE(RouteTable::host_matches("*.a.com", "x.a.com"));
  EXPECT_TRUE(RouteTable::host_matches("*.a.com", "deep.x.a.com"));
  EXPECT_FALSE(RouteTable::host_matches("*.a.com", "a.com"));  // no subdomain
  EXPECT_TRUE(RouteTable::host_matches("", "anything"));
}

TEST(HostMatchTest, StripsPort) {
  EXPECT_TRUE(RouteTable::host_matches("a.com", "a.com:8080"));
}

TEST(PathMatchTest, PrefixAndExact) {
  EXPECT_TRUE(RouteTable::path_matches("/api/", "/api/v1/users"));
  EXPECT_FALSE(RouteTable::path_matches("/api/", "/apx"));
  EXPECT_TRUE(RouteTable::path_matches("=/health", "/health"));
  EXPECT_FALSE(RouteTable::path_matches("=/health", "/healthz"));
  EXPECT_TRUE(RouteTable::path_matches("", "/anything"));
}

TEST(RouteTableTest, MostSpecificWins) {
  RouteTable rt;
  rt.add_rule({.host = "", .path_prefix = "/", .backend_pool = 1});
  rt.add_rule({.host = "*.shop.com", .path_prefix = "/", .backend_pool = 2});
  rt.add_rule({.host = "api.shop.com", .path_prefix = "/", .backend_pool = 3});
  rt.add_rule(
      {.host = "api.shop.com", .path_prefix = "/admin/", .backend_pool = 4});

  EXPECT_EQ(rt.match(make_req("other.com", "/x")).rule->backend_pool, 1u);
  EXPECT_EQ(rt.match(make_req("www.shop.com", "/x")).rule->backend_pool, 2u);
  EXPECT_EQ(rt.match(make_req("api.shop.com", "/x")).rule->backend_pool, 3u);
  EXPECT_EQ(rt.match(make_req("api.shop.com", "/admin/p")).rule->backend_pool,
            4u);
}

TEST(RouteTableTest, MethodConstraint) {
  RouteTable rt;
  rt.add_rule({.host = "",
               .path_prefix = "/upload",
               .method = Method::Post,
               .backend_pool = 9});
  EXPECT_EQ(rt.match(make_req("", "/upload", Method::Post)).rule->backend_pool,
            9u);
  EXPECT_EQ(rt.match(make_req("", "/upload", Method::Get)).rule, nullptr);
}

TEST(RouteTableTest, NoMatchReturnsNull) {
  RouteTable rt;
  rt.add_rule({.host = "only.com", .path_prefix = "/", .backend_pool = 1});
  const auto res = rt.match(make_req("other.com", "/"));
  EXPECT_EQ(res.rule, nullptr);
  EXPECT_EQ(res.rules_examined, 1u);
}

TEST(RouteTableTest, RulesExaminedCountsFullScan) {
  RouteTable rt;
  for (int i = 0; i < 25; ++i) {
    std::string host = "h";
    host += std::to_string(i);
    host += ".com";
    rt.add_rule({.host = host,
                 .path_prefix = "/",
                 .backend_pool = static_cast<uint32_t>(i)});
  }
  const auto res = rt.match(make_req("h24.com", "/"));
  ASSERT_NE(res.rule, nullptr);
  EXPECT_EQ(res.rules_examined, 25u);  // linear scan cost driver (Fig. A5)
}

TEST(CostModelTest, ActionsRaiseCostMonotonically) {
  CostModel cm;
  RequestShape plain{.bytes = 4096, .rules_examined = 10};
  RequestShape tls = plain;
  tls.actions.tls_terminate = true;
  tls.first_on_connection = true;
  RequestShape tls_gzip = tls;
  tls_gzip.actions.gzip_response = true;

  EXPECT_LT(cm.cost(plain), cm.cost(tls));
  EXPECT_LT(cm.cost(tls), cm.cost(tls_gzip));
}

TEST(CostModelTest, TlsHandshakeOnlyOnFirstRequest) {
  CostModel cm;
  RequestShape first{.bytes = 1024, .rules_examined = 5};
  first.actions.tls_terminate = true;
  first.first_on_connection = true;
  RequestShape later = first;
  later.first_on_connection = false;
  EXPECT_EQ(cm.cost(first) - cm.cost(later), cm.params().tls_handshake);
}

TEST(CostModelTest, CostScalesWithSize) {
  CostModel cm;
  RequestShape small{.bytes = 1024, .rules_examined = 5};
  RequestShape big = small;
  big.bytes = 64 * 1024;
  EXPECT_GT(cm.cost(big), cm.cost(small));
}

TEST(CostModelTest, BaselineMatchesPaperScale) {
  // "Our L7 LB has a 200-300us normal processing latency" (§2.3):
  // a plain routed request of a few KiB should land in that range.
  CostModel cm;
  RequestShape typical{.bytes = 8 * 1024, .rules_examined = 50};
  const SimTime c = cm.cost(typical);
  EXPECT_GE(c, SimTime::micros(100));
  EXPECT_LE(c, SimTime::micros(400));
}

}  // namespace
}  // namespace hermes::http
