// Fig. A5: CDF of the number of forwarding rules per port in a region —
// the paper's evidence that tenant rule sets vary wildly (so there is no
// code locality to exploit). We generate per-port rule tables with a
// heavy-tailed rule count, then drive real RouteTable matching to show how
// routing cost scales with table size.
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "http/cost_model.h"
#include "http/router.h"
#include "simcore/histogram.h"

using namespace hermes;
using namespace hermes::bench;

int main(int argc, char** argv) {
  BenchJson json("figA5_rules", &argc, argv);
  header("Fig. A5: forwarding rules per port (CDF) + routing cost scaling");

  sim::Rng rng(31);
  constexpr int kPorts = 2000;
  std::vector<double> counts;
  counts.reserve(kPorts);
  for (int i = 0; i < kPorts; ++i) {
    // Most tenants have a handful of rules; a tail has hundreds.
    counts.push_back(rng.bounded_pareto(0.9, 1.0, 2000.0));
  }
  sim::SampleSet ss;
  for (double c : counts) ss.add(c);
  std::printf("rules/port CDF:  P10=%.0f  P50=%.0f  P90=%.0f  P99=%.0f"
              "  max=%.0f\n",
              ss.quantile(0.10), ss.quantile(0.50), ss.quantile(0.90),
              ss.quantile(0.99), ss.quantile(1.0));
  json.metric("rules_p50", ss.quantile(0.50));
  json.metric("rules_p99", ss.quantile(0.99));

  subheader("routing cost vs rule count (real RouteTable::match)");
  http::CostModel cost_model;
  std::printf("%-12s %16s %14s\n", "#rules", "rules examined",
              "est. cost (us)");
  const auto host = [](size_t i) {
    std::string h = "t";
    h += std::to_string(i);
    h += ".example.com";
    return h;
  };
  for (size_t n : {1, 10, 50, 200, 1000}) {
    http::RouteTable rt;
    for (size_t i = 0; i < n; ++i) {
      rt.add_rule({.host = host(i),
                   .path_prefix = "/",
                   .backend_pool = static_cast<uint32_t>(i)});
    }
    http::Request req;
    req.method = http::Method::Get;
    req.path = "/index";
    req.headers.add("Host", host(n - 1));
    const auto m = rt.match(req);
    http::RequestShape shape;
    shape.bytes = 2048;
    shape.rules_examined = m.rules_examined;
    std::printf("%-12zu %16zu %14.1f\n", n, m.rules_examined,
                cost_model.cost(shape).us_f());
    std::string key = "rules";
    key += std::to_string(n);
    json.metric(key + ".cost_us", cost_model.cost(shape).us_f());
  }
  std::printf("\nShape: rule counts are heavy-tailed across ports, and"
              " per-request routing\ncost scales with the examined rules —"
              " different rules, different code\npaths, no cache locality"
              " to preserve (paper Appendix C).\n");
  return 0;
}
