// Forwarding-rule table: the "HTTP-based routing" the paper's L7 LB
// performs per request (§2.1), plus the per-rule action set that drives the
// L7 cost model (TLS offload, compression, protocol translation).
//
// Rules are matched most-specific-first: exact host beats wildcard host;
// longer path prefix beats shorter; insertion order breaks ties. Fig. A5
// reports the CDF of rules per port in a region — the simulator's rule
// counts are drawn from that style of distribution and looked up through
// this table, so routing cost scales with rule complexity as in production.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "http/parser.h"

namespace hermes::http {

// L7 processing actions a rule enables; each adds cost (see CostModel).
struct Actions {
  bool tls_terminate = false;   // HTTPS decryption at the LB
  bool gzip_response = false;   // compress backend responses
  bool protocol_translate = false;  // e.g. QUIC -> HTTP/1.1
  bool rewrite_headers = false;

  bool operator==(const Actions&) const = default;
};

struct Rule {
  // Host match: exact ("api.example.com") or suffix wildcard
  // ("*.example.com"); empty = any host.
  std::string host;
  // Path match: prefix ("/static/") or exact ("=/health").
  std::string path_prefix;
  std::optional<Method> method{};  // nullopt = any
  uint32_t backend_pool = 0;
  Actions actions{};
};

struct MatchResult {
  const Rule* rule = nullptr;
  size_t rules_examined = 0;  // cost driver: linear scan length
};

class RouteTable {
 public:
  void add_rule(Rule r) { rules_.push_back(std::move(r)); }
  size_t size() const { return rules_.size(); }
  const Rule& rule(size_t i) const { return rules_[i]; }

  // Match a parsed request. Linear most-specific-first scan, as common in
  // nginx-style location matching for moderate rule counts.
  MatchResult match(const Request& req) const;

  static bool host_matches(std::string_view pattern, std::string_view host);
  static bool path_matches(std::string_view pattern, std::string_view path);

 private:
  std::vector<Rule> rules_;
};

}  // namespace hermes::http
