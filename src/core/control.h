// Runtime policy control endpoint (paper Appendix C: "our scheduler
// exposes an HTTP interface that allows dynamic policy updates, supports
// fallbacks to reuseport, and facilitates rapid iteration of future
// scheduling algorithms").
//
// PolicyEndpoint maps HTTP requests onto the live Scheduler configuration:
//
//   GET  /policy                     -> current configuration (JSON)
//   POST /policy/theta?value=0.5     -> set the filter offset ratio
//   POST /policy/hang-ms?value=50    -> set the hang threshold
//   POST /policy/order?value=time,conn,event
//                                    -> set the cascade stage order
//
// The host (live demo, ops tooling, tests) terminates the TCP/HTTP side
// with http::RequestParser and feeds parsed requests in; this type only
// decides and mutates — it holds no sockets.
#pragma once

#include <charconv>
#include <optional>
#include <string>

#include "core/scheduler.h"
#include "http/parser.h"
#include "http/url.h"
#include "http/response.h"

namespace hermes::core {

class PolicyEndpoint {
 public:
  explicit PolicyEndpoint(Scheduler& scheduler) : scheduler_(scheduler) {}

  http::Response handle(const http::Request& req) {
    if (req.path == "/policy" && req.method == http::Method::Get) {
      return ok(describe());
    }
    if (req.method != http::Method::Post) {
      return error(404, "unknown endpoint");
    }
    if (req.path == "/policy/theta") {
      const auto v = query_double(req, "value");
      if (!v || *v < 0 || *v > 16) return error(400, "theta out of range");
      scheduler_.mutable_config().theta_ratio = *v;
      return ok(describe());
    }
    if (req.path == "/policy/hang-ms") {
      const auto v = query_double(req, "value");
      if (!v || *v <= 0 || *v > 60'000) {
        return error(400, "hang threshold out of range");
      }
      scheduler_.mutable_config().hang_threshold =
          SimTime::from_seconds_f(*v / 1e3);
      return ok(describe());
    }
    if (req.path == "/policy/order") {
      const auto v = query_value(req, "value");
      if (!v) return error(400, "missing order");
      HermesConfig& cfg = scheduler_.mutable_config();
      uint32_t n = 0;
      std::string_view rest{*v};
      while (!rest.empty() && n < 3) {
        const size_t comma = rest.find(',');
        const std::string_view tok = rest.substr(0, comma);
        if (tok == "time") cfg.stage_order[n] = FilterStage::Time;
        else if (tok == "conn") cfg.stage_order[n] = FilterStage::Connections;
        else if (tok == "event") {
          cfg.stage_order[n] = FilterStage::PendingEvents;
        } else {
          return error(400, "unknown stage (want time|conn|event)");
        }
        ++n;
        if (comma == std::string_view::npos) break;
        rest.remove_prefix(comma + 1);
      }
      if (n == 0) return error(400, "empty order");
      cfg.num_stages = n;
      return ok(describe());
    }
    return error(404, "unknown endpoint");
  }

  // Current configuration as a small JSON document.
  std::string describe() const {
    const HermesConfig& cfg = scheduler_.config();
    std::string order;
    for (uint32_t i = 0; i < cfg.num_stages; ++i) {
      if (i) order += ',';
      switch (cfg.stage_order[i]) {
        case FilterStage::Time: order += "time"; break;
        case FilterStage::Connections: order += "conn"; break;
        case FilterStage::PendingEvents: order += "event"; break;
      }
    }
    std::string out = "{";
    out += "\"theta_ratio\":" + format(cfg.theta_ratio);
    out += ",\"hang_threshold_ms\":" + format(cfg.hang_threshold.ms_f());
    out += ",\"order\":\"" + order + "\"";
    out += ",\"min_workers_for_dispatch\":" +
           std::to_string(cfg.min_workers_for_dispatch);
    out += "}";
    return out;
  }

 private:
  static std::string format(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
  }

  static std::optional<std::string> query_value(const http::Request& req,
                                                std::string_view key) {
    return http::query_param(req.query, key);  // percent-decoded
  }

  static std::optional<double> query_double(const http::Request& req,
                                            std::string_view key) {
    const auto v = query_value(req, key);
    if (!v) return std::nullopt;
    // std::from_chars<double> is available in libstdc++ >= 11.
    double out = 0;
    const auto [p, ec] = std::from_chars(v->data(), v->data() + v->size(), out);
    if (ec != std::errc{} || p != v->data() + v->size()) return std::nullopt;
    return out;
  }

  static http::Response ok(std::string body) {
    http::Response r;
    r.set_status(200)
        .add_header("Content-Type", "application/json")
        .set_body(std::move(body));
    return r;
  }
  static http::Response error(int status, std::string msg) {
    http::Response r;
    r.set_status(status).set_body(std::move(msg));
    return r;
  }

  Scheduler& scheduler_;
};

}  // namespace hermes::core
