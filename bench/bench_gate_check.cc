// bench_gate_check: the CI bench-regression gate's comparator.
//
// Usage:
//   bench_gate_check <baseline.json> <current.json> [--scale F]
//
// Both files use the aggregated bench-report format that
// scripts/bench_report.sh emits:
//   {"schema":1,"benches":[{"bench":"fig12_unit_cost","metrics":{...}},...]}
// The baseline is simply a checked-in report from a known-good run
// (bench/baseline.json), so regenerating it after an intentional change is
// one `scripts/bench_report.sh` invocation away.
//
// Comparison policy (kept in code so the baseline file stays a plain
// report):
//   - "obs_overhead_pct" is an absolute ceiling: current must be < 5.0
//     (Table 5's claim that the observability layer is cheap enough to
//     leave on). It is NOT compared against the baseline value — it is
//     wall-clock and the budget is the contract.
//   - metrics whose name ends in "avg_us", "_mops", ".speedup",
//     "_cost_ns", "_wall_s" or "_per_wall_sec" are wall-clock timings:
//     reported but never gated.
//   - everything else is a deterministic seeded-simulation statistic and
//     must satisfy |cur - base| <= kAbsTol + kRelTol * |base|. The 5%
//     relative tolerance absorbs libm/compiler drift across toolchains
//     while still catching the 20% injected regression the gate's
//     self-test demands.
//   - a baseline metric missing from the current report is a failure,
//     wall-clock ones included (silently dropping coverage must not pass
//     CI).
//
// --scale F multiplies every gated current value by F before comparing.
// It exists so scripts/bench_gate.sh can prove the gate trips: after the
// real comparison passes, it reruns with --scale 1.2 once per gated bench
// and requires every run to fail.
//
// --only <bench> restricts the comparison to one bench from the baseline
// (the per-bench self-test above).
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

constexpr double kRelTol = 0.05;
constexpr double kAbsTol = 0.05;
constexpr double kObsOverheadMaxPct = 5.0;

// ---- minimal JSON reader ---------------------------------------------
// Parses only what the report format needs: objects, arrays, strings,
// numbers, and the literals true/false/null. No escapes beyond \" \\ \/
// \n \r \t (the writer never emits others for metric names).
struct Parser {
  const char* p;
  const char* end;
  bool ok = true;

  explicit Parser(const std::string& s) : p(s.data()), end(s.data() + s.size()) {}

  void ws() {
    while (p < end && std::isspace(static_cast<unsigned char>(*p))) ++p;
  }
  bool eat(char c) {
    ws();
    if (p < end && *p == c) {
      ++p;
      return true;
    }
    return false;
  }
  bool fail() {
    ok = false;
    return false;
  }

  bool parse_string(std::string& out) {
    ws();
    if (p >= end || *p != '"') return fail();
    ++p;
    out.clear();
    while (p < end && *p != '"') {
      if (*p == '\\' && p + 1 < end) {
        ++p;
        switch (*p) {
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          default: out += *p;
        }
      } else {
        out += *p;
      }
      ++p;
    }
    if (p >= end) return fail();
    ++p;  // closing quote
    return true;
  }

  bool parse_number(double& out) {
    ws();
    char* num_end = nullptr;
    out = std::strtod(p, &num_end);
    if (num_end == p) return fail();
    p = num_end;
    return true;
  }

  // Parses any value; records "<prefix>" -> number for every numeric leaf
  // and "<prefix>" -> string value is ignored except bench names, which the
  // caller pulls out of the raw structure instead.
  bool skip_value();

  bool parse_object_into(const std::string& prefix,
                         std::map<std::string, double>& nums,
                         std::map<std::string, std::string>& strs);
};

bool Parser::skip_value() {
  ws();
  if (p >= end) return fail();
  if (*p == '"') {
    std::string s;
    return parse_string(s);
  }
  if (*p == '{') {
    ++p;
    if (eat('}')) return true;
    do {
      std::string k;
      if (!parse_string(k) || !eat(':') || !skip_value()) return fail();
    } while (eat(','));
    return eat('}') || fail();
  }
  if (*p == '[') {
    ++p;
    if (eat(']')) return true;
    do {
      if (!skip_value()) return fail();
    } while (eat(','));
    return eat(']') || fail();
  }
  if (std::strncmp(p, "true", 4) == 0) { p += 4; return true; }
  if (std::strncmp(p, "false", 5) == 0) { p += 5; return true; }
  if (std::strncmp(p, "null", 4) == 0) { p += 4; return true; }
  double d;
  return parse_number(d);
}

// Flattens {"a":{"b":1}} into nums["a.b"]=1 (keys joined with '/'
// between JSON levels so metric names containing '.' stay unambiguous)
// and strs for string leaves.
bool Parser::parse_object_into(const std::string& prefix,
                               std::map<std::string, double>& nums,
                               std::map<std::string, std::string>& strs) {
  if (!eat('{')) return fail();
  if (eat('}')) return true;
  do {
    std::string key;
    if (!parse_string(key) || !eat(':')) return fail();
    const std::string path = prefix.empty() ? key : prefix + "/" + key;
    ws();
    if (p < end && *p == '{') {
      if (!parse_object_into(path, nums, strs)) return fail();
    } else if (p < end && *p == '"') {
      std::string s;
      if (!parse_string(s)) return fail();
      strs[path] = s;
    } else if (p < end && *p == '[') {
      // Arrays of objects: index into the path.
      ++p;
      if (!eat(']')) {
        int idx = 0;
        do {
          ws();
          const std::string elem = path + "/" + std::to_string(idx++);
          if (p < end && *p == '{') {
            if (!parse_object_into(elem, nums, strs)) return fail();
          } else if (!skip_value()) {
            return fail();
          }
        } while (eat(','));
        if (!eat(']')) return fail();
      }
    } else {
      double d;
      if (!parse_number(d)) {
        // true/false/null leaf: skip.
        ok = true;
        if (!skip_value()) return fail();
      } else {
        nums[path] = d;
      }
    }
  } while (eat(','));
  return eat('}') || fail();
}

// bench name -> metric name -> value
using Report = std::map<std::string, std::map<std::string, double>>;

bool load_report(const char* path, Report& out) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "bench_gate_check: cannot open %s\n", path);
    return false;
  }
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string text = ss.str();

  Parser parser(text);
  std::map<std::string, double> nums;
  std::map<std::string, std::string> strs;
  if (!parser.parse_object_into("", nums, strs) || !parser.ok) {
    std::fprintf(stderr, "bench_gate_check: parse error in %s\n", path);
    return false;
  }

  // Group flattened paths "benches/<i>/metrics/<metric>" by the bench name
  // at "benches/<i>/bench".
  std::map<std::string, std::string> index_to_bench;
  for (const auto& [path_key, s] : strs) {
    // benches/0/bench -> name
    if (path_key.rfind("benches/", 0) == 0 &&
        path_key.size() > 6 &&
        path_key.compare(path_key.size() - 6, 6, "/bench") == 0) {
      index_to_bench[path_key.substr(0, path_key.size() - 6)] = s;
    }
  }
  for (const auto& [path_key, v] : nums) {
    const std::string marker = "/metrics/";
    const auto pos = path_key.find(marker);
    if (pos == std::string::npos) continue;
    const std::string idx = path_key.substr(0, pos);
    const auto it = index_to_bench.find(idx);
    if (it == index_to_bench.end()) continue;
    out[it->second][path_key.substr(pos + marker.size())] = v;
  }
  return true;
}

bool ends_with(const std::string& s, const char* suffix) {
  const size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

bool is_ungated(const std::string& metric) {
  return ends_with(metric, "avg_us") || ends_with(metric, "_mops") ||
         ends_with(metric, ".speedup") || ends_with(metric, "_cost_ns") ||
         ends_with(metric, "_wall_s") || ends_with(metric, "_per_wall_sec");
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 1.0;
  std::string only;
  std::vector<const char*> files;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      scale = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--only") == 0 && i + 1 < argc) {
      only = argv[++i];
    } else {
      files.push_back(argv[i]);
    }
  }
  if (files.size() != 2) {
    std::fprintf(stderr,
                 "usage: bench_gate_check <baseline.json> <current.json>"
                 " [--scale F] [--only <bench>]\n");
    return 2;
  }

  Report baseline, current;
  if (!load_report(files[0], baseline) || !load_report(files[1], current)) {
    return 2;
  }

  // A typo'd --only would otherwise compare nothing and only fail with the
  // generic "nothing compared" message — name the bad bench and what the
  // baseline actually has.
  if (!only.empty() && baseline.find(only) == baseline.end()) {
    std::fprintf(stderr,
                 "bench_gate_check: --only '%s' matches no bench in %s\n"
                 "available benches:\n",
                 only.c_str(), files[0]);
    for (const auto& [bench, metrics] : baseline) {
      std::fprintf(stderr, "  %s\n", bench.c_str());
    }
    return 2;
  }

  int checked = 0, failed = 0, skipped = 0;
  for (const auto& [bench, metrics] : baseline) {
    if (!only.empty() && bench != only) continue;
    const auto cur_bench = current.find(bench);
    for (const auto& [metric, base_val] : metrics) {
      // Presence first: a wall-clock metric a bench stops emitting is lost
      // coverage too, even though its value is never compared.
      if (cur_bench == current.end() ||
          cur_bench->second.find(metric) == cur_bench->second.end()) {
        std::printf("FAIL %s:%s missing from current results\n",
                    bench.c_str(), metric.c_str());
        ++failed;
        continue;
      }
      if (is_ungated(metric)) {
        ++skipped;
        continue;
      }
      const double cur_val = cur_bench->second.at(metric) * scale;
      ++checked;

      if (metric == "obs_overhead_pct") {
        if (cur_val >= kObsOverheadMaxPct) {
          std::printf("FAIL %s:%s = %.3f, budget < %.1f\n", bench.c_str(),
                      metric.c_str(), cur_val, kObsOverheadMaxPct);
          ++failed;
        } else {
          std::printf("ok   %s:%s = %.3f (< %.1f)\n", bench.c_str(),
                      metric.c_str(), cur_val, kObsOverheadMaxPct);
        }
        continue;
      }

      const double tol = kAbsTol + kRelTol * std::fabs(base_val);
      if (std::fabs(cur_val - base_val) > tol) {
        std::printf("FAIL %s:%s = %.6g, baseline %.6g (tol %.3g)\n",
                    bench.c_str(), metric.c_str(), cur_val, base_val, tol);
        ++failed;
      } else {
        std::printf("ok   %s:%s = %.6g (baseline %.6g)\n", bench.c_str(),
                    metric.c_str(), cur_val, base_val);
      }
    }
  }

  std::printf("\nbench gate: %d checked, %d skipped (wall-clock), %d"
              " failed%s\n",
              checked, skipped, failed, scale != 1.0 ? " [scaled]" : "");
  if (checked == 0) {
    std::fprintf(stderr, "bench_gate_check: nothing compared — baseline"
                         " empty or mismatched\n");
    return 2;
  }
  return failed > 0 ? 1 : 0;
}
