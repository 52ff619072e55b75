// meshpram_perfbench — runs one benchmark workload and prints its raw
// measurements as one JSON object on stdout (run.py turns them into the
// named metrics). Usage:
//   meshpram_perfbench --workload <pram-step|dist-ranks|algo-cc|serve-tcp>
//                      --seed <n> --seconds <s> --trace <0|1>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "bench.hpp"
#include "mesh/node_order.hpp"
#include "util/log.hpp"
#include "util/simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

std::string quote(const std::string& s) {
  std::ostringstream os;
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << "\\u" << std::hex << std::setw(4) << std::setfill('0')
         << static_cast<int>(c) << std::dec;
    } else {
      os << c;
    }
  }
  os << '"';
  return os.str();
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

template <class T, class F>
std::string list(const std::vector<T>& v, F&& fmt) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    out += fmt(v[i]);
  }
  return out + "]";
}

std::string nums(const std::vector<double>& v) { return list(v, num); }
std::string ints(const std::vector<i64>& v) {
  return list(v, [](i64 x) { return std::to_string(x); });
}

template <class F>
std::string object(const std::map<std::string, std::string>& m, F&& fmt) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out += ',';
    first = false;
    out += quote(k) + ":" + fmt(v);
  }
  return out + "}";
}

std::string rung_json(const Rung& g);

std::string to_json(const Report& r) {
  std::map<std::string, std::string> layers;
  for (const auto& [k, v] : r.layers) layers[k] = num(v);
  std::ostringstream os;
  os << "{\"workload\":" << quote(r.workload)
     << ",\"stamps\":" << object(r.stamps, quote)
     << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
     << ",\"errors\":" << list(r.errors, quote)
     << ",\"setup_s\":" << nums(r.setup_s) << ",\"unit_ms\":" << nums(r.unit_ms)
     << ",\"throughput_per_s\":" << num(r.throughput_per_s)
     << ",\"mesh_steps\":" << r.mesh_steps << ",\"mesh_units\":" << r.mesh_units
     << ",\"peak_rss_mb\":" << num(r.peak_rss_mb)
     << ",\"layers\":" << object(layers, [](const std::string& s) { return s; })
     << ",\"absent\":" << object(r.absent, quote)
     << ",\"notes\":" << object(r.notes, quote) << ",\"exact\":"
     << list(r.exact,
             [](const ExactCheck& c) {
               return "{\"name\":" + quote(c.name) + ",\"a\":" + ints(c.a) +
                      ",\"b\":" + ints(c.b) + "}";
             })
     << ",\"reference\":" << list(r.reference, rung_json)
     << ",\"ladder\":" << list(r.ladder, rung_json) << "}";
  return os.str();
}

std::string rung_json(const Rung& g) {
  std::ostringstream o;
  o << "{\"rate\":" << num(g.rate) << ",\"seconds\":" << num(g.seconds)
    << ",\"sent\":" << g.sent << ",\"answered\":" << g.answered
    << ",\"refused\":" << g.refused << ",\"mismatched\":" << g.mismatched
    << ",\"backlog_start\":" << g.backlog_start
    << ",\"backlog_end\":" << g.backlog_end
    << ",\"latency_ms\":" << nums(g.latency_ms)
    << ",\"lag_ms\":" << nums(g.lag_ms) << "}";
  return o.str();
}

[[noreturn]] void usage(const char* why) {
  std::cerr << "meshpram_perfbench: " << why
            << "\nusage: meshpram_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(opt.seconds > 0)) usage("--seconds must be positive");

  // The placement warning for t_i < 1 is expected at the reference point.
  meshpram::set_log_level(meshpram::LogLevel::Error);

  Report rep;
  rep.workload = opt.workload;
  rep.stamps["build_type"] = PERFBENCH_BUILD_TYPE;
  rep.stamps["simd"] = meshpram::simd::kernel_name();
  rep.stamps["node_order"] =
      meshpram::node_order_name(meshpram::node_order_default());
  try {
    if (opt.workload == "pram-step") {
      run_pram_step(opt, rep);
    } else if (opt.workload == "dist-ranks") {
      run_dist_ranks(opt, rep);
    } else if (opt.workload == "algo-cc") {
      run_algo_cc(opt, rep);
    } else if (opt.workload == "serve-tcp") {
      run_serve_tcp(opt, rep);
    } else {
      usage(("unknown workload '" + opt.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::cerr << "meshpram_perfbench: " << opt.workload << ": " << e.what()
              << '\n';
    return 1;
  }
  if (rep.peak_rss_mb == 0) rep.peak_rss_mb = peak_rss_mb();
  std::cout << to_json(rep) << '\n';
  return 0;
}
