// perfbench: runs one benchmark workload in this process and prints
// its report as one JSON line. perfbench/run.py builds and invokes it; see
// perfbench/README.md.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--sketch-dir <dir>] [--state-dir <dir>]
//   perfbench --probe
//
// --probe runs only the fixed memory-latency probe and prints its result;
// run.py runs it in a process of its own before every workload, so the
// probe's 64 MiB table never counts toward the workload's peak RSS.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "layers.h"
#include "obs/trace.h"
#include "sketch/compile.h"
#include "workloads.h"

namespace {

std::string quote(const std::string& s) {
  return "\"" + compsynth::obs::json_escape(s) + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_object(const std::vector<perfbench::Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ",";
    out += quote(ms[i].name) + ":{\"value\":" + number(ms[i].value) +
           ",\"unit\":" + quote(ms[i].unit) + "}";
  }
  return out + "}";
}

template <typename T>
std::string pairs_object(const std::vector<std::pair<std::string, T>>& ps) {
  std::string out = "{";
  for (std::size_t i = 0; i < ps.size(); ++i) {
    if (i > 0) out += ",";
    out += quote(ps[i].first) + ":" + std::to_string(ps[i].second);
  }
  return out + "}";
}

std::string reals_object(const std::vector<std::pair<std::string, double>>& ps) {
  std::string out = "{";
  for (std::size_t i = 0; i < ps.size(); ++i) {
    if (i > 0) out += ",";
    out += quote(ps[i].first) + ":" + number(ps[i].second);
  }
  return out + "}";
}

std::string string_array(const std::vector<std::string>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out += ",";
    out += quote(xs[i]);
  }
  return out + "]";
}

int usage() {
  std::cerr << "usage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--sketch-dir <dir>] "
               "[--state-dir <dir>]\n       perfbench --probe\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::now_s();  // fixes the clock's epoch: set-up is timed from here
  perfbench::Options o;
  bool probe = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        o.workload = value();
      } else if (arg == "--seed") {
        o.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        o.seconds = std::stoi(value());
      } else if (arg == "--trace") {
        o.trace = value() != "0";
      } else if (arg == "--smoke") {
        o.smoke = true;
      } else if (arg == "--sketch-dir") {
        o.sketch_dir = value();
      } else if (arg == "--state-dir") {
        o.state_dir = value();
      } else if (arg == "--probe") {
        probe = true;
      } else {
        return usage();
      }
    } catch (const std::exception& e) {
      std::cerr << "perfbench: " << e.what() << "\n";
      return usage();
    }
  }
  if (probe) {
    std::cout << "{\"memory_probe_ns\":" << number(perfbench::memory_probe_ns())
              << "}" << std::endl;
    return 0;
  }
  if (o.workload.empty() || o.seconds < 1) return usage();

  perfbench::RunReport rep;
  try {
    rep = perfbench::run_workload(o);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << o.workload << ": " << e.what() << "\n";
    return 1;
  }
  std::ostringstream host;
  host << "{\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"lane_isa\":"
       << quote(compsynth::sketch::lane_isa_name(
              compsynth::sketch::active_lane_isa()))
       << ",\"compiler\":" << quote(PERFBENCH_COMPILER)
       << ",\"build_type\":" << quote(PERFBENCH_BUILD_TYPE) << "}";
  std::cout << "{\"workload\":" << quote(o.workload)
            << ",\"seed\":" << o.seed << ",\"seconds\":" << o.seconds
            << ",\"trace\":" << (o.trace ? 1 : 0)
            << ",\"smoke\":" << (o.smoke ? "true" : "false")
            << ",\"correct\":" << (rep.correct ? "true" : "false")
            << ",\"problems\":" << string_array(rep.problems)
            << ",\"attempted\":" << rep.attempted
            << ",\"failed\":" << rep.failed
            << ",\"metrics\":" << metrics_object(rep.metrics)
            << ",\"layers\":" << metrics_object(rep.layers)
            << ",\"samples\":" << pairs_object(rep.samples)
            << ",\"counts\":" << pairs_object(rep.counts)
            << ",\"digests\":" << string_array(rep.digests)
            << ",\"span_file\":" << quote(rep.span_file)
            << ",\"phases_s\":" << reals_object(rep.phases)
            << ",\"host\":" << host.str() << "}" << std::endl;
  return 0;
}
