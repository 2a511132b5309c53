// compsynth_serve — the synthesis-as-a-service daemon.
//
// Hosts many concurrent comparative-synthesis sessions in one process and
// serves them over the line-delimited JSON protocol of docs/SERVICE.md.
// Session state is durable under --root: every acked answer and every
// checkpoint hits disk before the ack, so killing the daemon (even -9) and
// restarting it on the same root resumes every session to the identical
// query sequence.
//
// Usage:
//   compsynth_serve --listen <endpoint> --root <dir> --sketch <file> [options]
//
// Options:
//   --listen E          unix:<path> or tcp:[host:]<port> (tcp:0 picks an
//                       ephemeral port; the chosen one is printed)
//   --root DIR          session state root (created if missing)
//   --sketch FILE       register a sketch (repeatable; the first becomes the
//                       default for create requests that name none)
//   --max-active N      resident-session bound; beyond it the least recently
//                       touched idle session swaps to disk (default 64,
//                       0 = unbounded)
//   --keep N            snapshots kept per session (default 4)
//   --workers N         advance worker threads (default 4; 1 = inline)
//   --grid-threads N    GridFinder threads per advance (default 1; see the
//                       nested-pool note in serve/session_host.h)
//   --fault-torn-write P  inject torn checkpoint writes with probability P
//                       (crash rehearsal; docs/PERSISTENCE.md §Fault
//                       injection)
//   --fault-seed N      fault-stream seed (default 1)
//   --trace FILE        append a JSONL trace (schema rev 1.4, serve.* events;
//                       docs/OBSERVABILITY.md)
//   --metrics           print the metrics registry as Markdown at exit
//
// The daemon prints "listening on <endpoint>" once the socket is bound —
// scripts wait for that line — and exits 0 after a `shutdown` request
// drains, 1 on usage or startup errors. SIGTERM and SIGINT drain gracefully:
// in-flight requests are answered, traces/metrics flushed, exit code 0.
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "serve/session_host.h"
#include "serve/signal_drain.h"
#include "sketch/parser.h"
#include "util/fault.h"
#include "util/thread_pool.h"

#include "flag_value.h"

namespace {

using namespace compsynth;

struct Options {
  std::string listen;
  std::string root;
  std::vector<std::string> sketch_paths;
  int max_active = 64;
  int keep = 4;
  int workers = 4;
  int grid_threads = 1;
  double fault_torn_write = 0.0;
  std::uint64_t fault_seed = 1;
  std::optional<std::string> trace_path;
  bool print_metrics = false;
};

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --listen <unix:PATH|tcp:[HOST:]PORT> --root <dir>"
               " --sketch <file> [--sketch <file>...]\n"
               "  [--max-active N] [--keep N] [--workers N]\n"
               "  [--grid-threads N] [--fault-torn-write P] [--fault-seed N]\n"
               "  [--trace FILE] [--metrics]\n";
  return 1;
}

std::optional<Options> parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    auto next_number = [&](auto& slot) {
      const auto v = next();
      return v && tools::parse_flag_value(arg, *v, slot);
    };
    if (arg == "--listen") {
      auto v = next();
      if (!v) return std::nullopt;
      opt.listen = *v;
    } else if (arg == "--root") {
      auto v = next();
      if (!v) return std::nullopt;
      opt.root = *v;
    } else if (arg == "--sketch") {
      auto v = next();
      if (!v) return std::nullopt;
      opt.sketch_paths.push_back(*v);
    } else if (arg == "--max-active") {
      if (!next_number(opt.max_active)) return std::nullopt;
    } else if (arg == "--keep") {
      if (!next_number(opt.keep)) return std::nullopt;
    } else if (arg == "--workers") {
      if (!next_number(opt.workers)) return std::nullopt;
    } else if (arg == "--grid-threads") {
      if (!next_number(opt.grid_threads)) return std::nullopt;
    } else if (arg == "--fault-torn-write") {
      if (!next_number(opt.fault_torn_write)) return std::nullopt;
    } else if (arg == "--fault-seed") {
      if (!next_number(opt.fault_seed)) return std::nullopt;
    } else if (arg == "--trace") {
      auto v = next();
      if (!v) return std::nullopt;
      opt.trace_path = *v;
    } else if (arg == "--metrics") {
      opt.print_metrics = true;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      return std::nullopt;
    }
  }
  if (opt.listen.empty() || opt.root.empty() || opt.sketch_paths.empty()) {
    return std::nullopt;
  }
  return opt;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> opt = parse_args(argc, argv);
  if (!opt) return usage(argv[0]);

  try {
    obs::MetricsRegistry metrics;
    std::optional<obs::FileTraceSink> sink;
    if (opt->trace_path) sink.emplace(*opt->trace_path);

    obs::RunContext obs;
    obs.metrics = &metrics;
    obs.tracer = sink ? &*sink : nullptr;
    obs.run_id = "serve";

    util::ThreadPool pool(static_cast<std::size_t>(
        opt->workers < 1 ? 1 : opt->workers));

    serve::HostConfig host_config;
    host_config.root = opt->root;
    host_config.max_active = opt->max_active;
    host_config.keep_snapshots = opt->keep;
    host_config.grid_threads = opt->grid_threads;
    host_config.checkpoint_faults.torn_write_p = opt->fault_torn_write;
    host_config.checkpoint_faults.seed = opt->fault_seed;
    host_config.obs = obs;
    host_config.pool = opt->workers > 1 ? &pool : nullptr;

    serve::SessionHost host(host_config);
    for (const std::string& path : opt->sketch_paths) {
      host.register_sketch(sketch::parse_sketch(read_file(path)));
    }

    serve::ServerConfig server_config;
    server_config.listen = opt->listen;
    server_config.obs = obs;
    serve::Server server(server_config, host);
    // Constructed before start() so every server thread inherits the signal
    // mask: SIGTERM/SIGINT initiate the same graceful drain as a shutdown
    // request (in-flight responses land, traces/metrics flush, exit 0).
    serve::SignalDrain drain([&server] { server.stop(); });
    server.start();
    std::cout << "listening on " << server.endpoint() << std::endl;

    server.wait();

    if (opt->print_metrics) std::cout << metrics.render_markdown();
    return 0;
  } catch (const std::exception& ex) {
    std::cerr << "compsynth_serve: " << ex.what() << "\n";
    return 1;
  }
}
