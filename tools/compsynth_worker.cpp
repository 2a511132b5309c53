// compsynth_worker — a distributed version-space sync worker.
//
// Serves shard-computation requests from a dist::ShardCoordinator over the
// line-delimited JSON wire protocol of docs/DISTRIBUTED.md: each request
// carries a sketch, a preference graph and a [lo, hi) candidate range, and
// the worker answers with that shard's survivor record (CRC-guarded).
// Workers hold no sync state between requests, so any number of them can be
// pointed at by a coordinator and killed/restarted freely — a lost worker
// costs re-dispatch time, never correctness.
//
// Usage:
//   compsynth_worker --listen <endpoint> [options]
//
// Options:
//   --listen E            unix:<path> or tcp:[host:]<port> (tcp:0 picks an
//                         ephemeral port; the chosen one is printed)
//   --fault-drop P        drop the connection mid-response with probability P
//   --fault-stall P       stall before answering with probability P
//   --fault-stall-s S     stall duration in seconds (default 0.05)
//   --fault-truncate P    return a blob truncated mid-bitmap with
//                         probability P (CRC recomputed: structurally torn,
//                         transport-clean)
//   --fault-crash-ack P   crash the worker right after a successful
//                         response with probability P
//   --fault-seed N        fault-stream seed (default 1)
//   --trace FILE          append a JSONL trace (schema rev 1.6, worker_shard
//                         events; docs/OBSERVABILITY.md)
//   --metrics             print the metrics registry as Markdown at exit
//
// Prints "listening on <endpoint>" once bound — scripts wait for that line —
// and exits 0 after a `shutdown` request or SIGTERM/SIGINT drains (in-flight
// requests answered, traces/metrics flushed), 1 on usage or startup errors.
#include <iostream>
#include <optional>
#include <string>

#include "dist/worker.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/signal_drain.h"
#include "util/fault.h"

#include "flag_value.h"

namespace {

using namespace compsynth;

struct Options {
  std::string listen;
  util::FaultPlan faults;
  std::optional<std::string> trace_path;
  bool print_metrics = false;
};

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --listen <unix:PATH|tcp:[HOST:]PORT>\n"
               "  [--fault-drop P] [--fault-stall P] [--fault-stall-s S]\n"
               "  [--fault-truncate P] [--fault-crash-ack P] [--fault-seed N]\n"
               "  [--trace FILE] [--metrics]\n";
  return 1;
}

std::optional<Options> parse_args(int argc, char** argv) {
  Options opt;
  opt.faults.seed = 1;
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
    } else if (arg == "--fault-drop") {
      if (!next_number(opt.faults.worker_drop_p)) return std::nullopt;
    } else if (arg == "--fault-stall") {
      if (!next_number(opt.faults.worker_stall_p)) return std::nullopt;
    } else if (arg == "--fault-stall-s") {
      if (!next_number(opt.faults.worker_stall_s)) return std::nullopt;
    } else if (arg == "--fault-truncate") {
      if (!next_number(opt.faults.worker_truncate_p)) return std::nullopt;
    } else if (arg == "--fault-crash-ack") {
      if (!next_number(opt.faults.worker_crash_after_ack_p)) return std::nullopt;
    } else if (arg == "--fault-seed") {
      if (!next_number(opt.faults.seed)) return std::nullopt;
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
  if (opt.listen.empty()) return std::nullopt;
  return opt;
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
    obs.run_id = "worker";

    dist::WorkerConfig config;
    config.listen = opt->listen;
    config.faults = opt->faults;
    config.obs = obs;

    dist::Worker worker(config);
    // Constructed before start() so every server thread inherits the signal
    // mask: SIGTERM/SIGINT drain gracefully (in-flight responses land,
    // traces/metrics flush, exit 0).
    serve::SignalDrain drain([&worker] { worker.stop(); });
    worker.start();
    std::cout << "listening on " << worker.endpoint() << std::endl;

    worker.wait();

    if (opt->print_metrics) std::cout << metrics.render_markdown();
    return 0;
  } catch (const std::exception& ex) {
    std::cerr << "compsynth_worker: " << ex.what() << "\n";
    return 1;
  }
}
