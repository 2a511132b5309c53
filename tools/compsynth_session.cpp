// compsynth_session — durable synthesis sessions: checkpoint, crash,
// resume, inspect (docs/GUIDE.md §Durable sessions walks through all of it).
//
// Usage:
//   compsynth_session run     <sketch-file> --target <expr> --dir <dir> [options]
//   compsynth_session resume  <sketch-file> --target <expr> --dir <dir> [options]
//   compsynth_session inspect <snapshot-file-or-dir>
//
// `run` executes the interaction loop with an oracle simulated from
// --target, writing an atomic snapshot to --dir after every finder query
// that finds a pair.
// `resume` recovers the newest valid snapshot from --dir (skipping torn or
// corrupt files) and continues the identical run — same objective, same
// oracle query sequence as an uninterrupted run. `inspect` prints a
// snapshot's manifest and state summary without running anything.
//
// Options (run/resume):
//   --backend z3|grid|portfolio
//                              candidate finder (default: grid; portfolio =
//                              grid plus a Z3 proof of its verdict on its
//                              survivors, docs/SOLVER.md); recorded
//                              in the snapshot's backend tag, so resume
//                              must pass the same one
//   --dir <dir>                snapshot directory (required)
//   --keep <n>                 snapshots retained on disk (default 4)
//   --pairs/--initial/--max-iters/--seed   as in compsynth_cli; the seed
//                              must lie in [0, 2^53], the range a snapshot
//                              manifest holds exactly
//   --stop-after <n>           exit(42) right after the checkpoint at
//                              iteration n — a simulated crash for tests
//   --trace <file>             JSONL trace (docs/OBSERVABILITY.md)
//   --metrics                  print the metrics registry after the run
//   --quiet                    suppress the transcript
//
// Fault injection (run/resume; all probabilities default 0):
//   --fault-oracle-timeout <p>   oracle query times out (retried w/ backoff)
//   --fault-oracle-slowdown <p>  oracle query stalls briefly
//   --fault-z3-failure <p>       Z3 check fails transiently (retried;
//                                --backend z3 only)
//   --fault-z3-slowdown <p>      Z3 check stalls briefly (--backend z3 only)
//   --fault-torn-write <p>       checkpoint write is torn (tests recovery)
//   --fault-seed <n>             injector decision-stream seed
//   --retry-attempts <n>         retry budget per query (default 8 when any
//                                fault probability is set, else 3)
//   --retry-backoff <s>          initial backoff seconds (default 0: tests
//                                should not sleep)
//
// Exit status: 0 converged, 2 contradictory answers, 3 iteration budget,
// 4 solver gave up, 42 simulated crash (--stop-after), 1 usage/runtime error
// (including a numeric option whose value is not an in-range number).
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "oracle/ground_truth.h"
#include "oracle/variants.h"
#include "session/checkpoint.h"
#include "session/snapshot.h"
#include "sketch/parser.h"
#include "sketch/printer.h"
#include "solver/z3_finder.h"
#include "synth/synthesizer.h"
#include "util/fault.h"

#include "flag_value.h"

namespace {

using namespace compsynth;

struct Options {
  std::string command;
  std::string sketch_path;  // or snapshot path for `inspect`
  std::optional<std::string> target_expr;
  std::string backend = "grid";
  std::string dir;
  int keep = 4;
  int stop_after = 0;
  std::optional<std::string> trace_path;
  bool print_metrics = false;
  bool quiet = false;
  util::FaultPlan faults;
  std::optional<int> retry_attempts;
  double retry_backoff_s = 0;
  synth::SynthesisConfig config;
};

void usage(std::ostream& os) {
  os << "usage: compsynth_session run|resume <sketch-file> --target <expr> "
        "--dir <dir>\n"
        "         [--backend z3|grid|portfolio]\n"
        "         [--keep n] [--pairs k]\n"
        "         [--initial n] [--max-iters n] [--seed n] [--stop-after n]\n"
        "         [--trace file] [--metrics] [--quiet]\n"
        "         [--fault-oracle-timeout p] [--fault-oracle-slowdown p]\n"
        "         [--fault-z3-failure p] [--fault-z3-slowdown p]  (z3 only)\n"
        "         [--fault-torn-write p] [--fault-seed n]\n"
        "         [--retry-attempts n] [--retry-backoff s]\n"
        "       compsynth_session inspect <snapshot-file-or-dir>\n";
}

std::optional<Options> parse_args(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Options opt;
  opt.command = argv[1];
  if (opt.command != "run" && opt.command != "resume" &&
      opt.command != "inspect") {
    std::cerr << "unknown command '" << opt.command << "'\n";
    return std::nullopt;
  }
  auto need_value = [&](int& i) -> std::optional<std::string> {
    if (i + 1 >= argc) {
      std::cerr << argv[i] << " requires a value\n";
      return std::nullopt;
    }
    return std::string(argv[++i]);
  };
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_for = [&](auto setter) -> bool {
      if (auto v = need_value(i)) {
        setter(*v);
        return true;
      }
      return false;
    };
    auto number = [&](auto& slot, auto... bounds) {
      const auto v = need_value(i);
      return v && tools::parse_flag_value(arg, *v, slot, bounds...);
    };
    if (arg == "--help" || arg == "-h") return std::nullopt;
    if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--metrics") {
      opt.print_metrics = true;
    } else if (arg == "--target") {
      if (!value_for([&](const std::string& v) { opt.target_expr = v; })) return std::nullopt;
    } else if (arg == "--backend") {
      if (!value_for([&](const std::string& v) { opt.backend = v; })) return std::nullopt;
      if (opt.backend != "z3" && opt.backend != "grid" &&
          opt.backend != "portfolio") {
        std::cerr << "unknown backend '" << opt.backend << "'\n";
        return std::nullopt;
      }
    } else if (arg == "--dir") {
      if (!value_for([&](const std::string& v) { opt.dir = v; })) return std::nullopt;
    } else if (arg == "--keep") {
      if (!number(opt.keep)) return std::nullopt;
    } else if (arg == "--stop-after") {
      if (!number(opt.stop_after)) return std::nullopt;
    } else if (arg == "--pairs") {
      if (!number(opt.config.pairs_per_iteration)) return std::nullopt;
    } else if (arg == "--initial") {
      if (!number(opt.config.initial_scenarios)) return std::nullopt;
    } else if (arg == "--max-iters") {
      if (!number(opt.config.max_iterations)) return std::nullopt;
    } else if (arg == "--seed") {
      const std::uint64_t max_seed = obs::kJsonMaxExactInt;
      if (!number(opt.config.seed, std::uint64_t{0}, max_seed)) return std::nullopt;
    } else if (arg == "--trace") {
      if (!value_for([&](const std::string& v) { opt.trace_path = v; })) return std::nullopt;
    } else if (arg == "--fault-oracle-timeout") {
      if (!number(opt.faults.oracle_timeout_p)) return std::nullopt;
    } else if (arg == "--fault-oracle-slowdown") {
      if (!number(opt.faults.oracle_slowdown_p)) return std::nullopt;
    } else if (arg == "--fault-z3-failure") {
      if (!number(opt.faults.z3_failure_p)) return std::nullopt;
    } else if (arg == "--fault-z3-slowdown") {
      if (!number(opt.faults.z3_slowdown_p)) return std::nullopt;
    } else if (arg == "--fault-torn-write") {
      if (!number(opt.faults.torn_write_p)) return std::nullopt;
    } else if (arg == "--fault-seed") {
      if (!number(opt.faults.seed)) return std::nullopt;
    } else if (arg == "--retry-attempts") {
      int attempts = 0;
      if (!number(attempts)) return std::nullopt;
      opt.retry_attempts = attempts;
    } else if (arg == "--retry-backoff") {
      if (!number(opt.retry_backoff_s)) return std::nullopt;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option '" << arg << "'\n";
      return std::nullopt;
    } else if (opt.sketch_path.empty()) {
      opt.sketch_path = arg;
    } else {
      std::cerr << "unexpected argument '" << arg << "'\n";
      return std::nullopt;
    }
  }
  if (opt.sketch_path.empty()) {
    std::cerr << "missing " << (opt.command == "inspect" ? "snapshot" : "sketch")
              << " path\n";
    return std::nullopt;
  }
  if (opt.command != "inspect") {
    // Only the Z3 back-end checks through the fault injector; elsewhere
    // these flags would silently do nothing.
    if ((opt.faults.z3_failure_p > 0 || opt.faults.z3_slowdown_p > 0) &&
        opt.backend != "z3") {
      std::cerr << "--fault-z3-failure and --fault-z3-slowdown need "
                   "--backend z3\n";
      return std::nullopt;
    }
    if (opt.dir.empty()) {
      std::cerr << "--dir is required for " << opt.command << "\n";
      return std::nullopt;
    }
    if (!opt.target_expr) {
      std::cerr << "--target is required (compsynth_session simulates the "
                   "user; use compsynth_cli for interactive sessions)\n";
      return std::nullopt;
    }
  }
  return opt;
}

std::string read_file_text(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int inspect(const std::string& path) {
  std::string chosen = path;
  std::vector<std::string> corrupt;
  std::optional<session::Snapshot> snap;
  if (std::filesystem::is_regular_file(path)) {
    snap = session::read_file(path);
  } else {
    snap = session::CheckpointManager::recover_latest(path, &chosen, &corrupt);
    if (!snap) {
      std::cerr << "no valid snapshot under '" << path << "'\n";
      return 1;
    }
  }
  std::cout << "snapshot:    " << chosen << "\n"
            << "format:      v" << snap->meta.version << "\n"
            << "sketch:      " << snap->meta.sketch << "\n"
            << "backend:     " << snap->meta.backend << "\n"
            << "seed:        " << snap->meta.seed << "\n"
            << "run id:      " << snap->meta.run_id << "\n"
            << "iteration:   " << snap->meta.iteration << "\n"
            << "interactions:" << ' ' << snap->state.interactions << "\n"
            << "user answers:" << ' ' << snap->state.oracle_comparisons << "\n"
            << "graph:       " << snap->state.graph.vertex_count()
            << " scenarios, " << snap->state.graph.edges().size()
            << " preferences, " << snap->state.graph.ties().size() << " ties\n"
            << "solver time: " << snap->state.total_solver_seconds << " s\n";
  for (const std::string& bad : corrupt) {
    std::cout << "skipped (torn/corrupt): " << bad << "\n";
  }
  return 0;
}

int finish(const Options& opt, const sketch::Sketch& sk,
           const synth::SynthesisResult& result,
           const obs::MetricsRegistry& metrics) {
  if (!opt.quiet) {
    std::cout << "iterations: " << result.iterations
              << "  user answers: " << result.oracle_comparisons
              << "  solver time: " << result.total_solver_seconds << " s\n";
  }
  if (opt.print_metrics) std::cout << "\n" << metrics.render_markdown();
  switch (result.status) {
    case synth::SynthesisStatus::kConverged:
      std::cout << "converged:\n  "
                << sketch::print_instantiated(sk, *result.objective) << "\n";
      return 0;
    case synth::SynthesisStatus::kIterationLimit:
      std::cout << "iteration budget exhausted\n";
      return 3;
    case synth::SynthesisStatus::kNoCandidate:
      std::cout << "the answers contradict every instance of this sketch\n";
      return 2;
    case synth::SynthesisStatus::kSolverGaveUp:
      std::cout << "solver gave up\n";
      return 4;
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> opt = parse_args(argc, argv);
  if (!opt) {
    usage(std::cerr);
    return 1;
  }

  try {
    if (opt->command == "inspect") return inspect(opt->sketch_path);

    const sketch::Sketch sk = sketch::parse_sketch(read_file_text(opt->sketch_path));

    // Observability: both run and resume share the wiring with compsynth_cli.
    obs::MetricsRegistry metrics;
    std::unique_ptr<obs::FileTraceSink> trace_sink;
    synth::SynthesisConfig config = opt->config;
    if (opt->print_metrics) config.obs.metrics = &metrics;
    if (opt->trace_path) {
      trace_sink = std::make_unique<obs::FileTraceSink>(*opt->trace_path);
      config.obs.tracer = trace_sink.get();
    }
    config.obs.run_id = sk.name();
    config.obs.seed = config.seed;

    // Retry policies: with faults injected the default 3 attempts abort real
    // runs too often at the probabilities the fault suite uses, so the
    // budget widens unless the user pinned it.
    util::RetryPolicy retry;
    retry.max_attempts = opt->retry_attempts.value_or(opt->faults.any() ? 8 : 3);
    retry.initial_backoff_s = opt->retry_backoff_s;
    config.finder.retry = retry;

    // One injector per fault site (forked seeds): each site's decision
    // stream is saved/restored by the component that owns it, so resumed
    // runs replay the identical fault sequence.
    std::shared_ptr<util::FaultInjector> oracle_injector, z3_injector,
        checkpoint_injector;
    if (opt->faults.oracle_timeout_p > 0 || opt->faults.oracle_slowdown_p > 0) {
      util::FaultPlan plan = opt->faults;
      plan.seed = opt->faults.seed;
      oracle_injector = std::make_shared<util::FaultInjector>(plan);
    }
    if (opt->faults.z3_failure_p > 0 || opt->faults.z3_slowdown_p > 0) {
      util::FaultPlan plan = opt->faults;
      plan.seed = opt->faults.seed ^ 0x5a3c0ffeeULL;
      z3_injector = std::make_shared<util::FaultInjector>(plan);
    }
    if (opt->faults.torn_write_p > 0) {
      util::FaultPlan plan = opt->faults;
      plan.seed = opt->faults.seed ^ 0x70a2317eULL;
      checkpoint_injector = std::make_shared<util::FaultInjector>(plan);
    }

    // The user model: ground truth from --target, wrapped behind the fault
    // injector when oracle faults are on. Construction must be identical
    // across run and resume (restore_state expects the same topology).
    std::unique_ptr<oracle::Oracle> user = std::make_unique<oracle::GroundTruthOracle>(
        sk, sketch::parse_expr(*opt->target_expr, sk),
        config.finder.tie_tolerance);
    if (oracle_injector != nullptr) {
      user = std::make_unique<oracle::FlakyOracle>(std::move(user), oracle_injector);
    }
    user->set_retry_policy(retry);

    // Checkpointing: every snapshot write is atomic unless the torn-write
    // injector fires (which is the point of --fault-torn-write).
    session::CheckpointConfig ckpt;
    ckpt.directory = opt->dir;
    ckpt.keep = opt->keep;
    ckpt.injector = checkpoint_injector;
    ckpt.obs = &config.obs;
    session::CheckpointManager manager(ckpt);

    // The backend tag names the finder a resume must reconstruct.
    session::SnapshotMeta meta;
    meta.sketch = sk.name();
    meta.backend = opt->backend;
    meta.seed = config.seed;
    meta.run_id = config.obs.run_id;
    const auto write_snapshot = session::checkpoint_hook(manager, meta);
    const int stop_after = opt->stop_after;
    config.checkpoint = [&, write_snapshot](const synth::SessionState& st) {
      write_snapshot(st);
      if (stop_after > 0 && st.iterations >= stop_after) {
        std::cout << "simulated crash after iteration " << st.iterations
                  << " (snapshot is on disk)\n";
        std::cout.flush();
        std::_Exit(42);  // no unwinding — as close to kill -9 as portable code gets
      }
    };

    synth::Synthesizer synthesizer =
        opt->backend == "portfolio" ? synth::make_portfolio_synthesizer(sk, config)
        : opt->backend == "grid"    ? synth::make_grid_synthesizer(sk, config)
                                    : synth::make_z3_synthesizer(sk, config);
    if (auto* z3 = dynamic_cast<solver::Z3Finder*>(&synthesizer.finder())) {
      z3->set_fault_injector(z3_injector);
    }

    synth::SynthesisResult result;
    if (opt->command == "run") {
      result = synthesizer.run(*user);
    } else {
      std::string chosen;
      std::vector<std::string> corrupt;
      std::optional<session::Snapshot> snap =
          session::CheckpointManager::recover_latest(opt->dir, &chosen, &corrupt);
      if (!snap) {
        std::cerr << "error: no valid snapshot under '" << opt->dir << "'\n";
        return 1;
      }
      for (const std::string& bad : corrupt) {
        if (!opt->quiet) std::cout << "skipped torn/corrupt snapshot " << bad << "\n";
      }
      if (snap->meta.sketch != sk.name() || snap->meta.backend != opt->backend ||
          snap->meta.seed != config.seed) {
        std::cerr << "error: snapshot '" << chosen << "' was written by sketch '"
                  << snap->meta.sketch << "' backend '" << snap->meta.backend
                  << "' seed " << snap->meta.seed
                  << "; refusing to resume with a different configuration\n";
        return 1;
      }
      if (!opt->quiet) {
        std::cout << "resuming from " << chosen << " (iteration "
                  << snap->meta.iteration << ")\n";
      }
      result = synthesizer.resume(*user, std::move(snap->state));
    }
    return finish(*opt, sk, result, metrics);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
