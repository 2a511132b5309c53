// compsynth_cli — command-line driver for comparative synthesis.
//
// Usage:
//   compsynth_cli <sketch-file> [options]
//
// Options:
//   --target <expr>     simulate the user with a latent objective given as a
//                       DSL expression over the sketch's metrics
//                       (e.g. --target "throughput - 2*latency");
//                       without it, YOU answer preference queries (1/2/=)
//   --backend z3|grid|portfolio
//                       candidate finder (default: z3, the paper's engine);
//                       portfolio asks the grid first, and where the grid
//                       can only sample a verdict, Z3 proves it on the
//                       grid's survivors (docs/SOLVER.md §Portfolio)
//   --workers E1,E2,..  distribute the grid's full version-space
//                       rebuilds across compsynth_worker endpoints
//                       (unix:<path> or [tcp:]host:port, comma-separated;
//                       docs/DISTRIBUTED.md). Turns --backend z3 into grid.
//                       Worker failure falls back to the local scan, so
//                       results are identical with or without workers.
//   --pairs <k>         scenario pairs ranked per iteration (default 1)
//   --initial <n>       initial random scenarios (default 5)
//   --max-iters <n>     interaction budget (default 500)
//   --seed <n>          RNG seed (default 1)
//   --resume <file>     load a saved preference graph before starting
//   --save <file>       write the final preference graph for later resume
//   --trace <file>      append a structured JSONL trace of the run (schema:
//                       docs/OBSERVABILITY.md; render with trace_report)
//   --metrics           print the metrics registry (counters, gauges,
//                       latency quantiles) as Markdown after the run
//   --quiet             suppress the per-iteration transcript
//
// Exit status: 0 on convergence, 2 when the answers contradict the sketch,
// 3 on iteration budget exhaustion, 4 on solver give-up, 1 on usage errors
// (including a numeric option whose value is not an in-range number).
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "dist/coordinator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "oracle/ground_truth.h"
#include "oracle/variants.h"
#include "pref/serialize.h"
#include "sketch/parser.h"
#include "sketch/printer.h"
#include "synth/synthesizer.h"

#include "flag_value.h"

namespace {

using namespace compsynth;

struct Options {
  std::string sketch_path;
  std::optional<std::string> target_expr;
  std::string backend = "z3";
  std::vector<std::string> workers;
  std::optional<std::string> resume_path;
  std::optional<std::string> save_path;
  std::optional<std::string> trace_path;
  bool print_metrics = false;
  synth::SynthesisConfig config;
  bool quiet = false;
};

void usage(std::ostream& os) {
  os << "usage: compsynth_cli <sketch-file> [--target <expr>]\n"
        "       [--backend z3|grid|portfolio] [--workers ep1,ep2,...]\n"
        "       [--pairs k] [--initial n] [--max-iters n] [--seed n] [--resume file]\n"
        "       [--save file] [--trace file] [--metrics] [--quiet]\n";
}

std::optional<Options> parse_args(int argc, char** argv) {
  Options opt;
  auto need_value = [&](int& i) -> std::optional<std::string> {
    if (i + 1 >= argc) {
      std::cerr << argv[i] << " requires a value\n";
      return std::nullopt;
    }
    return std::string(argv[++i]);
  };
  auto number = [&](int& i, auto& slot) {
    const std::string flag = argv[i];
    const auto v = need_value(i);
    return v && tools::parse_flag_value(flag, *v, slot);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return std::nullopt;
    if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--target") {
      if (auto v = need_value(i)) opt.target_expr = *v; else return std::nullopt;
    } else if (arg == "--backend") {
      if (auto v = need_value(i)) opt.backend = *v; else return std::nullopt;
      if (opt.backend != "z3" && opt.backend != "grid" &&
          opt.backend != "portfolio") {
        std::cerr << "unknown backend '" << opt.backend << "'\n";
        return std::nullopt;
      }
    } else if (arg == "--workers") {
      auto v = need_value(i);
      if (!v) return std::nullopt;
      std::string rest = *v;
      while (!rest.empty()) {
        const std::size_t comma = rest.find(',');
        std::string ep = rest.substr(0, comma);
        rest = comma == std::string::npos ? std::string()
                                          : rest.substr(comma + 1);
        if (ep.empty()) continue;
        // Bare host:port is sugar for tcp:host:port.
        if (ep.rfind("unix:", 0) != 0 && ep.rfind("tcp:", 0) != 0) {
          ep = "tcp:" + ep;
        }
        opt.workers.push_back(ep);
      }
      if (opt.workers.empty()) {
        std::cerr << "--workers requires at least one endpoint\n";
        return std::nullopt;
      }
    } else if (arg == "--pairs") {
      if (!number(i, opt.config.pairs_per_iteration)) return std::nullopt;
    } else if (arg == "--initial") {
      if (!number(i, opt.config.initial_scenarios)) return std::nullopt;
    } else if (arg == "--max-iters") {
      if (!number(i, opt.config.max_iterations)) return std::nullopt;
    } else if (arg == "--seed") {
      if (!number(i, opt.config.seed)) return std::nullopt;
    } else if (arg == "--resume") {
      if (auto v = need_value(i)) opt.resume_path = *v; else return std::nullopt;
    } else if (arg == "--save") {
      if (auto v = need_value(i)) opt.save_path = *v; else return std::nullopt;
    } else if (arg == "--trace") {
      if (auto v = need_value(i)) opt.trace_path = *v; else return std::nullopt;
    } else if (arg == "--metrics") {
      opt.print_metrics = true;
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
    std::cerr << "missing sketch file\n";
    return std::nullopt;
  }
  // The distribution seam is grid-only.
  if (!opt.workers.empty() && opt.backend == "z3") opt.backend = "grid";
  return opt;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> opt = parse_args(argc, argv);
  if (!opt) {
    usage(std::cerr);
    return 1;
  }

  try {
    const std::string sketch_text = read_file(opt->sketch_path);
    const sketch::Sketch sk = sketch::parse_sketch(sketch_text);
    if (!opt->quiet) {
      std::cout << "loaded sketch '" << sk.name() << "' ("
                << sk.candidate_space_size() << " candidates)\n";
    }

    std::unique_ptr<oracle::Oracle> user;
    if (opt->target_expr) {
      user = std::make_unique<oracle::GroundTruthOracle>(
          sk, sketch::parse_expr(*opt->target_expr, sk),
          opt->config.finder.tie_tolerance);
    } else {
      user = std::make_unique<oracle::InteractiveOracle>(sk, std::cin, std::cout);
    }

    // Optional observability: a metrics registry when requested and a file
    // trace sink when a path is given. Both hang off the config's RunContext
    // and cost nothing when absent.
    obs::MetricsRegistry metrics;
    std::unique_ptr<obs::FileTraceSink> trace_sink;
    synth::SynthesisConfig config = opt->config;
    if (opt->print_metrics) config.obs.metrics = &metrics;
    if (opt->trace_path) {
      trace_sink = std::make_unique<obs::FileTraceSink>(*opt->trace_path);
      config.obs.tracer = trace_sink.get();
      config.obs.run_id = sk.name();
    }
    config.obs.seed = config.seed;

    // Distributed version-space sync: the coordinator must outlive the
    // synthesizer (SynthesisConfig holds a non-owning pointer to it).
    std::unique_ptr<dist::ShardCoordinator> coordinator;
    if (!opt->workers.empty()) {
      dist::CoordinatorConfig cc;
      cc.workers = opt->workers;
      cc.sketch_text = sketch_text;
      cc.tie_tolerance = config.finder.tie_tolerance;
      cc.obs = config.obs;
      coordinator = std::make_unique<dist::ShardCoordinator>(std::move(cc));
      config.grid_shard_backend = coordinator.get();
      if (!opt->quiet) {
        std::cout << "distributing grid sync across " << opt->workers.size()
                  << " worker(s)\n";
      }
    }

    synth::Synthesizer synthesizer =
        opt->backend == "portfolio" ? synth::make_portfolio_synthesizer(sk, config)
        : opt->backend == "grid"    ? synth::make_grid_synthesizer(sk, config)
                                    : synth::make_z3_synthesizer(sk, config);

    pref::PreferenceGraph initial(opt->config.tolerate_inconsistency);
    if (opt->resume_path) {
      std::ifstream in(*opt->resume_path);
      if (!in) throw std::runtime_error("cannot open '" + *opt->resume_path + "'");
      initial = pref::deserialize(in, opt->config.tolerate_inconsistency);
      if (!opt->quiet) {
        std::cout << "resumed session: " << initial.vertex_count()
                  << " scenarios, " << initial.edges().size() << " preferences\n";
      }
    }

    const synth::SynthesisResult result = synthesizer.run(*user, std::move(initial));

    if (!opt->quiet) {
      for (const synth::IterationRecord& it : result.transcript) {
        std::cout << "iteration " << it.index << ": " << it.solver_seconds
                  << " s, " << it.pairs_presented << " pair(s)\n";
      }
    }
    std::cout << "iterations: " << result.iterations
              << "  user answers: " << result.oracle_comparisons
              << "  solver time: " << result.total_solver_seconds << " s\n";

    if (opt->save_path) {
      std::ofstream out(*opt->save_path);
      if (!out) throw std::runtime_error("cannot write '" + *opt->save_path + "'");
      pref::serialize(result.graph, out);
      std::cout << "session saved to " << *opt->save_path << "\n";
    }

    if (opt->trace_path && !opt->quiet) {
      std::cout << "trace written to " << *opt->trace_path
                << " (render with: trace_report " << *opt->trace_path << ")\n";
    }
    if (opt->print_metrics) std::cout << "\n" << metrics.render_markdown();

    switch (result.status) {
      case synth::SynthesisStatus::kConverged:
        std::cout << "converged:\n  "
                  << sketch::print_instantiated(sk, *result.objective) << "\n";
        return 0;
      case synth::SynthesisStatus::kIterationLimit:
        std::cout << "iteration budget exhausted; best consistent candidate:\n";
        if (result.objective) {
          std::cout << "  " << sketch::print_instantiated(sk, *result.objective)
                    << "\n";
        }
        return 3;
      case synth::SynthesisStatus::kNoCandidate:
        std::cout << "the answers contradict every instance of this sketch\n";
        return 2;
      case synth::SynthesisStatus::kSolverGaveUp:
        std::cout << "solver gave up\n";
        return 4;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 1;
}
