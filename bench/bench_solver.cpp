// Benchmark of the solver back-ends (docs/SOLVER.md) on the SWAN Table-1
// workload: each variant is a complete comparative-synthesis run (Fig. 2a
// sketch, Fig. 2b target, ground-truth oracle) on one back-end.
//
//   z3         the paper's SMT query (Z3Finder, push/pop encoding)
//   portfolio  GridFinder first, then a Z3 proof of its "unique ranking"
//              verdicts on its concrete survivors
//   grid       version-space back-end, as a reference point
//
// The portfolio runs twice and must ask the identical query sequence both
// times; a full run checks that every variant's objective is
// ranking-equivalent to the target. That the push/pop encoding answers
// exactly as a fresh encoding is tests/accel_differential_test.cpp's job.
// Each row is one run: compare rows only against their own spread across
// repeated runs on one host.
//
// The JSON records the host (compiler, build type, lane ISA, threads) next
// to the rows, so numbers from different hosts are never compared blind.
//
// Usage:
//   bench_solver [--out PATH]  full runs; writes BENCH_solver.json
//   bench_solver --smoke       truncated runs for CTest — exercises every
//                              variant and fails when the two portfolio runs
//                              diverge, but does not write JSON.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "oracle/ground_truth.h"
#include "oracle/oracle.h"
#include "pref/scenario.h"
#include "sketch/compile.h"
#include "sketch/library.h"
#include "solver/equivalence.h"
#include "synth/synthesizer.h"
#include "util/thread_pool.h"

namespace compsynth::bench {
namespace {

std::string scenario_key(const pref::Scenario& s) {
  std::string out;
  char buf[40];
  for (double m : s.metrics) {
    std::snprintf(buf, sizeof buf, "%.17g,", m);
    out += buf;
  }
  return out;
}

// Ground-truth SWAN oracle that logs one canonical line per query (scenarios
// and the answer given), so two synthesis runs can be compared interaction
// for interaction. Only this outer oracle's counters feed the synthesizer;
// the contained oracle is just the answer source.
class RecordingOracle final : public oracle::Oracle {
 public:
  RecordingOracle()
      : inner_(sketch::swan_sketch(), sketch::swan_target()) {}

  const std::vector<std::string>& queries() const { return queries_; }

 protected:
  oracle::Preference do_compare(const pref::Scenario& a,
                                const pref::Scenario& b) override {
    const oracle::Preference p = inner_.compare(a, b);
    const char verdict = p == oracle::Preference::kFirst    ? 'a'
                         : p == oracle::Preference::kSecond ? 'b'
                                                            : 't';
    queries_.push_back("cmp " + scenario_key(a) + " " + scenario_key(b) +
                       " -> " + verdict);
    return p;
  }

  oracle::RankingResponse do_rank(
      std::span<const pref::Scenario> scenarios) override {
    const oracle::RankingResponse r = inner_.rank(scenarios);
    std::string line = "rank";
    for (const pref::Scenario& s : scenarios) line += ' ' + scenario_key(s);
    line += " ->";
    for (const auto& p : r.preferences) {
      line += ' ' + std::to_string(p.better) + '>' + std::to_string(p.worse);
    }
    for (const auto& t : r.ties) {
      line += ' ' + std::to_string(t.a) + '=' + std::to_string(t.b);
    }
    queries_.push_back(std::move(line));
    return r;
  }

 private:
  oracle::GroundTruthOracle inner_;
  std::vector<std::string> queries_;
};

enum class Backend { kZ3, kPortfolio, kGrid };

struct VariantRun {
  synth::SynthesisResult result;
  std::vector<std::string> queries;
};

VariantRun run_variant(const std::string& name, Backend backend,
                       int max_iterations) {
  const sketch::Sketch& sk = sketch::swan_sketch();
  RecordingOracle user;
  synth::SynthesisConfig config;
  config.seed = 7;
  config.max_iterations = max_iterations;

  synth::Synthesizer synthesizer =
      backend == Backend::kZ3 ? synth::make_z3_synthesizer(sk, config)
      : backend == Backend::kPortfolio
          ? synth::make_portfolio_synthesizer(sk, config)
          : synth::make_grid_synthesizer(sk, config);

  VariantRun run;
  run.result = synthesizer.run(user);
  run.queries = user.queries();
  std::cout << name << ": " << run.result.iterations << " iterations, "
            << run.result.total_solver_seconds << " s solver ("
            << run.result.average_iteration_seconds << " s/iter)\n"
            << std::flush;
  return run;
}

bool finished(const VariantRun& run, bool smoke) {
  if (run.result.status == synth::SynthesisStatus::kConverged) return true;
  // Truncated smoke runs legitimately stop at the iteration cap.
  return smoke && run.result.status == synth::SynthesisStatus::kIterationLimit;
}

int run(bool smoke, const std::string& out_path) {
  const int max_iterations = smoke ? 4 : 500;
  const std::int64_t candidates = sketch::swan_sketch().candidate_space_size();
  std::cout << "workload: SWAN Table-1 synthesis (" << candidates
            << " candidates), seed 7, max " << max_iterations
            << " iterations\n";

  const VariantRun z3 = run_variant("z3", Backend::kZ3, max_iterations);
  const VariantRun portfolio =
      run_variant("portfolio", Backend::kPortfolio, max_iterations);
  const VariantRun portfolio_rerun =
      run_variant("portfolio (rerun)", Backend::kPortfolio, max_iterations);
  const VariantRun grid = run_variant("grid", Backend::kGrid, max_iterations);

  bool ok = true;
  const auto check = [&](bool cond, const std::string& what) {
    if (!cond) {
      std::cerr << "FAIL: " << what << "\n";
      ok = false;
    }
  };

  for (const auto& [name, v] :
       std::initializer_list<std::pair<const char*, const VariantRun*>>{
           {"z3", &z3},
           {"portfolio", &portfolio},
           {"grid", &grid}}) {
    check(finished(*v, smoke), std::string(name) + " did not finish");
  }

  const bool portfolio_deterministic =
      portfolio_rerun.queries == portfolio.queries &&
      portfolio_rerun.result.objective == portfolio.result.objective;
  check(portfolio_deterministic,
        "two portfolio runs asked different query sequences");

  // Full runs must additionally be *correct*: ranking-equivalent to the
  // latent target (the portfolio/grid objectives may be syntactically
  // different representatives of the same ranking).
  bool portfolio_equivalent = true;
  if (!smoke) {
    const sketch::HoleAssignment target = sketch::swan_target();
    const auto equivalent = [&](const VariantRun& v) {
      return v.result.objective.has_value() &&
             solver::ranking_equivalent(sketch::swan_sketch(),
                                        *v.result.objective, target);
    };
    check(equivalent(z3), "z3 objective not equivalent to target");
    portfolio_equivalent = equivalent(portfolio);
    check(portfolio_equivalent,
          "portfolio objective not equivalent to target");
    check(equivalent(grid), "grid objective not equivalent to target");
  }

  if (!ok) return 1;
  if (smoke) {
    std::cout << "smoke: all variants agree\n";
    return 0;
  }

  std::ofstream json(out_path);
  if (!json) {
    std::cerr << "FAIL: cannot write " << out_path << "\n";
    return 1;
  }
  const auto row = [&](const char* name, const VariantRun& v,
                       bool last = false) {
    json << "    \"" << name << "\": {\n"
         << "      \"iterations\": " << v.result.iterations << ",\n"
         << "      \"total_solver_seconds\": " << v.result.total_solver_seconds
         << ",\n"
         << "      \"mean_iteration_seconds\": "
         << v.result.average_iteration_seconds << "\n    }"
         << (last ? "\n" : ",\n");
  };
  json << "{\n"
       << "  \"bench\": \"solver\",\n"
       << "  \"workload\": \"swan_table1\",\n"
       << "  \"compiler\": \"" << COMPSYNTH_BENCH_COMPILER << "\",\n"
       << "  \"build_type\": \"" << COMPSYNTH_BENCH_BUILD_TYPE << "\",\n"
       << "  \"lane_isa\": \""
       << sketch::lane_isa_name(sketch::active_lane_isa()) << "\",\n"
       << "  \"candidates\": " << candidates << ",\n"
       << "  \"seed\": 7,\n"
       << "  \"threads_available\": " << util::ThreadPool::shared().size()
       << ",\n"
       << "  \"variants\": {\n";
  row("z3", z3);
  row("portfolio", portfolio);
  row("grid", grid, /*last=*/true);
  json << "  },\n"
       << "  \"portfolio_sequences_identical\": "
       << (portfolio_deterministic ? "true" : "false") << ",\n"
       << "  \"portfolio_objective_equivalent_to_target\": "
       << (portfolio_equivalent ? "true" : "false") << "\n}\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

}  // namespace
}  // namespace compsynth::bench

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_solver.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_solver [--smoke] [--out PATH]\n";
      return 2;
    }
  }
  return compsynth::bench::run(smoke, out_path);
}
