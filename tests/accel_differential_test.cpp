// Differential tests for the solver acceleration layer (docs/SOLVER.md).
//
// The Z3 back-end's persistent push/pop encoding must be *transparent*: the
// same seed produces the identical oracle query sequence and the identical
// learned objective as a reference that encodes every query from scratch,
// across the SWAN, ABR-QoE and homenet sketches. The portfolio asks the
// plain grid back-end's questions until its proof finds a pair the grid
// missed, asks the identical sequence on every run, and converges to an
// objective ranking-equivalent to the target.
//
// Also covers resuming from a snapshot whose @cache section still holds the
// entries of the solver cache that older versions kept.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "oracle/ground_truth.h"
#include "pref/serialize.h"
#include "session/snapshot.h"
#include "sketch/library.h"
#include "solver/equivalence.h"
#include "solver/z3_finder.h"
#include "synth/synthesizer.h"

namespace compsynth {
namespace {

// ---------------------------------------------------------------------------
// Query-sequence logging oracle (mirrors tests/session_test.cpp): one
// canonical line per do_compare / do_rank call, with persistence hooks so
// resumed runs replay the identical answer stream.

std::string scenario_key(const pref::Scenario& s) {
  std::string out;
  char buf[40];
  for (double m : s.metrics) {
    std::snprintf(buf, sizeof(buf), " %.17g", m);
    out += buf;
  }
  return out;
}

class LoggingOracle final : public oracle::Oracle {
 public:
  LoggingOracle(const sketch::Sketch& sk, const sketch::HoleAssignment& target,
                double tie_tolerance)
      : inner_(sk, target, tie_tolerance) {}

  std::vector<std::string> log;

 protected:
  oracle::Preference do_compare(const pref::Scenario& a,
                                const pref::Scenario& b) override {
    log.push_back("cmp" + scenario_key(a) + " |" + scenario_key(b));
    return inner_.compare(a, b);
  }
  oracle::RankingResponse do_rank(
      std::span<const pref::Scenario> scenarios) override {
    std::string entry = "rank";
    for (const auto& s : scenarios) entry += scenario_key(s);
    log.push_back(entry);
    return inner_.rank(scenarios);
  }
  void do_save_state(std::ostream& out) const override {
    inner_.save_state(out);
  }
  void do_restore_state(std::istream& in) override { inner_.restore_state(in); }

 private:
  oracle::GroundTruthOracle inner_;
};

// ---------------------------------------------------------------------------
// Differential harness.

struct Workload {
  const sketch::Sketch& sketch;
  sketch::HoleAssignment target;
  std::uint64_t seed = 1;
};

Workload swan_workload() {
  return {sketch::swan_sketch(), sketch::swan_target(), 11};
}

Workload abr_workload() {
  const auto& sk = sketch::abr_qoe_sketch();
  sketch::HoleAssignment target;
  target.index = {sk.holes()[0].nearest_index(2),
                  sk.holes()[1].nearest_index(2),
                  sk.holes()[2].nearest_index(0.5),
                  sk.holes()[3].nearest_index(1)};
  return {sk, target, 606};
}

Workload homenet_workload() {
  const auto& sk = sketch::homenet_sketch();
  sketch::HoleAssignment target;
  target.index = {sk.holes()[0].nearest_index(20),
                  sk.holes()[1].nearest_index(1),
                  sk.holes()[2].nearest_index(1)};
  return {sk, target, 77};
}

// The reference Z3 back-end: a fresh Z3Finder for every call, so each query
// is encoded from scratch in one pass and no push/pop history exists.
class FreshZ3Finder final : public solver::CandidateFinder {
 public:
  FreshZ3Finder(const sketch::Sketch& sketch, solver::FinderConfig config)
      : sketch_(sketch), config_(config) {}

  solver::FinderResult find_distinguishing(const pref::PreferenceGraph& graph,
                                           int num_pairs) override {
    return solver::Z3Finder(sketch_, config_)
        .find_distinguishing(graph, num_pairs);
  }
  std::optional<sketch::HoleAssignment> find_consistent(
      const pref::PreferenceGraph& graph) override {
    return solver::Z3Finder(sketch_, config_).find_consistent(graph);
  }

 private:
  sketch::Sketch sketch_;
  solver::FinderConfig config_;
};

enum class Backend { kZ3, kFreshZ3, kGrid, kPortfolio };

struct RunOut {
  synth::SynthesisResult result;
  std::vector<std::string> log;
};

synth::SynthesisConfig base_config(const Workload& w, int max_iterations) {
  synth::SynthesisConfig config;
  config.seed = w.seed;
  config.max_iterations = max_iterations;
  return config;
}

RunOut run_once(const Workload& w, Backend backend,
                synth::SynthesisConfig config) {
  LoggingOracle user(w.sketch, w.target, config.finder.tie_tolerance);
  synth::Synthesizer s =
      backend == Backend::kZ3 ? synth::make_z3_synthesizer(w.sketch, config)
      : backend == Backend::kFreshZ3
          ? synth::Synthesizer(
                w.sketch,
                std::make_unique<FreshZ3Finder>(w.sketch, config.finder),
                config)
      : backend == Backend::kGrid
          ? synth::make_grid_synthesizer(w.sketch, config)
          : synth::make_portfolio_synthesizer(w.sketch, config);
  RunOut out;
  out.result = s.run(user);
  out.log = std::move(user.log);
  return out;
}

void expect_same_run(const RunOut& expected, const RunOut& got,
                     const std::string& what) {
  EXPECT_EQ(got.result.status, expected.result.status) << what;
  ASSERT_TRUE(expected.result.objective.has_value()) << what;
  ASSERT_TRUE(got.result.objective.has_value()) << what;
  EXPECT_EQ(got.result.objective->index, expected.result.objective->index)
      << what;
  EXPECT_EQ(got.result.iterations, expected.result.iterations) << what;
  EXPECT_EQ(got.log, expected.log) << what;
}

// The push/pop encoding must reproduce the fresh-per-call reference's
// oracle query sequence and objective exactly. Runs are truncated —
// sequence identity over a fixed iteration budget is the property,
// convergence is covered elsewhere (bench_solver, smoke tests).
void check_z3_accelerations(const Workload& w, int max_iterations) {
  const synth::SynthesisConfig config = base_config(w, max_iterations);
  const RunOut reference = run_once(w, Backend::kFreshZ3, config);
  ASSERT_FALSE(reference.log.empty());
  expect_same_run(reference, run_once(w, Backend::kZ3, config), "push/pop");
}

TEST(AccelDifferential, SwanZ3AccelerationsPreserveSequence) {
  check_z3_accelerations(swan_workload(), 4);
}

TEST(AccelDifferential, AbrQoeZ3AccelerationsPreserveSequence) {
  check_z3_accelerations(abr_workload(), 3);
}

TEST(AccelDifferential, HomenetZ3AccelerationsPreserveSequence) {
  check_z3_accelerations(homenet_workload(), 4);
}

// The portfolio keeps the grid's answer whenever the grid finds a pair or
// is left with one survivor, and the factories derive the grid's
// pair-search seed exactly as for the plain grid back-end. So the two runs
// ask the same questions until the portfolio's proof finds a pair the
// grid's sampling missed: the grid run's whole sequence is a prefix of the
// portfolio's. The portfolio then converges to an objective
// ranking-equivalent to the target. Returns both runs.
std::pair<RunOut, RunOut> check_portfolio_follows_grid(const Workload& w) {
  const synth::SynthesisConfig config = base_config(w, 300);
  RunOut grid = run_once(w, Backend::kGrid, config);
  RunOut portfolio = run_once(w, Backend::kPortfolio, config);
  EXPECT_EQ(grid.result.status, synth::SynthesisStatus::kConverged);
  EXPECT_EQ(portfolio.result.status, synth::SynthesisStatus::kConverged);
  EXPECT_GE(portfolio.result.iterations, grid.result.iterations);
  if (portfolio.log.size() < grid.log.size()) {
    ADD_FAILURE() << "the portfolio asked fewer questions than the grid";
  } else {
    const std::vector<std::string> prefix(
        portfolio.log.begin(),
        portfolio.log.begin() + static_cast<std::ptrdiff_t>(grid.log.size()));
    EXPECT_EQ(prefix, grid.log);
  }
  if (portfolio.result.objective.has_value()) {
    EXPECT_TRUE(solver::ranking_equivalent(
        w.sketch, *portfolio.result.objective, w.target, config.finder));
  }
  return {std::move(grid), std::move(portfolio)};
}

TEST(AccelDifferential, SwanPortfolioAsksGridQuestionsUntilUniqueRanking) {
  check_portfolio_follows_grid(swan_workload());
}

TEST(AccelDifferential, AbrQoePortfolioAsksGridQuestionsUntilUniqueRanking) {
  check_portfolio_follows_grid(abr_workload());
}

TEST(AccelDifferential, HomenetPortfolioAsksGridQuestionsUntilUniqueRanking) {
  check_portfolio_follows_grid(homenet_workload());
}

// Coarse-SWAN targets on which the grid alone converges to an objective
// that is not ranking-equivalent to the target: its sampled verdict missed
// a disagreement among the survivors. The portfolio's proof finds one and
// keeps asking.
void check_proof_mends_grid_verdict(const Workload& w) {
  const auto [grid, portfolio] = check_portfolio_follows_grid(w);
  ASSERT_TRUE(grid.result.objective.has_value());
  EXPECT_FALSE(solver::ranking_equivalent(w.sketch, *grid.result.objective,
                                          w.target, base_config(w, 1).finder))
      << "the grid alone now learns this target; pin another one";
  EXPECT_GT(portfolio.log.size(), grid.log.size());
}

TEST(AccelDifferential, SwanPortfolioProofFindsPairGridMissedTarget0097) {
  check_proof_mends_grid_verdict(
      {sketch::swan_sketch(), sketch::HoleAssignment{{0, 0, 9, 7}},
       322330452184ULL});
}

TEST(AccelDifferential, SwanPortfolioProofFindsPairGridMissedTarget0517) {
  check_proof_mends_grid_verdict(
      {sketch::swan_sketch(), sketch::HoleAssignment{{0, 5, 1, 7}},
       422261347474ULL});
}

// The grid and the proof run one after the other on the caller's thread,
// so two runs ask byte-identical question sequences; the proved verdict
// makes the learned objective ranking-equivalent to the target, checked
// with Z3.
TEST(AccelDifferential, PortfolioIsDeterministicAndConvergesToEquivalentObjective) {
  const Workload w = swan_workload();
  synth::SynthesisConfig config = base_config(w, 300);
  const RunOut first = run_once(w, Backend::kPortfolio, config);
  ASSERT_EQ(first.result.status, synth::SynthesisStatus::kConverged);
  ASSERT_TRUE(first.result.objective.has_value());
  EXPECT_TRUE(solver::ranking_equivalent(w.sketch, *first.result.objective,
                                         w.target, config.finder));
  expect_same_run(first, run_once(w, Backend::kPortfolio, config),
                  "portfolio rerun");
}

// A v2 snapshot of a Z3 homenet run (seed 77, checkpointed at iteration 2),
// written by a version that still kept a solver cache: its @cache section
// holds real cache entries. The reader discards them, and resuming must
// continue exactly as the uninterrupted run does — same objective, same
// iteration count, same oracle query sequence.
TEST(AccelDifferential, LegacyCacheSnapshotResumesIdentically) {
  const Workload w = homenet_workload();
  const int max_iterations = 5;

  std::ifstream in(std::string(COMPSYNTH_TEST_DATA_DIR) +
                       "/homenet_z3_cache_v2.csnap",
                   std::ios::binary);
  ASSERT_TRUE(in) << "missing fixture tests/data/homenet_z3_cache_v2.csnap";
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  ASSERT_NE(bytes.find("\n@cache "), std::string::npos);
  ASSERT_EQ(bytes.find("\n@cache 0\n"), std::string::npos)
      << "the fixture must carry a non-empty @cache section";
  const session::Snapshot snap = session::decode(bytes);
  ASSERT_EQ(snap.meta.seed, w.seed);
  ASSERT_GT(snap.state.iterations, 0);

  // The uninterrupted reference run, noting how many oracle queries it had
  // asked when it passed the snapshot's iteration.
  synth::SynthesisConfig ref_config = base_config(w, max_iterations);
  LoggingOracle ref_user(w.sketch, w.target, ref_config.finder.tie_tolerance);
  std::optional<std::size_t> log_len;
  ref_config.checkpoint = [&](const synth::SessionState& st) {
    if (st.iterations != snap.state.iterations) return;
    log_len = ref_user.log.size();
    EXPECT_EQ(pref::serialize(st.graph), pref::serialize(snap.state.graph))
        << "the fixture is not a checkpoint of this run";
  };
  synth::Synthesizer ref_synth =
      synth::make_z3_synthesizer(w.sketch, ref_config);
  const synth::SynthesisResult ref = ref_synth.run(ref_user);
  ASSERT_TRUE(ref.objective.has_value());
  ASSERT_TRUE(log_len.has_value());

  synth::SynthesisConfig config = base_config(w, max_iterations);
  LoggingOracle user(w.sketch, w.target, config.finder.tie_tolerance);
  synth::Synthesizer s = synth::make_z3_synthesizer(w.sketch, config);
  const synth::SynthesisResult r = s.resume(user, snap.state);
  ASSERT_TRUE(r.objective.has_value());
  EXPECT_EQ(r.objective->index, ref.objective->index);
  EXPECT_EQ(r.iterations, ref.iterations);
  const std::vector<std::string> expected(
      ref_user.log.begin() + static_cast<std::ptrdiff_t>(*log_len),
      ref_user.log.end());
  EXPECT_EQ(user.log, expected) << "resumed query sequence diverged";

  // Re-encoding writes the section back empty.
  EXPECT_NE(session::encode(snap).find("\n@cache 0\n\n"), std::string::npos);
}

}  // namespace
}  // namespace compsynth
