// Synthesizer integration tests. Most use the grid back-end (fast, same
// interaction semantics); the Z3 back-end gets the end-to-end smoke suite
// plus dedicated coverage in smoke_test.cpp and the benches.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "oracle/ground_truth.h"
#include "oracle/variants.h"
#include "sketch/library.h"
#include "sketch/eval.h"
#include "sketch/parser.h"
#include "solver/equivalence.h"
#include "solver/shard_sync.h"
#include "synth/experiment.h"
#include "synth/synthesizer.h"

namespace compsynth::synth {
namespace {

SynthesisConfig grid_config(std::uint64_t seed) {
  SynthesisConfig c;
  c.seed = seed;
  return c;
}

SynthesisResult run_grid(const sketch::HoleAssignment& target,
                         SynthesisConfig config) {
  const auto& sk = sketch::swan_sketch();
  Synthesizer s = make_grid_synthesizer(sk, config);
  oracle::GroundTruthOracle user(sk, target, config.finder.tie_tolerance);
  return s.run(user);
}

TEST(Synthesizer, ValidatesConfiguration) {
  const auto& sk = sketch::swan_sketch();
  EXPECT_THROW(Synthesizer(sk, nullptr), std::invalid_argument);
  SynthesisConfig c;
  c.initial_scenarios = -1;
  EXPECT_THROW(make_grid_synthesizer(sk, c), std::invalid_argument);
  c = SynthesisConfig{};
  c.pairs_per_iteration = 0;
  EXPECT_THROW(make_grid_synthesizer(sk, c), std::invalid_argument);
  c = SynthesisConfig{};
  c.max_iterations = 0;
  EXPECT_THROW(make_grid_synthesizer(sk, c), std::invalid_argument);
}

TEST(Synthesizer, ConvergesOnPaperTarget) {
  const SynthesisResult r = run_grid(sketch::swan_target(), grid_config(1));
  ASSERT_EQ(r.status, SynthesisStatus::kConverged);
  ASSERT_TRUE(r.objective.has_value());
  EXPECT_GT(r.iterations, 0);
  EXPECT_EQ(static_cast<int>(r.transcript.size()), r.iterations);
  EXPECT_GE(r.interactions, 1);
  EXPECT_GT(r.oracle_comparisons, 0);
}

TEST(Synthesizer, LearnedObjectiveIsConsistentWithFinalGraph) {
  const SynthesisResult r = run_grid(sketch::swan_target(), grid_config(2));
  ASSERT_TRUE(r.objective.has_value());
  const auto& sk = sketch::swan_sketch();
  for (const auto& e : r.graph.edges()) {
    EXPECT_GT(sketch::eval(sk, *r.objective, r.graph.scenario(e.better).metrics),
              sketch::eval(sk, *r.objective, r.graph.scenario(e.worse).metrics));
  }
}

TEST(Synthesizer, ZeroInitialScenariosStillConverges) {
  SynthesisConfig c = grid_config(3);
  c.initial_scenarios = 0;
  const SynthesisResult r = run_grid(sketch::swan_target(), c);
  EXPECT_EQ(r.status, SynthesisStatus::kConverged);
}

TEST(Synthesizer, MultiplePairsPerIterationReducesIterations) {
  SynthesisConfig c1 = grid_config(4);
  SynthesisConfig c3 = grid_config(4);
  c3.pairs_per_iteration = 3;
  double iters1 = 0, iters3 = 0;
  for (std::uint64_t s = 0; s < 5; ++s) {
    c1.seed = 100 + s;
    c3.seed = 100 + s;
    iters1 += run_grid(sketch::swan_target(), c1).iterations;
    iters3 += run_grid(sketch::swan_target(), c3).iterations;
  }
  // Asking 3 preferences per round gathers ~3x information per iteration.
  EXPECT_LT(iters3, iters1);
}

TEST(Synthesizer, IterationLimitReturnsBestEffort) {
  SynthesisConfig c = grid_config(5);
  c.max_iterations = 2;
  const SynthesisResult r = run_grid(sketch::swan_target(), c);
  EXPECT_EQ(r.status, SynthesisStatus::kIterationLimit);
  EXPECT_EQ(r.iterations, 2);
  // Best-effort objective still consistent with everything recorded so far.
  ASSERT_TRUE(r.objective.has_value());
}

TEST(Synthesizer, InexpressibleUserEndsWithoutConsistentCandidate) {
  // A user who ranks by latency only, ignoring throughput entirely: the
  // sketch space (which always rewards throughput strictly unless ranking
  // collapses) cannot satisfy the accumulating tie/preference constraints,
  // and synthesis must terminate rather than loop forever.
  const auto& sk = sketch::swan_sketch();
  SynthesisConfig c = grid_config(6);
  c.max_iterations = 60;
  Synthesizer s = make_grid_synthesizer(sk, c);
  oracle::GroundTruthOracle user(
      sk, sketch::parse_expr("0 - latency", sk), c.finder.tie_tolerance);
  const SynthesisResult r = s.run(user);
  EXPECT_TRUE(r.status == SynthesisStatus::kNoCandidate ||
              r.status == SynthesisStatus::kConverged ||
              r.status == SynthesisStatus::kIterationLimit);
  // Whatever happened, it terminated within the budget.
  EXPECT_LE(r.iterations, 60);
}

TEST(Synthesizer, NoisyUserWithRepairTerminates) {
  const auto& sk = sketch::swan_sketch();
  SynthesisConfig c = grid_config(7);
  c.tolerate_inconsistency = true;
  c.max_iterations = 80;
  Synthesizer s = make_grid_synthesizer(sk, c);
  auto truth = std::make_unique<oracle::GroundTruthOracle>(
      sk, sketch::swan_target(), c.finder.tie_tolerance);
  oracle::NoisyOracle user(std::move(truth), 0.15, 99);
  const SynthesisResult r = s.run(user);
  EXPECT_LE(r.iterations, 80);
  // With repair enabled the loop must not die with NoCandidate immediately.
  EXPECT_NE(r.status, SynthesisStatus::kSolverGaveUp);
}

TEST(Synthesizer, TranscriptRecordsSolverWork) {
  const SynthesisResult r = run_grid(sketch::swan_target(), grid_config(8));
  double total = 0;
  for (const auto& rec : r.transcript) {
    EXPECT_GE(rec.solver_seconds, 0);
    total += rec.solver_seconds;
  }
  EXPECT_NEAR(total, r.total_solver_seconds, 1e-9);
  EXPECT_NEAR(r.average_iteration_seconds, total / r.iterations, 1e-12);
}

TEST(Synthesizer, TranscriptCanBeDisabled) {
  SynthesisConfig c = grid_config(9);
  c.keep_transcript = false;
  const SynthesisResult r = run_grid(sketch::swan_target(), c);
  EXPECT_TRUE(r.transcript.empty());
  EXPECT_GT(r.iterations, 0);
}

// Counts the full syncs handed to it and declines each one, so GridFinder
// falls back to its local scan and the run is otherwise unchanged.
class CountingShardBackend final : public solver::ShardSyncBackend {
 public:
  int calls = 0;

  std::optional<std::vector<std::string>> sync_shards(
      const pref::PreferenceGraph& /*graph*/,
      const std::vector<solver::ShardRange>& /*ranges*/) override {
    ++calls;
    return std::nullopt;
  }
};

// The portfolio's grid is built like the grid back-end's, so a
// configured shard backend (compsynth_cli --workers) receives its full syncs.
TEST(Synthesizer, PortfolioGridLegDispatchesFullSyncsToShardBackend) {
  const auto& sk = sketch::swan_sketch();
  const auto run_with = [&](bool portfolio) {
    CountingShardBackend backend;
    SynthesisConfig c = grid_config(4);
    c.max_iterations = 3;
    c.grid_shard_backend = &backend;
    Synthesizer s = portfolio ? make_portfolio_synthesizer(sk, c)
                              : make_grid_synthesizer(sk, c);
    oracle::GroundTruthOracle user(sk, sketch::swan_target(),
                                   c.finder.tie_tolerance);
    s.run(user);
    return backend.calls;
  };
  const int grid_calls = run_with(false);
  EXPECT_GT(grid_calls, 0);
  EXPECT_EQ(run_with(true), grid_calls);
}

// --- Correctness across target variants (the Fig. 3 claim, grid back-end) -----

struct Variant {
  double tp, l, s1, s2;
};

class VariantSweep : public ::testing::TestWithParam<Variant> {};

TEST_P(VariantSweep, SynthesizesRankingEquivalentObjective) {
  const Variant v = GetParam();
  const auto target = sketch::swan_target_with(v.tp, v.l, v.s1, v.s2);
  SynthesisConfig c = grid_config(17);
  const SynthesisResult r = run_grid(target, c);
  ASSERT_EQ(r.status, SynthesisStatus::kConverged);
  ASSERT_TRUE(r.objective.has_value());
  // The learned function need not be hole-identical, only
  // ranking-equivalent (checked exactly via Z3).
  EXPECT_TRUE(solver::ranking_equivalent(sketch::swan_sketch(), *r.objective,
                                         target, c.finder))
      << "target (" << v.tp << "," << v.l << "," << v.s1 << "," << v.s2 << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Fig3Variants, VariantSweep,
    ::testing::Values(Variant{1, 50, 1, 5}, Variant{2, 50, 1, 5},
                      Variant{5, 50, 1, 5}, Variant{1, 20, 1, 5},
                      Variant{1, 80, 1, 5}, Variant{1, 50, 3, 5},
                      Variant{1, 50, 5, 5}, Variant{1, 50, 1, 1},
                      Variant{1, 50, 1, 3}));

// --- Experiment harness ---------------------------------------------------------

TEST(Experiment, AggregatesRepetitions) {
  ExperimentSpec spec{.sketch = sketch::swan_sketch(),
                      .target = sketch::swan_target(),
                      .config = grid_config(42),
                      .backend = Backend::kGrid,
                      .repetitions = 5};
  const ExperimentOutcome out = run_experiment(spec);
  ASSERT_EQ(out.runs.size(), 5u);
  EXPECT_EQ(out.converged_runs, 5);
  EXPECT_EQ(out.correct_runs, 5);
  EXPECT_GT(out.iterations.mean, 0);
  EXPECT_GT(out.iterations.median, 0);
  // Seeds differ across reps, so runs are not all identical.
  bool varied = false;
  for (const auto& run : out.runs) {
    varied = varied || run.iterations != out.runs[0].iterations;
  }
  // (Not guaranteed, but overwhelmingly likely; keep as soft signal.)
  (void)varied;
}

TEST(Experiment, NoisyOracleModeRuns) {
  ExperimentSpec spec{.sketch = sketch::swan_sketch(),
                      .target = sketch::swan_target(),
                      .config = grid_config(43),
                      .backend = Backend::kGrid,
                      .repetitions = 2,
                      .verify_equivalence = false,
                      .oracle_flip_probability = 0.1};
  spec.config.tolerate_inconsistency = true;
  spec.config.max_iterations = 60;
  const ExperimentOutcome out = run_experiment(spec);
  EXPECT_EQ(out.runs.size(), 2u);
}

}  // namespace
}  // namespace compsynth::synth
