// The comparative synthesizer: the paper's §3/§4 interaction loop.
//
//   1. Sample `initial_scenarios` random in-range scenarios and ask the user
//      to rank them; seed the preference graph G with the answers.
//   2. Repeat: ask the candidate finder for two G-consistent candidates that
//      disagree on `pairs_per_iteration` fresh scenario pairs; present each
//      pair to the user; record the answers in G.
//   3. Stop when the finder reports that all consistent candidates rank
//      identically (the paper's UNSAT case) and return one of them.
//
// Timing follows §4.3: per-iteration synthesis time measures solver work
// only ("we omit the time spent by the oracle").
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/run_context.h"
#include "oracle/oracle.h"
#include "pref/graph.h"
#include "sketch/ast.h"
#include "solver/finder.h"
#include "solver/grid_finder.h"
#include "solver/portfolio_finder.h"
#include "util/rng.h"

namespace compsynth::synth {

struct SessionState;

struct SynthesisConfig {
  /// Random scenarios ranked once up front (5 in the paper; Fig. 5 sweeps
  /// 0..10).
  int initial_scenarios = 5;

  /// Distinguishing pairs the user ranks per iteration (1 in the paper;
  /// Fig. 4 sweeps 1..5).
  int pairs_per_iteration = 1;

  /// Safety valve on the interaction loop.
  int max_iterations = 500;

  /// Seed for the initial scenario sampler.
  std::uint64_t seed = 1;

  /// Margins; tie_tolerance must match the oracle's.
  solver::FinderConfig finder;

  /// Where scenarios may live: the sketch's metric box, optionally narrowed
  /// by a boolean constraint over the metrics (solver::ScenarioDomain) —
  /// e.g. an achievable throughput/latency frontier. Applies to both the
  /// initial random scenarios and the solver-proposed distinguishing ones.
  solver::ScenarioDomain scenario_domain;

  /// Parallelism for the grid back-end factories (ignored by the Z3
  /// back-end): follows GridFinderConfig::threads (0 = shared pool,
  /// 1 = sequential). The survivor sequence is identical at every setting
  /// (docs/EVALUATOR.md).
  int grid_threads = 0;

  /// Distribution seam for the grid back-end (non-owning; must outlive the
  /// synthesizer): forwarded to GridFinderConfig::shard_backend so full
  /// rebuilds can be farmed out to compsynth_worker processes via a
  /// dist::ShardCoordinator. Backend failure falls back to the local scan —
  /// results are byte-identical either way (docs/DISTRIBUTED.md).
  solver::ShardSyncBackend* grid_shard_backend = nullptr;

  /// Noise handling (§6.1): record contradictory answers instead of
  /// rejecting them, and greedily repair cycles / drop least-trusted answers
  /// when G becomes unsatisfiable.
  bool tolerate_inconsistency = false;

  /// Per-iteration records kept in the result (costs a little memory).
  bool keep_transcript = true;

  /// Observability wiring (docs/OBSERVABILITY.md). The synthesizer threads
  /// the context (non-owning metrics/tracer pointers, run id, seed) through
  /// the finder, the oracle and the preference graph for the duration of
  /// run(), emitting run_start / iteration / run_end events and synth.*
  /// metrics. Default-constructed = fully off (no clock reads, no locks).
  obs::RunContext obs;

  /// Durable sessions (docs/PERSISTENCE.md): when set, invoked with the
  /// complete SessionState right after each finder query that finds pairs,
  /// before the first of them is asked, and once more when the loop ends.
  /// Such a state carries the found pairs in SessionState::pending, so a
  /// resumed run asks them without repeating the query. The hook
  /// typically hands the state to a session::CheckpointManager, which
  /// writes an atomic snapshot file; Synthesizer::resume continues the
  /// identical run from any such state. Null (the default) disables
  /// checkpointing entirely, and the loop then copies no pairs.
  std::function<void(const SessionState&)> checkpoint;
};

enum class SynthesisStatus {
  kConverged,        // unique ranking reached; objective holds the solution
  kIterationLimit,   // max_iterations hit; objective is a best-effort pick
  kNoCandidate,      // no sketch instance is consistent with the user
  kSolverGaveUp,     // the finder returned unknown
};

/// "converged", "iteration_limit", "no_candidate", "solver_gave_up": the
/// spelling in run_end events and a served session's done.json.
const char* status_name(SynthesisStatus status);

/// One interaction-loop step, for transcripts and the per-iteration timing
/// columns of Table 1 / Figs. 3-5.
struct IterationRecord {
  int index = 0;              // 1-based
  double solver_seconds = 0;  // finder time for this step
  int pairs_presented = 0;    // scenario pairs the user ranked
  int edges_added = 0;
  int ties_added = 0;
};

/// Distinguishing pairs a finder query found that the user has not been
/// asked yet, with that query's finder time.
struct PendingPairs {
  std::vector<solver::DistinguishingPair> pairs;  ///< empty = none pending
  double solver_seconds = 0;
};

/// Complete mid-run synthesis state. Everything a later process needs to
/// continue the identical run: the preference graph, the loop counters and
/// transcript, and the opaque state blobs of the finder (RNG stream,
/// version space / query counters) and the oracle (interaction counters,
/// per-variant RNG streams). Produced by the SynthesisConfig::checkpoint
/// hook and consumed by Synthesizer::resume; session/snapshot.h serializes
/// it to disk.
///
/// A mid-run state is captured after iteration `iterations + 1`'s finder
/// query found pairs and before the first is asked: the counters, transcript
/// and graph are those of the last completed iteration, `pending` holds the
/// found pairs, and the finder and oracle blobs are captured after the
/// query. The end-of-run state has an empty `pending`; so do states written
/// before pending pairs were persisted, which resume by querying the finder.
struct SessionState {
  int iterations = 0;
  int interactions = 0;
  int repair_rounds = 0;
  double total_solver_seconds = 0;
  /// Oracle comparisons attributable to this logical session (the oracle's
  /// absolute counter may predate the session).
  long oracle_comparisons = 0;
  std::vector<IterationRecord> transcript;
  pref::PreferenceGraph graph{true};
  std::string finder_state;  ///< CandidateFinder::save_state blob
  std::string oracle_state;  ///< oracle::Oracle::save_state blob
  PendingPairs pending;
};

struct SynthesisResult {
  SynthesisStatus status = SynthesisStatus::kSolverGaveUp;
  std::optional<sketch::HoleAssignment> objective;

  /// Number of interaction-loop iterations executed, *including* the final
  /// converging query (the query that proves uniqueness still runs the
  /// solver even though the user is not consulted) — matching the paper's
  /// "# Iterations" accounting.
  int iterations = 0;

  /// Iterations in which the user was actually shown scenarios.
  int interactions = 0;

  double total_solver_seconds = 0;
  double average_iteration_seconds = 0;

  long oracle_comparisons = 0;   // individual pairwise answers
  std::vector<IterationRecord> transcript;
  pref::PreferenceGraph graph{true};  // final preference graph (by value)
};

class Synthesizer {
 public:
  /// Takes ownership of the finder (the solver back-end strategy).
  Synthesizer(sketch::Sketch sketch, std::unique_ptr<solver::CandidateFinder> finder,
              SynthesisConfig config = {});

  /// Runs the full interaction loop against `user`.
  SynthesisResult run(oracle::Oracle& user);

  /// Resumes from a previously recorded preference graph (see
  /// pref/serialize.h): the initial random-scenario phase is skipped when
  /// `initial` already has vertices, and the loop continues from there.
  SynthesisResult run(oracle::Oracle& user, pref::PreferenceGraph initial);

  /// Resumes from a checkpointed SessionState: restores the finder's and the
  /// oracle's internal state from the opaque blobs, then continues the loop
  /// at the recorded iteration, asking the state's pending pairs before any
  /// new finder query. A resumed run is provably identical to one that was
  /// never interrupted — same objective, same oracle query sequence
  /// (tests/session_test.cpp kills and resumes at every checkpoint).
  /// Requires a synthesizer and oracle constructed with the same
  /// configuration/topology that produced the state; throws
  /// std::invalid_argument when the blobs do not match, or when the pending
  /// pairs do not fit the sketch's metrics or `pairs_per_iteration`.
  SynthesisResult resume(oracle::Oracle& user, SessionState state);

  /// Distinguishing queries the finder ran during the latest run()/resume(),
  /// counting a run that unwound through an exception from the oracle.
  int finder_queries() const { return finder_queries_; }

  const SynthesisConfig& config() const { return config_; }

  /// The owned back-end (for wiring fault injectors or query logs from a
  /// harness before run/resume). Never null.
  solver::CandidateFinder& finder() { return *finder_; }

 private:
  SynthesisResult run_impl(oracle::Oracle& user, SessionState st, bool resumed);
  void seed_graph(pref::PreferenceGraph& graph, oracle::Oracle& user,
                  util::Rng& rng) const;
  void record_answer(pref::PreferenceGraph& graph, pref::VertexId v1,
                     pref::VertexId v2, oracle::Preference answer,
                     IterationRecord& record) const;

  sketch::Sketch sketch_;
  std::unique_ptr<solver::CandidateFinder> finder_;
  SynthesisConfig config_;
  int finder_queries_ = 0;
};

/// Convenience factories wiring the standard back-ends.
Synthesizer make_z3_synthesizer(const sketch::Sketch& sketch,
                                SynthesisConfig config = {},
                                solver::Viability viability = {});
Synthesizer make_grid_synthesizer(const sketch::Sketch& sketch,
                                  SynthesisConfig config = {},
                                  solver::Viability viability = {});

/// Grid back-end with the active-learning bisection query strategy: each
/// question is chosen to split the surviving candidate set most evenly,
/// reducing the number of user interactions (see bench_ablation_query).
Synthesizer make_bisection_synthesizer(const sketch::Sketch& sketch,
                                       SynthesisConfig config = {},
                                       solver::Viability viability = {});

/// Portfolio back-end (solver/portfolio_finder.h): the grid back-end's
/// GridFinder answers each query first, and where it can only sample a
/// "unique ranking" verdict, Z3 checks its concrete survivors pairwise for
/// a ranking disagreement. Deterministic, and it honours grid_threads and
/// grid_shard_backend like the grid factories.
Synthesizer make_portfolio_synthesizer(const sketch::Sketch& sketch,
                                       SynthesisConfig config = {},
                                       solver::Viability viability = {});

}  // namespace compsynth::synth
