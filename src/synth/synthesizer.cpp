#include "synth/synthesizer.h"

#include <stdexcept>
#include <utility>

#include "sketch/analyze.h"
#include "solver/grid_finder.h"
#include "solver/z3_finder.h"
#include "util/log.h"
#include "util/timer.h"

namespace compsynth::synth {

namespace {

constexpr int kMaxRepairRounds = 64;

const char* finder_status_name(solver::FinderStatus s) {
  switch (s) {
    case solver::FinderStatus::kFound: return "found";
    case solver::FinderStatus::kUniqueRanking: return "unique_ranking";
    case solver::FinderStatus::kNoCandidate: return "no_candidate";
    case solver::FinderStatus::kUnknown: return "unknown";
  }
  return "?";
}

}  // namespace

const char* status_name(SynthesisStatus status) {
  switch (status) {
    case SynthesisStatus::kConverged: return "converged";
    case SynthesisStatus::kIterationLimit: return "iteration_limit";
    case SynthesisStatus::kNoCandidate: return "no_candidate";
    case SynthesisStatus::kSolverGaveUp: return "solver_gave_up";
  }
  return "?";
}

Synthesizer::Synthesizer(sketch::Sketch sketch,
                         std::unique_ptr<solver::CandidateFinder> finder,
                         SynthesisConfig config)
    : sketch_(std::move(sketch)), finder_(std::move(finder)), config_(config) {
  if (finder_ == nullptr) throw std::invalid_argument("Synthesizer: null finder");
  solver::validate_domain(sketch_, config_.scenario_domain);
  if (config_.initial_scenarios < 0) {
    throw std::invalid_argument("Synthesizer: negative initial_scenarios");
  }
  if (config_.pairs_per_iteration < 1) {
    throw std::invalid_argument("Synthesizer: pairs_per_iteration < 1");
  }
  if (config_.max_iterations < 1) {
    throw std::invalid_argument("Synthesizer: max_iterations < 1");
  }
}

void Synthesizer::seed_graph(pref::PreferenceGraph& graph, oracle::Oracle& user,
                             util::Rng& rng) const {
  if (config_.initial_scenarios == 0) return;
  std::vector<pref::Scenario> batch;
  batch.reserve(static_cast<std::size_t>(config_.initial_scenarios));
  const int max_tries = 1000 * config_.initial_scenarios;
  for (int tries = 0;
       static_cast<int>(batch.size()) < config_.initial_scenarios &&
       tries < max_tries;
       ++tries) {
    pref::Scenario s;
    for (const sketch::MetricSpec& m : sketch_.metrics()) {
      s.metrics.push_back(rng.uniform_real(m.lo, m.hi));
    }
    // Rejection-sample against the (optional) scenario-domain constraint.
    if (!solver::domain_contains(sketch_, config_.scenario_domain, s.metrics)) {
      continue;
    }
    batch.push_back(std::move(s));
  }
  if (batch.empty()) {
    util::log(util::LogLevel::kWarn,
              "scenario domain too tight for random seeding; starting cold");
    return;
  }

  const oracle::RankingResponse response = user.rank(batch);
  std::vector<pref::VertexId> ids;
  ids.reserve(batch.size());
  for (const pref::Scenario& s : batch) ids.push_back(graph.intern(s));
  for (const auto& p : response.preferences) {
    const pref::AddResult r = graph.add_preference(ids[p.better], ids[p.worse]);
    if (r == pref::AddResult::kCycle) {
      util::log(util::LogLevel::kWarn, "seed ranking contained a contradiction; dropped");
    }
  }
  for (const auto& t : response.ties) graph.add_tie(ids[t.a], ids[t.b]);
}

void Synthesizer::record_answer(pref::PreferenceGraph& graph, pref::VertexId v1,
                                pref::VertexId v2, oracle::Preference answer,
                                IterationRecord& record) const {
  switch (answer) {
    case oracle::Preference::kFirst:
    case oracle::Preference::kSecond: {
      const pref::VertexId better = answer == oracle::Preference::kFirst ? v1 : v2;
      const pref::VertexId worse = answer == oracle::Preference::kFirst ? v2 : v1;
      switch (graph.add_preference(better, worse)) {
        case pref::AddResult::kAdded:
          ++record.edges_added;
          break;
        case pref::AddResult::kDuplicate:
        case pref::AddResult::kSelfLoop:
          break;
        case pref::AddResult::kCycle:
          util::log(util::LogLevel::kWarn,
                    "contradictory preference dropped (enable "
                    "tolerate_inconsistency to keep and repair)");
          break;
      }
      break;
    }
    case oracle::Preference::kTie:
      if (graph.add_tie(v1, v2)) ++record.ties_added;
      break;
  }
}

SynthesisResult Synthesizer::run(oracle::Oracle& user) {
  return run(user, pref::PreferenceGraph(config_.tolerate_inconsistency));
}

SynthesisResult Synthesizer::run(oracle::Oracle& user,
                                 pref::PreferenceGraph graph) {
  SessionState st;
  st.graph = std::move(graph);
  return run_impl(user, std::move(st), /*resumed=*/false);
}

SynthesisResult Synthesizer::resume(oracle::Oracle& user, SessionState state) {
  // Validate and restore everything before the loop starts: each step throws
  // on a mismatched state, and a failed resume must not start a half-restored
  // run.
  const std::vector<solver::DistinguishingPair>& pending = state.pending.pairs;
  if (pending.size() > static_cast<std::size_t>(config_.pairs_per_iteration)) {
    throw std::invalid_argument(
        "Synthesizer::resume: more pending pairs than pairs_per_iteration");
  }
  const std::size_t arity = sketch_.metrics().size();
  for (const solver::DistinguishingPair& pair : pending) {
    if (pair.preferred_by_a.metrics.size() != arity ||
        pair.preferred_by_b.metrics.size() != arity) {
      throw std::invalid_argument(
          "Synthesizer::resume: a pending scenario's arity differs from the "
          "sketch's metrics");
    }
  }
  finder_->restore_state(state.finder_state);
  user.restore_state(state.oracle_state);
  return run_impl(user, std::move(state), /*resumed=*/true);
}

SynthesisResult Synthesizer::run_impl(oracle::Oracle& user, SessionState st,
                                      bool resumed) {
  SynthesisResult result;
  util::Rng rng(config_.seed);
  pref::PreferenceGraph& graph = st.graph;
  // The oracle's absolute counter may predate this logical session (a
  // restored oracle carries its checkpointed counters), so the baseline
  // backs out everything not attributable to the session.
  const long comparisons_before = user.comparisons() - st.oracle_comparisons;

  // Thread the run context through every component for the duration of this
  // run. The oracle and the (returned) graph outlive the call, so their
  // pointers are cleared before returning.
  const obs::RunContext* obs = &config_.obs;
  finder_->set_run_context(obs);
  user.set_run_context(obs);
  graph.set_run_context(obs);
  if (obs::tracing(obs)) {
    obs::TraceEvent start("run_start");
    start.str("sketch", sketch_.name())
        .integer("seed", static_cast<long long>(config_.seed))
        .integer("initial_scenarios", config_.initial_scenarios)
        .integer("pairs_per_iteration", config_.pairs_per_iteration)
        .integer("max_iterations", config_.max_iterations);
    if (resumed) start.integer("resumed_at", st.iterations);
    obs->emit(start);

    // Static-analysis summary of the sketch under synthesis: lint tallies
    // plus the proven objective enclosure over the full input space
    // (docs/ANALYSIS.md). Non-finite bounds serialize as null.
    const sketch::AnalysisResult analysis = sketch::analyze(sketch_);
    obs::TraceEvent ae("analysis");
    ae.str("kind", "lint")
        .str("sketch", sketch_.name())
        .integer("diagnostics",
                 static_cast<long long>(analysis.diagnostics.size()))
        .integer("errors", static_cast<long long>(sketch::count_severity(
                               analysis.diagnostics, sketch::Severity::kError)))
        .integer("warnings",
                 static_cast<long long>(sketch::count_severity(
                     analysis.diagnostics, sketch::Severity::kWarning)))
        .boolean("well_typed", analysis.well_typed)
        .boolean("maybe_nan", analysis.output.maybe_nan)
        .boolean("maybe_error", analysis.output.maybe_error)
        .num("out_lo", analysis.output.lo)
        .num("out_hi", analysis.output.hi);
    obs->emit(ae);
  }

  // A resumed session already carries preference knowledge; only a fresh
  // graph gets the up-front random-scenario ranking.
  if (graph.vertex_count() == 0) seed_graph(graph, user, rng);

  // Captures the complete loop state into `st` and hands it to the
  // checkpoint hook. A mid-run checkpoint (`found` set) runs after a query
  // found pairs and before the first is asked, with the counters of the last
  // completed iteration and the pairs in `st.pending`, so a resumed run asks
  // them without querying again; the final one (`found` null) has none.
  const auto checkpoint = [&](const solver::FinderResult* found,
                              double found_seconds) {
    if (!config_.checkpoint) return;
    const bool final_state = found == nullptr;
    if (found != nullptr) st.pending = {found->pairs, found_seconds};
    st.finder_state = finder_->save_state();
    st.oracle_state = user.save_state();
    st.oracle_comparisons = user.comparisons() - comparisons_before;
    config_.checkpoint(st);
    const auto pending_pairs = static_cast<long long>(st.pending.pairs.size());
    st.pending = {};
    if (obs::active(obs)) {
      obs->count("session.checkpoints");
      if (obs->tracing()) {
        obs::TraceEvent e("checkpoint");
        e.integer("iteration", st.iterations)
            .boolean("final", final_state)
            .integer("pending", pending_pairs)
            .integer("vertices", static_cast<long long>(graph.vertex_count()))
            .integer("edges", static_cast<long long>(graph.edges().size()))
            .integer("ties", static_cast<long long>(graph.ties().size()));
        obs->emit(e);
      }
    }
  };

  finder_queries_ = 0;
  bool done = false;
  while (!done && st.iterations < config_.max_iterations) {
    IterationRecord record;
    record.index = st.iterations + 1;

    solver::FinderResult fr;
    if (!st.pending.pairs.empty()) {
      // Resumed from a checkpoint taken after this iteration's query.
      fr.status = solver::FinderStatus::kFound;
      fr.pairs = std::move(st.pending.pairs);
      record.solver_seconds = st.pending.solver_seconds;
      st.pending = {};
    } else {
      util::Stopwatch watch;
      fr = finder_->find_distinguishing(graph, config_.pairs_per_iteration);
      record.solver_seconds = watch.elapsed_seconds();
      ++finder_queries_;
      if (fr.status == solver::FinderStatus::kFound) {
        checkpoint(&fr, record.solver_seconds);
      }
    }
    ++st.iterations;

    switch (fr.status) {
      case solver::FinderStatus::kUniqueRanking:
        result.status = SynthesisStatus::kConverged;
        result.objective = fr.candidate_a;
        done = true;
        break;

      case solver::FinderStatus::kNoCandidate:
        if (config_.tolerate_inconsistency &&
            st.repair_rounds < kMaxRepairRounds) {
          ++st.repair_rounds;
          std::vector<pref::Edge> removed = graph.repair();
          if (removed.empty()) {
            // Acyclic yet unsatisfiable: some answer contradicts the sketch
            // space; drop the least-trusted one and retry.
            if (!graph.drop_lightest_edge()) {
              result.status = SynthesisStatus::kNoCandidate;
              done = true;
            }
          }
          util::log(util::LogLevel::kInfo, "repaired preference graph (round ",
                    st.repair_rounds, ")");
        } else {
          result.status = SynthesisStatus::kNoCandidate;
          done = true;
        }
        break;

      case solver::FinderStatus::kUnknown:
        result.status = SynthesisStatus::kSolverGaveUp;
        done = true;
        break;

      case solver::FinderStatus::kFound: {
        ++st.interactions;
        for (const solver::DistinguishingPair& pair : fr.pairs) {
          const pref::VertexId v1 = graph.intern(pair.preferred_by_a);
          const pref::VertexId v2 = graph.intern(pair.preferred_by_b);
          const oracle::Preference answer =
              user.compare(pair.preferred_by_a, pair.preferred_by_b);
          record_answer(graph, v1, v2, answer, record);
          ++record.pairs_presented;
        }
        break;
      }
    }

    st.total_solver_seconds += record.solver_seconds;
    if (obs::active(obs)) {
      obs->count("synth.iterations");
      obs->observe("iteration.solver_seconds", record.solver_seconds);
      if (obs->tracing()) {
        obs::TraceEvent e("iteration");
        e.integer("index", record.index)
            .num("secs", record.solver_seconds)
            .str("status", finder_status_name(fr.status))
            .integer("pairs_presented", record.pairs_presented)
            .integer("edges_added", record.edges_added)
            .integer("ties_added", record.ties_added)
            .integer("vertices", static_cast<long long>(graph.vertex_count()))
            .integer("edges", static_cast<long long>(graph.edges().size()))
            .integer("ties", static_cast<long long>(graph.ties().size()));
        obs->emit(e);
      }
    }
    if (config_.keep_transcript) st.transcript.push_back(record);
  }
  if (!done) {
    result.status = SynthesisStatus::kIterationLimit;
    result.objective = finder_->find_consistent(graph);
  }
  checkpoint(/*found=*/nullptr, 0);
  result.iterations = st.iterations;
  result.interactions = st.interactions;
  result.total_solver_seconds = st.total_solver_seconds;
  if (result.iterations > 0) {
    result.average_iteration_seconds =
        result.total_solver_seconds / result.iterations;
  }
  result.oracle_comparisons = user.comparisons() - comparisons_before;
  result.transcript = std::move(st.transcript);

  if (obs::tracing(obs)) {
    obs::TraceEvent end("run_end");
    end.str("status", status_name(result.status))
        .integer("iterations", result.iterations)
        .integer("interactions", result.interactions)
        .integer("oracle_comparisons", result.oracle_comparisons)
        .num("total_solver_seconds", result.total_solver_seconds);
    obs->emit(end);
  }
  // The oracle and the returned graph outlive this run; the finder is owned
  // by the synthesizer and keeps its pointer until the next run resets it.
  user.set_run_context(nullptr);
  graph.set_run_context(nullptr);

  result.graph = std::move(graph);
  return result;
}

Synthesizer make_z3_synthesizer(const sketch::Sketch& sketch,
                                SynthesisConfig config,
                                solver::Viability viability) {
  auto finder = std::make_unique<solver::Z3Finder>(
      sketch, config.finder, std::move(viability), config.scenario_domain);
  return Synthesizer(sketch, std::move(finder), config);
}

namespace {

/// The grid configuration shared by every grid-based factory, portfolio
/// included, so a portfolio run derives the same grid seed (and asks the
/// same questions up to its first proved verdict) as the plain grid
/// back-end, and honours the same threads and shard backend.
solver::GridFinderConfig grid_config_for(const SynthesisConfig& config,
                                         solver::QueryStrategy strategy) {
  solver::GridFinderConfig grid_config;
  grid_config.base = config.finder;
  grid_config.seed = config.seed ^ 0x9e3779b97f4a7c15ULL;
  grid_config.strategy = strategy;
  grid_config.threads = config.grid_threads;
  grid_config.shard_backend = config.grid_shard_backend;
  return grid_config;
}

Synthesizer make_grid_based(const sketch::Sketch& sketch, SynthesisConfig config,
                            solver::Viability viability,
                            solver::QueryStrategy strategy) {
  return Synthesizer(sketch,
                     std::make_unique<solver::GridFinder>(
                         sketch, grid_config_for(config, strategy),
                         std::move(viability), config.scenario_domain),
                     config);
}

}  // namespace

Synthesizer make_grid_synthesizer(const sketch::Sketch& sketch,
                                  SynthesisConfig config,
                                  solver::Viability viability) {
  return make_grid_based(sketch, config, std::move(viability),
                         solver::QueryStrategy::kFirstFound);
}

Synthesizer make_bisection_synthesizer(const sketch::Sketch& sketch,
                                       SynthesisConfig config,
                                       solver::Viability viability) {
  return make_grid_based(sketch, config, std::move(viability),
                         solver::QueryStrategy::kBisection);
}

Synthesizer make_portfolio_synthesizer(const sketch::Sketch& sketch,
                                       SynthesisConfig config,
                                       solver::Viability viability) {
  auto finder = std::make_unique<solver::PortfolioFinder>(
      sketch, grid_config_for(config, solver::QueryStrategy::kFirstFound),
      std::move(viability), config.scenario_domain);
  return Synthesizer(sketch, std::move(finder), config);
}

}  // namespace compsynth::synth
