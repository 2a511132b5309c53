// Candidate finders: the solver back-ends of the comparative synthesizer.
//
// A finder answers the central query of paper §4.2: given the preference
// graph G, find two viable candidate objective functions fa, fb that both
// honor every recorded preference yet *disagree* on the ordering of some
// fresh pair of in-range scenarios. When no such pair of candidates exists
// (the paper's UNSAT case), all G-consistent candidates induce the same
// ranking and synthesis has converged.
//
// Two implementations exist: Z3Finder (solver/z3_finder.h) encodes the query
// to Z3 exactly as the paper describes; GridFinder (solver/grid_finder.h)
// maintains an explicit version space over the finite hole grid and serves
// as a solver-free baseline and differential-testing partner.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "pref/graph.h"
#include "pref/scenario.h"
#include "sketch/ast.h"
#include "util/fault.h"

namespace compsynth::obs {
struct RunContext;
}

namespace compsynth::solver {

/// Margins controlling strictness (see DESIGN.md §6 and the loop-progress
/// argument in pref/graph.h). Invariant: distinguish_margin > tie_tolerance.
struct FinderConfig {
  /// Scenario pairs whose objective values differ by at most this much are
  /// considered indistinguishable; tie constraints use this bound (plus a
  /// small slack for double rounding).
  double tie_tolerance = 1e-4;

  /// Distinguishing scenarios must separate the two candidates by at least
  /// this margin, which must exceed tie_tolerance so that every oracle
  /// answer eliminates at least one candidate.
  double distinguish_margin = 4e-4;

  /// Per-query soft timeout for SMT-backed finders (0 = none).
  unsigned timeout_ms = 120000;

  /// Retry policy for transient back-end failures (an injected or real
  /// solver hiccup): the query is re-issued with backoff up to max_attempts
  /// times, each fault/retry surfaced as trace events and solver metrics.
  /// After the budget is exhausted the finder reports kUnknown rather than
  /// aborting the session.
  util::RetryPolicy retry;
};

/// Optional domain-specific viability check ("Viable(f)" in the paper's
/// query; the SWAN case study skips it). `concrete` filters hole-value
/// vectors; SMT back-ends enforce it via model blocking. Empty functions
/// mean "always viable".
struct Viability {
  std::function<bool(std::span<const double>)> concrete;
};

/// Where distinguishing scenarios may live. The paper's ClosedInRange is the
/// metric box built into every sketch; `constraint` optionally narrows it to
/// an arbitrary region given as a boolean DSL expression over the metrics
/// (holes are not allowed) — e.g. the achievable throughput/latency frontier
/// of a concrete network, parsed with sketch::parse_expr. Null = box only.
struct ScenarioDomain {
  sketch::ExprPtr constraint;
};

/// Validates a scenario-domain constraint against a sketch (boolean, metrics
/// only). Throws sketch::TypeError / std::invalid_argument on violation.
void validate_domain(const sketch::Sketch& sketch, const ScenarioDomain& domain);

/// True when `metrics` lies in the sketch box and satisfies the constraint.
bool domain_contains(const sketch::Sketch& sketch, const ScenarioDomain& domain,
                     std::span<const double> metrics);

/// One distinguishing scenario pair: candidate A ranks `preferred_by_a`
/// strictly above `preferred_by_b`; candidate B ranks them the other way.
struct DistinguishingPair {
  pref::Scenario preferred_by_a;
  pref::Scenario preferred_by_b;
};

enum class FinderStatus {
  kFound,          // two disagreeing candidates + pair(s) returned
  kUniqueRanking,  // UNSAT: all consistent candidates rank identically
  kNoCandidate,    // no candidate is consistent with G (user contradicted
                   // the sketch, or noise corrupted G)
  kUnknown,        // back-end gave up (timeout / incompleteness)
};

struct FinderResult {
  FinderStatus status = FinderStatus::kUnknown;
  sketch::HoleAssignment candidate_a;
  sketch::HoleAssignment candidate_b;
  /// Non-empty iff status == kFound; up to the requested number of pairs
  /// (an implementation may return fewer if it can only separate on fewer).
  std::vector<DistinguishingPair> pairs;
};

/// Abstract finder interface. Implementations are bound to one sketch at
/// construction and must be usable for many queries over a growing graph.
class CandidateFinder {
 public:
  virtual ~CandidateFinder() = default;

  CandidateFinder(const CandidateFinder&) = delete;
  CandidateFinder& operator=(const CandidateFinder&) = delete;

  /// The paper's distinguishing query. `num_pairs` >= 1 requests several
  /// pairs per interaction (the Fig. 4 experiment).
  virtual FinderResult find_distinguishing(const pref::PreferenceGraph& graph,
                                           int num_pairs) = 0;

  /// Any single candidate consistent with G (used to extract the final
  /// objective once the ranking is unique). nullopt when none exists.
  virtual std::optional<sketch::HoleAssignment> find_consistent(
      const pref::PreferenceGraph& graph) = 0;

  /// Observability: when set (non-owning; may be null), back-ends emit
  /// per-query trace events ("z3_query", "grid_sync", "pair_search") and
  /// record solver.* metrics. The synthesizer wires this up per run.
  /// Virtual so composite finders (solver/portfolio_finder.h) can forward
  /// the context to their legs.
  virtual void set_run_context(const obs::RunContext* ctx) { obs_ = ctx; }

  /// Durable-session persistence (docs/PERSISTENCE.md): back-ends serialize
  /// whatever internal state a resumed run needs to continue the identical
  /// query sequence — RNG streams, version-space membership, incremental
  /// cursors. The blob is opaque to callers; restore_state expects a finder
  /// constructed over the same sketch and configuration and throws
  /// std::invalid_argument on malformed or mismatched input. The defaults
  /// are for stateless finders: an empty blob, accepted back verbatim.
  virtual std::string save_state() const { return {}; }
  virtual void restore_state(const std::string& state) {
    if (!state.empty()) {
      throw std::invalid_argument(
          "CandidateFinder::restore_state: unexpected state for a stateless "
          "finder");
    }
  }

 protected:
  CandidateFinder() = default;

  const obs::RunContext* obs_ = nullptr;
};

}  // namespace compsynth::solver
