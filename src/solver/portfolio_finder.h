// Portfolio finder: GridFinder first, Z3Finder for the verdicts the grid
// can only sample.
//
// The two back-ends have complementary cost profiles: the grid's explicit
// version space answers most mid-loop queries in microseconds but its
// "unique ranking" verdict is approximate (a sampling budget), while Z3 is
// authoritative but pays solver time on every query. The portfolio asks
// the grid leg first and keeps its answer when it is exact — a
// distinguishing pair, or an empty version space — and otherwise returns
// the Z3 leg's answer to the same query. So the grid answers the find-a-pair
// rounds and Z3 settles the endgame, giving grid-like latency with the
// paper's UNSAT stopping rule (docs/SOLVER.md §Portfolio).
//
// Both legs run on the caller's thread, one after the other, so a run is
// replay-deterministic: a rerun, or a resume from any checkpoint, asks the
// identical question sequence. Up to the first query the grid answers with
// "unique ranking", that sequence equals the plain grid back-end's.
#pragma once

#include <memory>
#include <string>

#include "solver/finder.h"
#include "solver/grid_finder.h"
#include "solver/z3_finder.h"

namespace compsynth::solver {

class PortfolioFinder final : public CandidateFinder {
 public:
  /// `grid` configures the grid leg; `grid.base` (margins, timeout, retry)
  /// doubles as the Z3 leg's FinderConfig
  /// so the two legs always agree on the query semantics.
  explicit PortfolioFinder(sketch::Sketch sketch, GridFinderConfig grid = {},
                           Viability viability = {}, ScenarioDomain domain = {});

  FinderResult find_distinguishing(const pref::PreferenceGraph& graph,
                                   int num_pairs) override;

  /// Always the grid leg, whose answer is exact and instant once its
  /// version space is synced.
  std::optional<sketch::HoleAssignment> find_consistent(
      const pref::PreferenceGraph& graph) override;

  void set_run_context(const obs::RunContext* ctx) override;

  /// The Z3 leg, for wiring that targets it specifically (fault injector,
  /// query log).
  Z3Finder& z3() { return *z3_; }

  /// Durable-session persistence: both legs' states, length-prefixed.
  std::string save_state() const override;
  void restore_state(const std::string& state) override;

 private:
  std::unique_ptr<GridFinder> grid_;
  std::unique_ptr<Z3Finder> z3_;
};

}  // namespace compsynth::solver
