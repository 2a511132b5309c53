// Portfolio finder: GridFinder first, then a Z3 proof of the grid's verdict
// on its concrete survivors (docs/SOLVER.md §Portfolio).
//
// The grid's answers are kept when exact: a distinguishing pair, an empty
// version space, or a unique ranking with one survivor. A unique ranking
// over several survivors is only a sample, so the portfolio checks the
// survivors with find_ranking_difference (solver/equivalence.h) and asks the
// first witness, or returns the verdict proved: the paper's stopping rule
// (§4.2) over the grid. Everything runs on the caller's thread and the proof
// keeps no state, so a run is replay-deterministic, and it asks the plain
// grid back-end's questions until its proof finds a pair the grid missed.
#pragma once

#include <optional>
#include <string>

#include "solver/finder.h"
#include "solver/grid_finder.h"

namespace compsynth::solver {

class PortfolioFinder final : public CandidateFinder {
 public:
  /// `grid.base` (margins, timeout) also sets the proof's query semantics.
  explicit PortfolioFinder(sketch::Sketch sketch, GridFinderConfig grid = {},
                           Viability viability = {}, ScenarioDomain domain = {});

  /// A proof check that Z3 cannot decide reports kUnknown.
  FinderResult find_distinguishing(const pref::PreferenceGraph& graph,
                                   int num_pairs) override;

  /// Always the grid, whose answer is exact.
  std::optional<sketch::HoleAssignment> find_consistent(
      const pref::PreferenceGraph& graph) override {
    return grid_.find_consistent(graph);
  }

  void set_run_context(const obs::RunContext* ctx) override {
    CandidateFinder::set_run_context(ctx);
    grid_.set_run_context(ctx);
  }

  /// The grid's state, verbatim: the proof keeps none.
  std::string save_state() const override { return grid_.save_state(); }
  void restore_state(const std::string& state) override {
    grid_.restore_state(state);
  }

 private:
  sketch::Sketch sketch_;
  FinderConfig config_;
  ScenarioDomain domain_;
  GridFinder grid_;
};

}  // namespace compsynth::solver
