// Ranking-equivalence checks between concrete objective functions.
//
// Synthesis is correct when the learned candidate is *ranking-equivalent* to
// the user's latent target: no pair of in-range scenarios exists that the two
// functions order in opposite directions (by at least the distinguishing
// margin). This is the success criterion behind the paper's claim that all
// Fig. 3 variants were "successfully synthesized", and the query with which
// the portfolio proves the grid's verdict (solver/portfolio_finder.h).
#pragma once

#include <optional>
#include <span>
#include <stdexcept>

#include "solver/finder.h"

namespace compsynth::obs {
struct RunContext;
}

namespace compsynth::solver {

/// Z3 decided neither way (timeout / incompleteness). An undecided check
/// proves nothing, so it is never read as "equivalent".
class UndecidedQuery : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Candidate `a` ranks `pair.preferred_by_a` above `pair.preferred_by_b`
/// by at least the margin; candidate `b` ranks them the other way.
struct RankingDifference {
  sketch::HoleAssignment a;
  sketch::HoleAssignment b;
  DistinguishingPair pair;
};

/// The one Z3 query over concrete candidates: a candidate `a` of `as`, a
/// candidate `b` of `bs` and a scenario pair in `domain` that they order in
/// opposite directions by at least `config.distinguish_margin`. A side of
/// one candidate is encoded as numerals, a larger side as hole variables
/// ranging over its set. nullopt means no such pair exists (or a side is
/// empty); an undecided check throws UndecidedQuery. Each call is one
/// "z3_query" span of kind "proof" on `obs` (may be null).
std::optional<RankingDifference> find_ranking_difference(
    const sketch::Sketch& sketch, std::span<const sketch::HoleAssignment> as,
    std::span<const sketch::HoleAssignment> bs, const FinderConfig& config = {},
    const ScenarioDomain& domain = {}, const obs::RunContext* obs = nullptr);

/// True when `a` and `b` order no scenario pair of the metric box in
/// opposite directions. Throws UndecidedQuery when Z3 cannot tell.
bool ranking_equivalent(const sketch::Sketch& sketch,
                        const sketch::HoleAssignment& a,
                        const sketch::HoleAssignment& b,
                        const FinderConfig& config = {});

}  // namespace compsynth::solver
