#include "solver/portfolio_finder.h"

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "solver/equivalence.h"

namespace compsynth::solver {

PortfolioFinder::PortfolioFinder(sketch::Sketch sketch, GridFinderConfig grid,
                                 Viability viability, ScenarioDomain domain)
    : sketch_(sketch),
      config_(grid.base),
      domain_(domain),
      grid_(std::move(sketch), grid, std::move(viability), std::move(domain)) {}

FinderResult PortfolioFinder::find_distinguishing(
    const pref::PreferenceGraph& graph, int num_pairs) {
  FinderResult result = grid_.find_distinguishing(graph, num_pairs);
  if (result.status != FinderStatus::kUniqueRanking) return result;

  // First the representative (survivor 0, the verdict's candidate) against
  // each other survivor in index order, which is where witnesses show up.
  // Equivalence under a margin is not transitive, so one more query lets
  // both candidates range over the other survivors (measured against
  // checking those pairs one by one in docs/SOLVER.md §Portfolio).
  std::vector<sketch::HoleAssignment> survivors;
  for (const std::int64_t linear : grid_.survivors()) {
    survivors.push_back(grid_.assignment_at(linear));
  }
  const std::span<const sketch::HoleAssignment> all(survivors);
  std::optional<RankingDifference> diff;
  try {
    for (std::size_t j = 1; j < all.size() && !diff; ++j) {
      diff = find_ranking_difference(sketch_, all.first(1), all.subspan(j, 1),
                                     config_, domain_, obs_);
    }
    if (!diff && all.size() > 2) {
      diff = find_ranking_difference(sketch_, all.subspan(1), all.subspan(1),
                                     config_, domain_, obs_);
    }
  } catch (const UndecidedQuery&) {
    return FinderResult{};  // kUnknown
  }
  if (!diff) return result;
  result.status = FinderStatus::kFound;
  result.candidate_a = std::move(diff->a);
  result.candidate_b = std::move(diff->b);
  result.pairs.push_back(std::move(diff->pair));
  return result;
}

}  // namespace compsynth::solver
