#include "solver/equivalence.h"

#include <z3++.h>

#include <vector>

#include "solver/z3_encoder.h"

namespace compsynth::solver {

std::optional<RankingDifference> find_ranking_difference(
    const sketch::Sketch& sketch, std::span<const sketch::HoleAssignment> as,
    std::span<const sketch::HoleAssignment> bs, const FinderConfig& config,
    const ScenarioDomain& domain, const obs::RunContext* obs) {
  z3::context ctx;
  z3::solver solver = make_solver(ctx, config.timeout_ms);

  // One side's hole variables, equal to one of its candidates.
  auto side_holes = [&](std::span<const sketch::HoleAssignment> set,
                        const char* prefix) {
    std::vector<z3::expr> vars = make_hole_vars(ctx, sketch, prefix);
    z3::expr member = ctx.bool_val(false);
    for (const sketch::HoleAssignment& candidate : set) {
      member = member || holes_equal(ctx, vars, sketch.hole_values(candidate));
    }
    solver.add(member);
    return vars;
  };
  const std::vector<z3::expr> ha = side_holes(as, "a_");
  const std::vector<z3::expr> hb = side_holes(bs, "b_");

  const sketch::Expr* constraint = domain.constraint.get();
  const auto s1 = make_scenario_vars(ctx, solver, sketch, constraint, "s1_");
  const auto s2 = make_scenario_vars(ctx, solver, sketch, constraint, "s2_");

  // Both orientations of the disagreement are covered by the existential
  // choice of (s1, s2): swapping the pair swaps the roles of a and b.
  const z3::expr margin = real_of_double(ctx, config.distinguish_margin);
  const z3::expr fa1 = encode_numeric(ctx, *sketch.body(), s1, ha);
  const z3::expr fa2 = encode_numeric(ctx, *sketch.body(), s2, ha);
  const z3::expr fb1 = encode_numeric(ctx, *sketch.body(), s1, hb);
  const z3::expr fb2 = encode_numeric(ctx, *sketch.body(), s2, hb);
  solver.add(fa1 >= fa2 + margin);
  solver.add(fb2 >= fb1 + margin);

  const CheckOutcome out = check_query(ctx, solver, config.timeout_ms, obs, "proof");
  if (out.result == z3::unsat) return std::nullopt;
  if (out.result == z3::unknown) {
    throw UndecidedQuery("find_ranking_difference: Z3 returned unknown");
  }

  const z3::model& model = *out.model;
  RankingDifference diff{assignment_of(model, sketch, ha),
                         assignment_of(model, sketch, hb), {}};
  for (const z3::expr& v : s1) diff.pair.preferred_by_a.metrics.push_back(value_of(model, v));
  for (const z3::expr& v : s2) diff.pair.preferred_by_b.metrics.push_back(value_of(model, v));
  return diff;
}

bool ranking_equivalent(const sketch::Sketch& sketch,
                        const sketch::HoleAssignment& a,
                        const sketch::HoleAssignment& b,
                        const FinderConfig& config) {
  return !find_ranking_difference(sketch, {&a, 1}, {&b, 1}, config);
}

}  // namespace compsynth::solver
