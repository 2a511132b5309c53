// Translation of sketch expressions into Z3 real-arithmetic terms, and the
// one solver set-up and check every Z3 query runs on.
//
// Mirrors the concrete interpreter in sketch/eval.h node for node; the two
// are differentially tested. All numbers are encoded as exact rationals
// (doubles convert exactly via their binary mantissa/exponent), so the SMT
// side never suffers floating-point rounding.
#pragma once

#include <z3++.h>

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sketch/ast.h"

namespace compsynth::obs {
struct RunContext;
}

namespace compsynth::solver {

/// Exact conversion of a finite double into a Z3 real numeral.
/// Every finite double is num / 2^k exactly; huge magnitudes fall back to a
/// high-precision decimal string.
z3::expr real_of_double(z3::context& ctx, double value);

/// Encodes a numeric sketch expression. `metrics[i]` / `holes[i]` supply the
/// Z3 terms standing for metric i / hole i (they may be variables or
/// numerals). The expression must be well-typed.
z3::expr encode_numeric(z3::context& ctx, const sketch::Expr& e,
                        std::span<const z3::expr> metrics,
                        std::span<const z3::expr> holes);

/// Encodes a boolean sketch expression under the same environment.
z3::expr encode_bool(z3::context& ctx, const sketch::Expr& e,
                     std::span<const z3::expr> metrics,
                     std::span<const z3::expr> holes);

/// Creates one fresh real variable per hole, named `<prefix><holename>`.
std::vector<z3::expr> make_hole_vars(z3::context& ctx,
                                     const sketch::Sketch& sketch,
                                     const std::string& prefix);

/// The grid-membership constraint for hole variables: each variable equals
/// one of its HoleSpec's grid values. Keeps the formula in pure QF_NRA.
z3::expr hole_domain_constraint(z3::context& ctx, const sketch::Sketch& sketch,
                                std::span<const z3::expr> hole_vars);

/// Fresh real variables `<prefix><metric>` for one scenario, with the
/// metric box and then `constraint` (a scenario domain; may be null)
/// asserted on `solver`.
std::vector<z3::expr> make_scenario_vars(z3::context& ctx, z3::solver& solver,
                                         const sketch::Sketch& sketch,
                                         const sketch::Expr* constraint,
                                         const std::string& prefix);

/// The conjunction `holes[i] == values[i]`: hole variables pinned to one
/// candidate's values.
z3::expr holes_equal(z3::context& ctx, std::span<const z3::expr> holes,
                     std::span<const double> values);

/// The candidate `model` assigns to `holes`, each value snapped to its grid.
sketch::HoleAssignment assignment_of(const z3::model& model,
                                     const sketch::Sketch& sketch,
                                     std::span<const z3::expr> holes);

/// Converts concrete metric values into Z3 numerals.
std::vector<z3::expr> encode_scenario(z3::context& ctx,
                                      std::span<const double> metrics);

/// Extracts a double from a numeral in a model (model completion on).
double value_of(const z3::model& model, const z3::expr& var);

/// The solver every Z3 query (Z3Finder's, find_ranking_difference's) runs
/// on: the qfnra-nlsat tactic, a complete decision procedure for the pure
/// QF_NRA compsynth emits, with `timeout_ms` per check (0 = none).
z3::solver make_solver(z3::context& ctx, unsigned timeout_ms);

struct CheckOutcome {
  z3::check_result result = z3::unknown;
  std::optional<z3::model> model;  // engaged iff result == sat
};

/// Checks `s` as one "z3_query" span on `obs` (may be null) with `kind`,
/// `index` when positive, `result`, and `attempt` when above 1. An
/// `unknown` is re-checked by Z3's default solver over a copy of the
/// assertions, under the same timeout; `s` itself is never replaced.
CheckOutcome check_query(z3::context& ctx, z3::solver& s, unsigned timeout_ms,
                         const obs::RunContext* obs, const char* kind,
                         long index = 0, int attempt = 1);

}  // namespace compsynth::solver
