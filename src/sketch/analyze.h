// Static analysis for sketches: interval abstract interpretation + lint.
//
// The abstract domain is a closed interval [lo, hi] over the extended reals
// with two poison flags: `maybe_nan` (some evaluation in the box may return
// NaN) and `maybe_error` (some evaluation may throw sketch::EvalError — the
// concrete interpreter throws on division by zero rather than returning
// inf/NaN). The transfer functions mirror sketch/eval.cpp exactly, including
// its non-IEEE corners (std::min/std::max argument-order NaN behaviour, the
// llround+clamp `choose` selector). Interval corners are evaluated with the
// same double operations the interpreter uses; IEEE rounding is monotone, so
// the computed corners dominate every interior concrete result without any
// outward ulp padding. The
// soundness contract — every concrete evaluation at a point inside the box
// lands in the returned interval (or is flagged) — is property-tested in
// tests/analyze_test.cpp and is what makes the Z3 objective bounds safe
// (docs/ANALYSIS.md has the full argument).
//
// On top of the interpreter, analyze() runs a lint pass producing the
// structured diagnostics of sketch/diagnostics.h: division hazards, NaN /
// overflow escapes, dead or overlapping `choose` arms, selector grids that
// do not match their alternatives, unused declarations, degenerate hole
// dimensions and constant-foldable subtrees.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sketch/ast.h"
#include "sketch/diagnostics.h"

namespace compsynth::sketch {

/// The abstract value: a guaranteed enclosure of every non-NaN result a
/// concrete evaluation can produce, plus poison flags for the two ways an
/// evaluation can fail to produce an ordinary number.
struct Interval {
  double lo = 0;
  double hi = 0;
  /// Some evaluation inside the box may return NaN (e.g. inf - inf after an
  /// overflow). NaN results are NOT required to lie in [lo, hi].
  bool maybe_nan = false;
  /// Some evaluation inside the box may throw EvalError (division by zero).
  bool maybe_error = false;

  static Interval point(double v);
  static Interval of(double a, double b);  // unordered endpoints accepted
  static Interval top();                   // [-inf, +inf], both flags set

  /// True when a concrete outcome is accounted for: a NaN needs maybe_nan,
  /// anything else must lie in [lo, hi].
  bool admits(double v) const;
  bool finite() const;  // both endpoints finite
};

// Transfer functions, exposed for unit tests. Each returns a sound
// enclosure of { a_op_b : a in ia, b in ib } under eval.cpp's semantics.
Interval interval_neg(const Interval& a);
Interval interval_add(const Interval& a, const Interval& b);
Interval interval_sub(const Interval& a, const Interval& b);
Interval interval_mul(const Interval& a, const Interval& b);
Interval interval_div(const Interval& a, const Interval& b);
Interval interval_min(const Interval& a, const Interval& b);
Interval interval_max(const Interval& a, const Interval& b);
Interval interval_hull(const Interval& a, const Interval& b);

/// A box: one interval per metric and one per hole, the abstract analogue
/// of (scenario, hole_values) inputs to eval_with_values.
struct Box {
  std::vector<Interval> metrics;
  std::vector<Interval> holes;
};

/// The box covering a sketch's whole input space: metric ranges x full hole
/// grids.
Box full_box(const Sketch& sketch);

/// Interval spanned by a hole grid (or by the index subrange
/// [first, last], inclusive; indices are clamped to the grid).
Interval grid_interval(const HoleSpec& spec);
Interval grid_interval(const HoleSpec& spec, std::int64_t first,
                       std::int64_t last);

/// Evaluates a numeric expression over a box. The expression must be
/// well-typed for the box's arities (use analyze_expr for untrusted input).
Interval eval_interval(const Expr& e, const Box& box);

struct AnalysisResult {
  /// Guaranteed output enclosure over the full box. Meaningful only when
  /// `well_typed`; otherwise Interval::top().
  Interval output = Interval::top();
  /// No error-severity type/arity/reference problems were found; the
  /// interval result and the numeric-hazard lint pass ran.
  bool well_typed = false;
  std::vector<Diagnostic> diagnostics;
};

/// Full analysis of a constructed (hence already type-valid) sketch.
AnalysisResult analyze(const Sketch& sketch);

/// Tolerant analysis of a possibly ill-formed body against declaration
/// lists — the lint entry point for raw parses (parser.h's RawSketch),
/// which reports every problem it can find instead of throwing on the
/// first. Declaration validity (inverted metric ranges, duplicate names)
/// is checked here too, mirroring the Sketch constructor.
AnalysisResult analyze_expr(const Expr& body,
                            std::span<const MetricSpec> metrics,
                            std::span<const HoleSpec> holes);

/// Which metrics / holes the expression reads (kChoice counts as reading
/// its selector hole). Used by the lint pass.
std::vector<bool> used_metrics(const Expr& e, std::size_t metric_count);
std::vector<bool> used_holes(const Expr& e, std::size_t hole_count);

/// Range of `choose` arm indices reachable for selector values in `sel`,
/// mirroring eval.cpp's llround + clamp semantics. first <= last, both in
/// [0, arm_count). Exposed for eval_interval's tests.
std::pair<std::int64_t, std::int64_t> reachable_arms(const Interval& sel,
                                                     std::size_t arm_count);

}  // namespace compsynth::sketch
