// Tests for the sketch static analyzer (sketch/analyze.h): transfer
// functions, reachable-arm computation, usage maps, lint diagnostics, and
// the property-based soundness check that underwrites the Z3 objective
// bounds — every concrete evaluation at a point
// inside a box must land in the interval computed for that box (or be
// covered by a poison flag).

#include "sketch/analyze.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include "sketch/ast.h"
#include "sketch/eval.h"
#include "sketch/library.h"
#include "sketch/parser.h"

namespace compsynth::sketch {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// --- Interval basics & transfer functions ----------------------------------

TEST(Interval, AdmitsAndFlags) {
  const Interval i = Interval::of(3, -1);  // unordered endpoints accepted
  EXPECT_EQ(i.lo, -1);
  EXPECT_EQ(i.hi, 3);
  EXPECT_TRUE(i.admits(0));
  EXPECT_TRUE(i.admits(-1));
  EXPECT_TRUE(i.admits(3));
  EXPECT_FALSE(i.admits(3.0001));
  EXPECT_FALSE(i.admits(std::nan("")));
  EXPECT_TRUE(Interval::top().admits(std::nan("")));
  EXPECT_TRUE(i.finite());
  EXPECT_FALSE(Interval::top().finite());
}

TEST(Interval, AddCrossInfinityIsNan) {
  // [-inf, 0] + [0, +inf]: no corner is NaN (-inf+0, -inf+inf... wait,
  // -inf + +inf IS a corner here), but the interior pairing check must also
  // catch [-inf, 5] + [1, +inf] where the NaN pair (-inf, +inf) is formed
  // from one endpoint of each operand.
  const Interval a = Interval::of(-kInf, 5);
  const Interval b = Interval::of(1, kInf);
  const Interval s = interval_add(a, b);
  EXPECT_TRUE(s.maybe_nan);
  EXPECT_EQ(s.lo, -kInf);
  EXPECT_EQ(s.hi, kInf);
  // Finite + finite never produces NaN.
  EXPECT_FALSE(interval_add(Interval::of(0, 1), Interval::of(2, 3)).maybe_nan);
}

TEST(Interval, SubMirrorsAdd) {
  const Interval d = interval_sub(Interval::of(0, kInf), Interval::of(0, kInf));
  EXPECT_TRUE(d.maybe_nan);  // inf - inf
  const Interval e = interval_sub(Interval::of(0, 1), Interval::of(0, 1));
  EXPECT_EQ(e.lo, -1);
  EXPECT_EQ(e.hi, 1);
  EXPECT_FALSE(e.maybe_nan);
}

TEST(Interval, MulZeroTimesInfinityIsNan) {
  // 0 is interior to a, +inf is an endpoint of b: 0 * inf = NaN even though
  // no corner product is NaN-free... the corners are (-1*1, -1*inf, 2*1,
  // 2*inf), none NaN, so only the explicit check catches it.
  const Interval p = interval_mul(Interval::of(-1, 2), Interval::of(1, kInf));
  EXPECT_TRUE(p.maybe_nan);
  const Interval q = interval_mul(Interval::of(1, 2), Interval::of(3, 4));
  EXPECT_EQ(q.lo, 3);
  EXPECT_EQ(q.hi, 8);
  EXPECT_FALSE(q.maybe_nan);
}

TEST(Interval, DivByRangeContainingZero) {
  const Interval d = interval_div(Interval::of(1, 2), Interval::of(-1, 1));
  EXPECT_TRUE(d.maybe_error);  // eval.cpp throws on x/0
  EXPECT_EQ(d.lo, -kInf);
  EXPECT_EQ(d.hi, kInf);
  const Interval ok = interval_div(Interval::of(4, 8), Interval::of(2, 4));
  EXPECT_FALSE(ok.maybe_error);
  EXPECT_EQ(ok.lo, 1);
  EXPECT_EQ(ok.hi, 4);
}

TEST(Interval, MinMaxPropagateNanAsymmetrically) {
  // std::min(x, NaN) == x but std::min(NaN, x) == NaN: a NaN in the RIGHT
  // operand can vanish, a NaN in the LEFT operand poisons the result.
  Interval a = Interval::of(0, 1);
  Interval b = Interval::of(5, 6);
  b.maybe_nan = true;
  const Interval m = interval_min(a, b);
  // min(x in [0,1], NaN) == x, so the result stays in [0, 1] but must also
  // cover min over b's numeric part — hi is min(1, 6) = 1 and the NaN case
  // folds back to a's values, all within [0, 1].
  EXPECT_FALSE(m.maybe_nan);
  EXPECT_TRUE(m.admits(0));
  EXPECT_TRUE(m.admits(1));
  a.maybe_nan = true;
  b.maybe_nan = false;
  EXPECT_TRUE(interval_min(a, b).maybe_nan);  // min(NaN, x) == NaN
}

TEST(Interval, HullAndNeg) {
  const Interval h = interval_hull(Interval::of(0, 1), Interval::of(5, 9));
  EXPECT_EQ(h.lo, 0);
  EXPECT_EQ(h.hi, 9);
  const Interval n = interval_neg(Interval::of(-2, 3));
  EXPECT_EQ(n.lo, -3);
  EXPECT_EQ(n.hi, 2);
}

// --- Grids and reachable arms ----------------------------------------------

TEST(GridInterval, FullAndSubrange) {
  const HoleSpec spec{.name = "h", .lo = 10, .step = 2.5, .count = 5};
  const Interval full = grid_interval(spec);
  EXPECT_EQ(full.lo, 10);
  EXPECT_EQ(full.hi, 20);
  const Interval sub = grid_interval(spec, 1, 3);
  EXPECT_EQ(sub.lo, 12.5);
  EXPECT_EQ(sub.hi, 17.5);
  const Interval clamped = grid_interval(spec, -7, 99);
  EXPECT_EQ(clamped.lo, 10);
  EXPECT_EQ(clamped.hi, 20);
}

TEST(ReachableArms, MirrorsLlroundClamp) {
  // Selector interval [0.4, 1.6] rounds to arms 0..2.
  auto [lo, hi] = reachable_arms(Interval::of(0.4, 1.6), 4);
  EXPECT_EQ(lo, 0);
  EXPECT_EQ(hi, 2);
  // Out-of-range selectors clamp.
  std::tie(lo, hi) = reachable_arms(Interval::of(-50, -10), 3);
  EXPECT_EQ(lo, 0);
  EXPECT_EQ(hi, 0);
  std::tie(lo, hi) = reachable_arms(Interval::of(10, 50), 3);
  EXPECT_EQ(lo, 2);
  EXPECT_EQ(hi, 2);
  // A NaN selector may pick any arm.
  Interval sel = Interval::point(1);
  sel.maybe_nan = true;
  std::tie(lo, hi) = reachable_arms(sel, 3);
  EXPECT_EQ(lo, 0);
  EXPECT_EQ(hi, 2);
}

// --- Usage maps ------------------------------------------------------------

TEST(Usage, ChoiceCountsSelectorAndReferencedLeaves) {
  const Sketch& s = swan_form_sketch();
  const auto metrics = used_metrics(*s.body(), s.metrics().size());
  const auto holes = used_holes(*s.body(), s.holes().size());
  for (bool u : metrics) EXPECT_TRUE(u);
  for (bool u : holes) EXPECT_TRUE(u);

  // An expression reading only metric 1 and hole 0 (as a choice selector).
  const ExprPtr e = choice(0, {constant(1), constant(2), metric(1)});
  const auto m2 = used_metrics(*e, 3);
  EXPECT_EQ(m2, (std::vector<bool>{false, true, false}));
  const auto h2 = used_holes(*e, 2);
  EXPECT_EQ(h2, (std::vector<bool>{true, false}));
}

// --- Whole-sketch analysis -------------------------------------------------

TEST(Analyze, LibrarySketchesAreCleanAndBounded) {
  for (const Sketch* s :
       {&swan_sketch(), &swan_form_sketch(), &abr_qoe_sketch(),
        &homenet_sketch()}) {
    const AnalysisResult r = analyze(*s);
    EXPECT_TRUE(r.well_typed) << s->name();
    EXPECT_FALSE(has_errors(r.diagnostics)) << s->name();
    EXPECT_FALSE(r.output.maybe_nan) << s->name();
    EXPECT_FALSE(r.output.maybe_error) << s->name();
    EXPECT_TRUE(r.output.finite()) << s->name();
  }
}

TEST(Analyze, SwanOutputIntervalAdmitsSampledEvals) {
  const Sketch& s = swan_sketch();
  const AnalysisResult r = analyze(s);
  std::mt19937 rng(7);
  std::vector<double> metrics(s.metrics().size());
  std::vector<double> holes(s.holes().size());
  for (int trial = 0; trial < 200; ++trial) {
    for (std::size_t m = 0; m < metrics.size(); ++m) {
      std::uniform_real_distribution<double> d(s.metrics()[m].lo,
                                               s.metrics()[m].hi);
      metrics[m] = d(rng);
    }
    for (std::size_t h = 0; h < holes.size(); ++h) {
      std::uniform_int_distribution<std::int64_t> d(0, s.holes()[h].count - 1);
      holes[h] = s.holes()[h].value_at(d(rng));
    }
    const double v = eval_with_values(s, holes, metrics);
    EXPECT_TRUE(r.output.admits(v)) << v;
  }
}

// --- Lint diagnostics ------------------------------------------------------

AnalysisResult lint(std::string_view source) {
  const RawSketch raw = parse_sketch_raw(source);
  return analyze_expr(*raw.body, raw.metrics, raw.holes);
}

bool emits(const AnalysisResult& r, DiagCode code) {
  for (const Diagnostic& d : r.diagnostics) {
    if (d.code == code) return true;
  }
  return false;
}

TEST(Lint, DivisionHazards) {
  const auto r = lint("sketch s(x in [1, 2]) { x / 0 }");
  EXPECT_TRUE(emits(r, DiagCode::kDivisionByZero));
  EXPECT_TRUE(has_errors(r.diagnostics));
  const auto w = lint("sketch s(x in [1, 2], y in [-1, 1]) { x / y }");
  EXPECT_TRUE(emits(w, DiagCode::kDivisionByZero));
  EXPECT_FALSE(has_errors(w.diagnostics));  // range hazard is a warning
}

TEST(Lint, ChooseShapeProblems) {
  const auto dead = lint(
      "sketch s(x in [0, 1]) { hole f in grid(0, 1, 2);"
      " choose f { x, 2*x, 3*x } }");
  EXPECT_TRUE(emits(dead, DiagCode::kDeadChooseArm));

  const auto gap = lint(
      "sketch s(x in [0, 1]) { hole f in grid(0, 1, 4);"
      " choose f { x, 2*x } }");
  EXPECT_TRUE(emits(gap, DiagCode::kSelectorGap));

  const auto noncanon = lint(
      "sketch s(x in [0, 1]) { hole f in grid(1, 2, 2);"
      " choose f { x, 2*x } }");
  EXPECT_TRUE(emits(noncanon, DiagCode::kNonCanonicalSelector));

  const auto overlap = lint(
      "sketch s(x in [0, 1]) { hole f in grid(0, 1, 2);"
      " choose f { x + 1, x + 1 } }");
  EXPECT_TRUE(emits(overlap, DiagCode::kOverlappingArms));
}

TEST(Lint, UsageProblems) {
  const auto unused_h = lint(
      "sketch s(x in [0, 1]) { hole a in grid(0, 1, 5);"
      " hole b in grid(0, 1, 5); x + a }");
  EXPECT_TRUE(emits(unused_h, DiagCode::kUnusedHole));

  const auto unused_m = lint("sketch s(x in [0, 1], y in [0, 1]) { x }");
  EXPECT_TRUE(emits(unused_m, DiagCode::kUnusedMetric));

  const auto degen = lint(
      "sketch s(x in [0, 1]) { hole a in grid(3, 1, 1); x + a }");
  EXPECT_TRUE(emits(degen, DiagCode::kDegenerateGrid));
}

TEST(Lint, DeclarationProblems) {
  const auto inverted = lint("sketch s(x in [5, 2]) { x }");
  EXPECT_TRUE(emits(inverted, DiagCode::kTypeError));
  EXPECT_FALSE(inverted.well_typed);

  const auto dup = lint("sketch s(x in [0, 1], x in [0, 2]) { x }");
  EXPECT_TRUE(emits(dup, DiagCode::kTypeError));

  // A nonpositive grid step is rejected by the parser before lint runs;
  // programmatically-built declaration lists still reach the A002 check.
  const std::vector<MetricSpec> ms = {{.name = "x", .lo = 0, .hi = 1}};
  const std::vector<HoleSpec> hs = {
      {.name = "a", .lo = 0, .step = 0, .count = 3}};
  const ExprPtr body = add(metric(0), hole(0));
  const auto badstep = analyze_expr(*body, ms, hs);
  EXPECT_TRUE(emits(badstep, DiagCode::kTypeError));
}

TEST(Lint, ConstFoldableNote) {
  const auto r = lint("sketch s(x in [0, 1]) { x + (2*3 + 1) }");
  EXPECT_TRUE(emits(r, DiagCode::kConstantFoldable));
  EXPECT_FALSE(has_errors(r.diagnostics));
}

TEST(Lint, DiagnosticsCarryPositionsAndRender) {
  const auto r = lint("sketch s(x in [1, 2]) {\n  x / 0\n}");
  ASSERT_FALSE(r.diagnostics.empty());
  const Diagnostic& d = r.diagnostics.front();
  EXPECT_EQ(d.code, DiagCode::kDivisionByZero);
  EXPECT_EQ(d.line, 2u);
  EXPECT_GT(d.column, 0u);
  const std::string text = render(d, "s.sketch");
  EXPECT_NE(text.find("s.sketch:2:"), std::string::npos);
  EXPECT_NE(text.find("A101"), std::string::npos);
}

// --- Property-based soundness ----------------------------------------------
//
// Random well-typed numeric expressions over random boxes: every concrete
// evaluation at a point inside the box must be admitted by eval_interval's
// result, and an EvalError may only occur when maybe_error is set. 120
// expressions x 100 points = 12000 concrete checks.

class RandomExpr {
 public:
  RandomExpr(std::mt19937& rng, std::size_t metric_count,
             std::span<const HoleSpec> holes)
      : rng_(rng), metric_count_(metric_count), holes_(holes) {}

  bool has_div = false;

  ExprPtr numeric(int depth) {
    std::uniform_int_distribution<int> pick(0, depth <= 0 ? 2 : 9);
    switch (pick(rng_)) {
      case 0:
        return constant(random_constant());
      case 1:
        return metric(random_index(metric_count_));
      case 2:
        return hole(random_index(holes_.size()));
      case 3:
        return neg(numeric(depth - 1));
      case 4:
      case 5:
      case 6: {
        std::uniform_int_distribution<int> op(0, 5);
        const auto b = static_cast<BinOp>(op(rng_));
        if (b == BinOp::kDiv) has_div = true;
        return binary(b, numeric(depth - 1), numeric(depth - 1));
      }
      case 7:
      case 8:
        return ite(boolean(depth - 1), numeric(depth - 1), numeric(depth - 1));
      default:
        // Hole 0 is always the canonical 3-way selector grid(0, 1, 3).
        return choice(0, {numeric(depth - 1), numeric(depth - 1),
                          numeric(depth - 1)});
    }
  }

 private:
  ExprPtr boolean(int depth) {
    std::uniform_int_distribution<int> pick(0, depth <= 0 ? 0 : 3);
    switch (pick(rng_)) {
      case 0:
      case 1: {
        std::uniform_int_distribution<int> op(0, 5);
        return compare(static_cast<CmpOp>(op(rng_)), numeric(depth - 1),
                       numeric(depth - 1));
      }
      case 2: {
        std::uniform_int_distribution<int> op(0, 1);
        return bool_binary(static_cast<BoolOp>(op(rng_)), boolean(depth - 1),
                           boolean(depth - 1));
      }
      default:
        return logical_not(boolean(depth - 1));
    }
  }

  double random_constant() {
    // Mix of ordinary values, zero (division bait) and huge magnitudes
    // (overflow bait).
    static constexpr double kPool[] = {0,    1,     -1,    0.5,  -3,
                                       10,   -42,   1e-3,  1e3,  1e155,
                                       -1e155, 7.25, 100,  -0.1, 2};
    std::uniform_int_distribution<std::size_t> d(0, std::size(kPool) - 1);
    return kPool[d(rng_)];
  }

  std::size_t random_index(std::size_t count) {
    std::uniform_int_distribution<std::size_t> d(0, count - 1);
    return d(rng_);
  }

  std::mt19937& rng_;
  std::size_t metric_count_;
  std::span<const HoleSpec> holes_;
};

TEST(Soundness, RandomExpressionsOverRandomBoxes) {
  std::mt19937 rng(20260806);
  const std::vector<HoleSpec> holes = {
      {.name = "sel", .lo = 0, .step = 1, .count = 3},
      {.name = "a", .lo = -5, .step = 0.5, .count = 21},
      {.name = "b", .lo = 0, .step = 100, .count = 11},
  };
  constexpr std::size_t kMetrics = 3;
  constexpr int kExprs = 120;
  constexpr int kPoints = 100;
  long checked = 0;

  for (int t = 0; t < kExprs; ++t) {
    RandomExpr gen(rng, kMetrics, holes);
    const ExprPtr e = gen.numeric(5);

    // A random box: sub-ranges of plausible metric spans plus the full hole
    // grids (what the Z3 objective bounds cover) on even trials, random hole
    // sub-ranges on odd trials.
    Box box;
    for (std::size_t m = 0; m < kMetrics; ++m) {
      std::uniform_real_distribution<double> d(-1e3, 1e3);
      box.metrics.push_back(Interval::of(d(rng), d(rng)));
    }
    for (const HoleSpec& h : holes) {
      if (t % 2 == 0) {
        box.holes.push_back(grid_interval(h));
      } else {
        std::uniform_int_distribution<std::int64_t> d(0, h.count - 1);
        box.holes.push_back(grid_interval(h, d(rng), d(rng)));
      }
    }

    const Interval iv = eval_interval(*e, box);
    if (!gen.has_div) {
      EXPECT_FALSE(iv.maybe_error);  // division is the only EvalError source
    }

    std::vector<double> metrics(kMetrics);
    std::vector<double> hole_values(holes.size());
    for (int p = 0; p < kPoints; ++p) {
      for (std::size_t m = 0; m < kMetrics; ++m) {
        std::uniform_real_distribution<double> d(box.metrics[m].lo,
                                                 box.metrics[m].hi);
        metrics[m] = d(rng);
      }
      for (std::size_t h = 0; h < holes.size(); ++h) {
        std::uniform_real_distribution<double> d(box.holes[h].lo,
                                                 box.holes[h].hi);
        hole_values[h] = d(rng);
      }
      ++checked;
      try {
        const double v = eval_numeric(*e, metrics, hole_values);
        EXPECT_TRUE(iv.admits(v))
            << "escape: value " << v << " not in [" << iv.lo << ", " << iv.hi
            << "] nan=" << iv.maybe_nan << " expr trial " << t;
        if (HasFailure()) return;
      } catch (const EvalError&) {
        EXPECT_TRUE(iv.maybe_error) << "unflagged EvalError, trial " << t;
        if (HasFailure()) return;
      }
    }
  }
  EXPECT_GE(checked, 10000);
}

}  // namespace
}  // namespace compsynth::sketch
