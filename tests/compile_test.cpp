// Differential tests for the compiled sketch evaluator (sketch/compile.h),
// the lane tape sketch::BatchTape: every lane must agree with the tree
// interpreter bit-for-bit — values, division-by-zero and ill-typed-node
// errors, kChoice clamping, laziness of untaken branches — under every lane
// ISA the host supports, on every library sketch and on fuzzer-generated
// ASTs (in the spirit of the klee-mc ExprXChkBuilder oracle pattern, where a
// fast builder is cross-checked against a reference builder on every query).
// Candidates are staged in the two shapes GridFinder uses: a pair (lane 0 =
// a, the other lanes = b) for pair search, and up to 8 distinct candidates
// for sync and bisection scoring. GridFinder's use of the tape is checked
// against brute-force references in tests/grid_reference_test.cpp.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "sketch/compile.h"
#include "sketch/eval.h"
#include "sketch/library.h"
#include "sketch/parser.h"
#include "sketch/printer.h"
#include "util/rng.h"

namespace compsynth::sketch {
namespace {

// Bitwise double equality: NaN == NaN, +0.0 != -0.0. The lane tape runs the
// same double operations in the same order as the interpreter, so anything
// weaker than this would mask a real divergence.
bool bit_equal(double a, double b) {
  std::uint64_t ba = 0, bb = 0;
  std::memcpy(&ba, &a, sizeof(a));
  std::memcpy(&bb, &b, sizeof(b));
  return ba == bb;
}

// Restores the dispatched lane kernel when a test that forces ISAs exits.
struct IsaRestore {
  LaneIsa saved = active_lane_isa();
  ~IsaRestore() { set_active_lane_isa(saved); }
};

std::vector<LaneIsa> supported_isas() {
  std::vector<LaneIsa> isas{LaneIsa::kScalar};
  if (lane_isa_supported(LaneIsa::kAvx2)) isas.push_back(LaneIsa::kAvx2);
  return isas;
}

// SoA staging with the documented pad rule: spare lanes copy the last real
// candidate and their outputs are ignored.
std::vector<double> stage(const std::vector<std::vector<double>>& lanes,
                          std::size_t n_holes) {
  constexpr std::size_t W = BatchTape::kLaneWidth;
  std::vector<double> soa(n_holes * W);
  for (std::size_t l = 0; l < W; ++l) {
    const auto& src = lanes[std::min(l, lanes.size() - 1)];
    for (std::size_t h = 0; h < n_holes; ++h) soa[h * W + l] = src[h];
  }
  return soa;
}

// Per-lane differential oracle (docs/EVALUATOR.md): up to kBatchLaneWidth
// candidates evaluated under EVERY supported lane ISA, each real lane
// required to reproduce the tree interpreter's outcome for its candidate
// exactly — bitwise value or the identical EvalError message, with raising
// lanes poisoning only themselves.
void expect_lanes_equivalent(const Expr& body, const BatchTape& tape,
                             std::span<const double> metrics,
                             const std::vector<std::vector<double>>& lanes,
                             const std::string& context) {
  constexpr std::size_t W = BatchTape::kLaneWidth;
  ASSERT_FALSE(lanes.empty());
  ASSERT_LE(lanes.size(), W);
  for (const auto& lane : lanes) {
    ASSERT_EQ(lane.size(), tape.hole_count()) << context;
  }
  const std::vector<double> soa = stage(lanes, tape.hole_count());

  IsaRestore restore;
  for (const LaneIsa isa : supported_isas()) {
    ASSERT_TRUE(set_active_lane_isa(isa));
    std::array<double, W> out{};
    std::array<LaneError, W> err{};
    tape.eval_lanes(metrics, soa, out.data(), err.data());
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      const std::string where = context + " [isa " + lane_isa_name(isa) +
                                ", lane " + std::to_string(l) + "]";
      bool tree_threw = false;
      std::string tree_err;
      double tree_val = 0;
      try {
        tree_val = eval_numeric(body, metrics, lanes[l]);
      } catch (const EvalError& e) {
        tree_threw = true;
        tree_err = e.what();
      }
      if (tree_threw) {
        ASSERT_NE(err[l], LaneError::kNone) << where;
        EXPECT_EQ(std::string(lane_error_message(err[l])), tree_err) << where;
      } else {
        ASSERT_EQ(err[l], LaneError::kNone) << where;
        EXPECT_TRUE(bit_equal(out[l], tree_val))
            << where << "\n tree: " << tree_val << "\n lane: " << out[l];
      }
    }
  }
}

// One candidate through the dispatched kernel (staged in every lane), as a
// value or the EvalError the interpreter would throw for it.
double eval_one(const BatchTape& tape, std::span<const double> metrics,
                const std::vector<double>& holes) {
  constexpr std::size_t W = BatchTape::kLaneWidth;
  std::array<double, W> out{};
  std::array<LaneError, W> err{};
  tape.eval_lanes(metrics, stage({holes}, holes.size()), out.data(),
                  err.data());
  if (err[0] != LaneError::kNone) throw_lane_error(err[0]);
  return out[0];
}

// --- Library sketches --------------------------------------------------------

const Sketch& library_sketch(int which) {
  switch (which) {
    case 0: return swan_sketch();
    case 1: return swan_multi_region_sketch();
    case 2: return swan_form_sketch();
    case 3: return swan_fair_sketch();
    case 4: return swan_priority_sketch();
    case 5: return abr_qoe_sketch();
    default: return homenet_sketch();
  }
}

std::vector<double> random_holes(const Sketch& sk, util::Rng& rng) {
  HoleAssignment a;
  for (const auto& h : sk.holes()) {
    a.index.push_back(rng.uniform_int(0, h.count - 1));
  }
  return sk.hole_values(a);
}

class LibrarySketchCompile : public ::testing::TestWithParam<int> {};

TEST_P(LibrarySketchCompile, MatchesTreeInterpreterEverywhere) {
  const Sketch& sk = library_sketch(GetParam());
  const BatchTape tape(sk);
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 11);

  for (int probe = 0; probe < 300; ++probe) {
    std::vector<std::vector<double>> lanes;
    for (std::size_t l = 0; l < BatchTape::kLaneWidth; ++l) {
      lanes.push_back(random_holes(sk, rng));
    }
    std::vector<double> point;
    for (const auto& m : sk.metrics()) {
      // Mix interior points with the boundary values where piecewise
      // objectives switch regions.
      point.push_back(rng.bernoulli(0.25) ? (rng.bernoulli(0.5) ? m.lo : m.hi)
                                          : rng.uniform_real(m.lo, m.hi));
    }
    expect_lanes_equivalent(*sk.body(), tape, point, lanes, sk.name());
  }
}

TEST_P(LibrarySketchCompile, EvalManyMatchesEvalPerScenario) {
  // Pair search's shape: one candidate pair staged once (lane 0 = a, the
  // other lanes = b), evaluated against many scenarios; both candidates must
  // match eval_with_values at every scenario.
  const Sketch& sk = library_sketch(GetParam());
  const BatchTape tape(sk);
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 24593 + 29);
  const std::vector<std::vector<double>> pair{random_holes(sk, rng),
                                              random_holes(sk, rng)};
  const std::vector<double> soa = stage(pair, sk.holes().size());

  IsaRestore restore;
  for (const LaneIsa isa : supported_isas()) {
    ASSERT_TRUE(set_active_lane_isa(isa));
    for (int i = 0; i < 64; ++i) {
      std::vector<double> point;
      for (const auto& m : sk.metrics()) {
        point.push_back(rng.uniform_real(m.lo, m.hi));
      }
      std::array<double, BatchTape::kLaneWidth> out{};
      std::array<LaneError, BatchTape::kLaneWidth> err{};
      tape.eval_lanes(point, soa, out.data(), err.data());
      for (std::size_t l = 0; l < 2; ++l) {
        ASSERT_EQ(err[l], LaneError::kNone);
        EXPECT_TRUE(bit_equal(out[l], eval_with_values(sk, pair[l], point)))
            << sk.name() << " [isa " << lane_isa_name(isa) << ", scenario "
            << i << ", lane " << l << "]";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllLibrarySketches, LibrarySketchCompile,
                         ::testing::Range(0, 7));

// --- Targeted semantics ------------------------------------------------------

TEST(BatchTape, DivisionByZeroRaisesLikeInterpreter) {
  const Sketch sk = parse_sketch(
      "sketch s(m in [0, 10]) { 1 / m }");
  const BatchTape tape(sk);
  const std::vector<double> holes;
  try {
    eval_one(tape, std::vector<double>{0.0}, holes);
    ADD_FAILURE() << "1 / 0 did not raise";
  } catch (const EvalError& e) {
    EXPECT_STREQ(e.what(), "division by zero");
  }
  EXPECT_TRUE(bit_equal(eval_one(tape, std::vector<double>{2.0}, holes), 0.5));
}

TEST(BatchTape, UntakenBranchesAreNotEvaluated) {
  // The tree interpreter only evaluates the taken Ite branch; a division by
  // zero hiding in the other branch must not poison the lane either.
  const Sketch sk = parse_sketch(
      "sketch s(m in [0, 10]) { if m > 0 then 1 / m else -1 }");
  const BatchTape tape(sk);
  const std::vector<double> holes;
  EXPECT_TRUE(bit_equal(eval_one(tape, std::vector<double>{0.0}, holes), -1.0));
  EXPECT_TRUE(bit_equal(eval_one(tape, std::vector<double>{4.0}, holes), 0.25));
  for (const double m : {0.0, 4.0}) {
    expect_lanes_equivalent(*sk.body(), tape, std::vector<double>{m}, {holes},
                            "untaken branch");
  }
}

TEST(BatchTape, ChoiceClampsAndStaysLazy) {
  // Raw tape over: choose h0 { 1/m, 7, m }. Selector values are clamped to
  // [0, 2] exactly like the interpreter, and unselected alternatives are
  // never executed (1/m with m = 0 only raises when alternative 0 is picked).
  const ExprPtr body =
      choice(0, {binary(BinOp::kDiv, constant(1), metric(0)), constant(7),
                 metric(0)});
  const BatchTape tape(*body, /*metric_count=*/1, /*hole_count=*/1);
  const std::vector<double> m0{0.0};
  for (const double sel : {-3.0, -0.4, 0.0}) {
    SCOPED_TRACE(sel);
    EXPECT_THROW(eval_one(tape, m0, {sel}), EvalError);
  }
  for (const double sel : {1.0, 1.4}) {
    SCOPED_TRACE(sel);
    EXPECT_TRUE(bit_equal(eval_one(tape, m0, {sel}), 7.0));
  }
  for (const double sel : {2.0, 5.0, 99.0}) {
    SCOPED_TRACE(sel);
    EXPECT_TRUE(bit_equal(eval_one(tape, m0, {sel}), 0.0));
  }
  // Cross-check clamping against the interpreter for a spread of selectors,
  // eight per pass, at a zero and a non-zero divisor.
  std::vector<std::vector<double>> lanes;
  for (double sel = -4.0; sel <= 6.0; sel += 0.25) lanes.push_back({sel});
  for (std::size_t i = 0; i < lanes.size(); i += BatchTape::kLaneWidth) {
    const std::vector<std::vector<double>> group(
        lanes.begin() + static_cast<std::ptrdiff_t>(i),
        lanes.begin() + static_cast<std::ptrdiff_t>(
                            std::min(lanes.size(), i + BatchTape::kLaneWidth)));
    for (const double m : {0.0, 3.0}) {
      expect_lanes_equivalent(*body, tape, std::vector<double>{m}, group,
                              "choice selector");
    }
  }
}

TEST(BatchTape, ArityErrorsMatchEvalWithValues) {
  const Sketch& sk = swan_sketch();
  const BatchTape tape(sk);
  const std::vector<double> good_holes = sk.hole_values(swan_target());
  const std::vector<double> good_point{5.0, 50.0};

  const auto message_of = [](auto&& fn) -> std::string {
    try {
      fn();
    } catch (const EvalError& e) {
      return e.what();
    }
    return "";
  };
  const std::vector<double> short_point{5.0};
  const std::vector<double> short_holes{1.0};
  const std::string short_point_msg =
      message_of([&] { eval_one(tape, short_point, good_holes); });
  EXPECT_FALSE(short_point_msg.empty());
  EXPECT_EQ(short_point_msg,
            message_of([&] { eval_with_values(sk, good_holes, short_point); }));
  const std::string short_holes_msg =
      message_of([&] { eval_one(tape, good_point, short_holes); });
  EXPECT_FALSE(short_holes_msg.empty());
  EXPECT_EQ(short_holes_msg,
            message_of([&] { eval_with_values(sk, short_holes, good_point); }));
}

TEST(BatchTape, ConstantFoldingShrinksTheTapeWithoutChangingResults) {
  const Sketch folded = parse_sketch(
      "sketch s(m in [0, 10]) { m + (2 * 3 + min(4, 1)) }");
  const BatchTape tape(folded);
  // The whole parenthesized subtree folds to one constant: push m, push 7, add.
  EXPECT_EQ(tape.op_count(), 3u);
  EXPECT_TRUE(bit_equal(eval_one(tape, std::vector<double>{2.0}, {}), 9.0));
  expect_lanes_equivalent(*folded.body(), tape, std::vector<double>{2.5}, {{}},
                          "folded");

  // A constant division by zero must NOT fold: it still raises when reached
  // and still doesn't when the branch is skipped.
  const Sketch guarded = parse_sketch(
      "sketch s(m in [0, 10]) { if m > 5 then 1 / 0 else m }");
  const BatchTape gt(guarded);
  EXPECT_TRUE(bit_equal(eval_one(gt, std::vector<double>{1.0}, {}), 1.0));
  EXPECT_THROW(eval_one(gt, std::vector<double>{6.0}, {}), EvalError);
}

// --- Fuzzing: well-typed sketches -------------------------------------------
//
// Random well-typed expression generator. Unlike the one in fuzz_test.cpp,
// divisors may be arbitrary subexpressions (so division by zero genuinely
// happens at runtime and the throw paths get cross-checked).

class ExprGen {
 public:
  ExprGen(util::Rng& rng, std::size_t metrics, std::size_t holes)
      : rng_(rng), metrics_(metrics), holes_(holes) {}

  ExprPtr numeric(int depth) {
    if (depth <= 0) return leaf();
    switch (rng_.uniform_int(0, 10)) {
      case 0:
      case 1:
        return leaf();
      case 2:
        return neg(numeric(depth - 1));
      case 3:
        return add(numeric(depth - 1), numeric(depth - 1));
      case 4:
        return sub(numeric(depth - 1), numeric(depth - 1));
      case 5:
        return mul(numeric(depth - 1), numeric(depth - 1));
      case 6:
        return binary(rng_.bernoulli(0.5) ? BinOp::kMin : BinOp::kMax,
                      numeric(depth - 1), numeric(depth - 1));
      case 7:
        // Unrestricted divisor: zero can and does happen at runtime.
        return binary(BinOp::kDiv, numeric(depth - 1), numeric(depth - 1));
      case 8:
        return ite(boolean(depth - 1), numeric(depth - 1), numeric(depth - 1));
      default: {
        if (holes_ == 0) return leaf();
        std::vector<ExprPtr> alts{numeric(depth - 1), numeric(depth - 1),
                                  numeric(depth - 1)};
        return choice(0, std::move(alts));
      }
    }
  }

  ExprPtr boolean(int depth) {
    if (depth <= 0) return compare(random_cmp(), leaf(), leaf());
    switch (rng_.uniform_int(0, 3)) {
      case 0:
        return compare(random_cmp(), numeric(depth - 1), numeric(depth - 1));
      case 1:
        return bool_binary(rng_.bernoulli(0.5) ? BoolOp::kAnd : BoolOp::kOr,
                           boolean(depth - 1), boolean(depth - 1));
      case 2:
        return logical_not(boolean(depth - 1));
      default:
        return bool_constant(rng_.bernoulli(0.5));
    }
  }

 protected:
  ExprPtr leaf() {
    const auto kind = rng_.uniform_int(0, 2);
    if (kind == 0 && metrics_ > 0) return metric(rng_.index(metrics_));
    if (kind == 1 && holes_ > 0) return hole(rng_.index(holes_));
    // Small integer grid; includes 0, so constant subtrees can hit the
    // division-by-zero fold guard too.
    return constant(static_cast<double>(rng_.uniform_int(-8, 8)) / 2.0);
  }

  CmpOp random_cmp() {
    switch (rng_.uniform_int(0, 5)) {
      case 0: return CmpOp::kLt;
      case 1: return CmpOp::kLe;
      case 2: return CmpOp::kGt;
      case 3: return CmpOp::kGe;
      case 4: return CmpOp::kEq;
      default: return CmpOp::kNe;
    }
  }

  util::Rng& rng_;
  std::size_t metrics_;
  std::size_t holes_;
};

Sketch random_sketch(util::Rng& rng) {
  std::vector<MetricSpec> metrics;
  const auto n_metrics = static_cast<std::size_t>(rng.uniform_int(1, 3));
  for (std::size_t i = 0; i < n_metrics; ++i) {
    metrics.push_back(MetricSpec{"m" + std::to_string(i), -10, 10});
  }
  std::vector<HoleSpec> holes;
  holes.push_back(HoleSpec{"sel", 0, 1, 3});  // choice selector
  holes.push_back(HoleSpec{"w", -2, 0.5, 9});
  ExprGen gen(rng, n_metrics, holes.size());
  return Sketch("fuzz", std::move(metrics), std::move(holes),
                gen.numeric(/*depth=*/5));
}

// 50 params x 5 sketches x 48 probes = 12,000 (sketch, candidate pair,
// scenario) triples in pair search's lane layout: lane 0 = a, the other lanes
// = b.
class CompiledFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CompiledFuzz, AgreesWithTreeInterpreter) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 12289 + 7);
  for (int round = 0; round < 5; ++round) {
    const Sketch sk = random_sketch(rng);
    const BatchTape tape(sk);
    for (int probe = 0; probe < 48; ++probe) {
      const std::vector<std::vector<double>> pair{random_holes(sk, rng),
                                                  random_holes(sk, rng)};
      std::vector<double> point;
      for (std::size_t m = 0; m < sk.metrics().size(); ++m) {
        // Quarter-integer grid makes zero divisors common.
        point.push_back(static_cast<double>(rng.uniform_int(-12, 12)) / 4.0);
      }
      expect_lanes_equivalent(*sk.body(), tape, point, pair, print_sketch(sk));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, CompiledFuzz, ::testing::Range(0, 50));

// --- Fuzzing: ill-typed trees ------------------------------------------------
//
// The Sketch constructor typechecks, but eval_numeric/eval_bool are defined
// on bare Exprs and throw when an ill-typed node is *reached*. The tape must
// poison a lane with the identical error at the identical points — and stay
// silent when the bad node sits in an untaken branch.

class IllTypedGen : public ExprGen {
 public:
  using ExprGen::ExprGen;

  ExprPtr numeric_maybe_bad(int depth) {
    // ~12% of positions hold a node of the wrong type.
    if (rng_.uniform_int(0, 7) == 0) return boolean_strict(depth - 1);
    if (depth <= 0) return leaf();
    switch (rng_.uniform_int(0, 5)) {
      case 0: return leaf();
      case 1: return neg(numeric_maybe_bad(depth - 1));
      case 2:
        return add(numeric_maybe_bad(depth - 1), numeric_maybe_bad(depth - 1));
      case 3:
        return binary(BinOp::kDiv, numeric_maybe_bad(depth - 1),
                      numeric_maybe_bad(depth - 1));
      case 4:
        return ite(boolean_maybe_bad(depth - 1), numeric_maybe_bad(depth - 1),
                   numeric_maybe_bad(depth - 1));
      default: {
        std::vector<ExprPtr> alts{numeric_maybe_bad(depth - 1),
                                  numeric_maybe_bad(depth - 1),
                                  numeric_maybe_bad(depth - 1)};
        return choice(0, std::move(alts));
      }
    }
  }

  ExprPtr boolean_maybe_bad(int depth) {
    if (rng_.uniform_int(0, 7) == 0) return numeric(std::max(0, depth - 1));
    if (depth <= 0) return compare(random_cmp(), leaf(), leaf());
    switch (rng_.uniform_int(0, 2)) {
      case 0:
        return compare(random_cmp(), numeric_maybe_bad(depth - 1),
                       numeric_maybe_bad(depth - 1));
      case 1:
        return bool_binary(rng_.bernoulli(0.5) ? BoolOp::kAnd : BoolOp::kOr,
                           boolean_maybe_bad(depth - 1),
                           boolean_maybe_bad(depth - 1));
      default:
        return logical_not(boolean_maybe_bad(depth - 1));
    }
  }

 private:
  ExprPtr boolean_strict(int depth) { return boolean(std::max(0, depth)); }
};

// 50 params x 4 trees x 30 probes = 6,000 additional triples exercising the
// error paths, in pair search's lane layout.
class IllTypedFuzz : public ::testing::TestWithParam<int> {};

TEST_P(IllTypedFuzz, ErrorPathsMatchTreeInterpreter) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 49157 + 13);
  constexpr std::size_t kMetrics = 2, kHoles = 2;
  for (int round = 0; round < 4; ++round) {
    IllTypedGen gen(rng, kMetrics, kHoles);
    const ExprPtr body = gen.numeric_maybe_bad(4);
    const BatchTape tape(*body, kMetrics, kHoles);
    for (int probe = 0; probe < 30; ++probe) {
      const std::vector<double> point{
          static_cast<double>(rng.uniform_int(-8, 8)) / 2.0,
          static_cast<double>(rng.uniform_int(-8, 8)) / 2.0};
      std::vector<std::vector<double>> pair;
      for (int c = 0; c < 2; ++c) {
        pair.push_back({static_cast<double>(rng.uniform_int(0, 2)),
                        static_cast<double>(rng.uniform_int(-4, 4)) / 2.0});
      }
      expect_lanes_equivalent(*body, tape, point, pair, "ill-typed fuzz");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, IllTypedFuzz, ::testing::Range(0, 50));

// --- Batched lanes: 8 distinct candidates ------------------------------------
//
// Sync's and bisection scoring's shape: up to kBatchLaneWidth distinct
// candidates per pass, raising lanes poisoning only themselves.

TEST(BatchTape, MixedLaneDivZeroPoisonsOnlyItsLane) {
  // 1 / h: lanes whose hole is zero must poison with the division-by-zero
  // error while their siblings keep bit-exact quotients.
  const ExprPtr body = binary(BinOp::kDiv, constant(1), hole(0));
  const BatchTape tape(*body, /*metric_count=*/0, /*hole_count=*/1);
  std::vector<std::vector<double>> lanes;
  for (const double h : {0.0, 1.0, 2.0, 0.0, 4.0, -2.0, 0.0, 8.0}) {
    lanes.push_back({h});
  }
  expect_lanes_equivalent(*body, tape, {}, lanes, "1/h mixed zeros");
}

TEST(BatchTape, MixedLaneIllTypedRaisePoisonsOnlyItsLane) {
  // A boolean node in numeric position raises only when reached: lanes whose
  // selector routes through the bad branch poison with the exact ill-typed
  // message, siblings keep evaluating the healthy branch.
  const ExprPtr body = ite(compare(CmpOp::kGt, hole(0), constant(0)),
                           bool_constant(true),  // ill-typed when taken
                           metric(0));
  const BatchTape tape(*body, /*metric_count=*/1, /*hole_count=*/1);
  std::vector<std::vector<double>> lanes;
  for (const double h : {1.0, -1.0, 0.0, 3.0, -2.0, 0.5, 0.0, 2.0}) {
    lanes.push_back({h});
  }
  expect_lanes_equivalent(*body, tape, std::vector<double>{42.0}, lanes,
                          "ill-typed branch per lane");
}

TEST(BatchTape, NaNMinMaxAsymmetryPerLane) {
  // std::min/std::max return the FIRST operand when the comparison is false,
  // so a NaN second operand is dropped while a NaN first operand propagates.
  // Every lane must reproduce that asymmetry bitwise, in both operand orders
  // and with the NaN arriving via either the hole or the metric.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::vector<double>> lanes;
  for (const double h : {nan, 1.0, -3.0, nan, 0.0, 7.0, nan, 2.0}) {
    lanes.push_back({h});
  }
  for (const BinOp op : {BinOp::kMin, BinOp::kMax}) {
    for (const bool hole_first : {true, false}) {
      const ExprPtr body = hole_first ? binary(op, hole(0), metric(0))
                                      : binary(op, metric(0), hole(0));
      const BatchTape tape(*body, /*metric_count=*/1, /*hole_count=*/1);
      for (const double m : {nan, 4.0}) {
        expect_lanes_equivalent(*body, tape, std::vector<double>{m}, lanes,
                                "min/max NaN asymmetry");
      }
    }
  }
}

TEST(BatchTape, TailGroupNarrowerThanLaneWidth) {
  // Fewer real candidates than lanes: the pad lanes copy the last real
  // candidate — which here raises — and their outputs are ignored, while the
  // three real lanes (one of them also raising) come back exact.
  const ExprPtr body = binary(BinOp::kDiv, metric(0), hole(0));
  const BatchTape tape(*body, /*metric_count=*/1, /*hole_count=*/1);
  const std::vector<std::vector<double>> lanes{{2.0}, {-4.0}, {0.0}};
  expect_lanes_equivalent(*body, tape, std::vector<double>{6.0}, lanes,
                          "tail group");
}

// 50 params x 3 sketches x 4 groups x 8 lanes of fuzzer-generated candidates
// through every supported lane ISA.
class BatchFuzz : public ::testing::TestWithParam<int> {};

TEST_P(BatchFuzz, LanesAgreeWithTreeInterpreter) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 40961 + 3);
  for (int round = 0; round < 3; ++round) {
    const Sketch sk = random_sketch(rng);
    const BatchTape tape(sk);
    for (int group = 0; group < 4; ++group) {
      std::vector<double> point;
      for (std::size_t m = 0; m < sk.metrics().size(); ++m) {
        // Quarter-integer grid makes zero divisors common.
        point.push_back(static_cast<double>(rng.uniform_int(-12, 12)) / 4.0);
      }
      std::vector<std::vector<double>> lanes;
      for (std::size_t l = 0; l < BatchTape::kLaneWidth; ++l) {
        HoleAssignment a;
        for (const auto& h : sk.holes()) {
          a.index.push_back(rng.uniform_int(0, h.count - 1));
        }
        lanes.push_back(sk.hole_values(a));
      }
      expect_lanes_equivalent(*sk.body(), tape, point, lanes,
                              print_sketch(sk));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, BatchFuzz, ::testing::Range(0, 50));

// Ill-typed trees through the lanes: mixed raising/healthy candidates in one
// group, cross-checked against the tree interpreter's reachable-only errors.
class IllTypedBatchFuzz : public ::testing::TestWithParam<int> {};

TEST_P(IllTypedBatchFuzz, LaneErrorPathsMatchTreeInterpreter) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 65537 + 17);
  constexpr std::size_t kMetrics = 2, kHoles = 2;
  for (int round = 0; round < 3; ++round) {
    IllTypedGen gen(rng, kMetrics, kHoles);
    const ExprPtr body = gen.numeric_maybe_bad(4);
    const BatchTape tape(*body, kMetrics, kHoles);
    for (int group = 0; group < 4; ++group) {
      const std::vector<double> point{
          static_cast<double>(rng.uniform_int(-8, 8)) / 2.0,
          static_cast<double>(rng.uniform_int(-8, 8)) / 2.0};
      std::vector<std::vector<double>> lanes;
      for (std::size_t l = 0; l < BatchTape::kLaneWidth; ++l) {
        lanes.push_back({static_cast<double>(rng.uniform_int(0, 2)),
                         static_cast<double>(rng.uniform_int(-4, 4)) / 2.0});
      }
      expect_lanes_equivalent(*body, tape, point, lanes, "ill-typed lanes");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, IllTypedBatchFuzz, ::testing::Range(0, 50));

}  // namespace
}  // namespace compsynth::sketch
