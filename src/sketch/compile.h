// Compiled evaluator for sketch expressions: the lane tape.
//
// Lowers a (type-checked) Expr tree once into a structured masked tape,
// sketch::BatchTape, that evaluates kBatchLaneWidth candidates against one
// scenario per call, candidates stored structure-of-arrays. Every bulk
// evaluation in GridFinder runs it: version-space sync (8 candidates per
// pass), distinguishing-pair search (the two candidates of a pair in one
// pass) and bisection scoring (8 survivors per pass). eval.h remains the
// reference semantics, and tests/compile_test.cpp cross-checks the two on
// every library sketch plus fuzzer-generated ASTs (including error paths).
//
// Semantics per lane are bit-for-bit those of eval_numeric/eval_bool:
//   * kIte evaluates the condition and then ONLY the taken branch; kChoice
//     evaluates only the selected alternative (selector rounded with
//     std::llround and clamped to [0, N-1]). Branches run as masked regions,
//     so a division by zero in an untaken branch poisons nothing.
//   * Division by zero poisons the lane with LaneError::kDivZero when
//     reached; throw_lane_error turns it into EvalError("division by zero").
//   * Ill-typed nodes (boolean in numeric position or vice versa) lower to
//     kRaise instructions that poison the lane with the interpreter's exact
//     message when — and only when — execution reaches them; compilation
//     itself never throws on ill-typed input.
//   * && / || evaluate both operands (no short-circuit), like the tree
//     interpreter and the Z3 encoding.
// Constant folding only replaces a subtree with the double the interpreter
// would have produced for it (and never folds a division whose divisor folds
// to zero), so folded and unfolded tapes agree bit-for-bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "sketch/ast.h"
#include "sketch/eval.h"

namespace compsynth::sketch {

namespace internal {
struct BatchProgram;
}  // namespace internal

/// Number of candidates a BatchTape evaluates per call. Fixed at 8 on every
/// back-end (AVX2 uses two 4-wide registers, the scalar fallback plain
/// 8-element loops) so batch shapes, survivor grouping and serialized state
/// are identical regardless of which ISA the dispatcher selects.
inline constexpr std::size_t kBatchLaneWidth = 8;

/// Lane kernels the runtime dispatcher can select between.
enum class LaneIsa : std::uint8_t {
  kScalar = 0,  // portable fallback, always available
  kAvx2 = 1,    // x86-64 AVX2, built only when the toolchain supports -mavx2
};

/// Stable lower-case name ("scalar" / "avx2") for traces and benches.
const char* lane_isa_name(LaneIsa isa);

/// True when `isa` can run on this build and host (kScalar always can).
bool lane_isa_supported(LaneIsa isa);

/// The kernel BatchTape::eval_lanes currently dispatches to. Selected once
/// at startup: COMPSYNTH_LANE_ISA=scalar|avx2|auto overrides auto-detection
/// (an unsupported request falls back to scalar).
LaneIsa active_lane_isa();

/// Overrides the dispatched kernel; returns false (and changes nothing) if
/// `isa` is unsupported. For benches and tests that must measure both paths
/// in one process — production code relies on the startup selection.
bool set_active_lane_isa(LaneIsa isa);

/// Per-lane evaluation outcome. A lane with any code but kNone took a
/// raising path: its output value is meaningless and the scalar interpreter
/// would have thrown the corresponding EvalError for that candidate.
enum class LaneError : std::uint8_t {
  kNone = 0,
  kDivZero = 1,       // EvalError("division by zero")
  kRaiseNumeric = 2,  // boolean node in numeric position
  kRaiseBool = 3,     // numeric node in boolean position
};

/// The exact EvalError message the scalar interpreter uses for `err`
/// (nullptr for kNone).
const char* lane_error_message(LaneError err);

/// Throws the EvalError the scalar interpreter would have thrown for `err`.
[[noreturn]] void throw_lane_error(LaneError err);

/// A sketch body lowered once into a structured masked tape that evaluates
/// kLaneWidth candidates against one scenario per call, candidates stored
/// structure-of-arrays. Semantics per lane are bit-for-bit those of the tree
/// interpreter, including lazy kIte/kChoice (masked regions) and
/// reachable-only errors, which surface as per-lane poison codes instead of
/// exceptions so one raising candidate cannot abort its batch siblings.
///
/// Immutable after construction; eval_lanes is const and safe to call
/// concurrently from many threads (each call uses its own stacks).
class BatchTape {
 public:
  static constexpr std::size_t kLaneWidth = kBatchLaneWidth;

  explicit BatchTape(const Sketch& sketch);

  /// Compiles a bare numeric expression over `metric_count` metrics and
  /// `hole_count` holes — the tree need not be well-typed (ill-typed nodes
  /// become per-lane poison at run time). Used by the differential tests.
  BatchTape(const Expr& body, std::size_t metric_count,
            std::size_t hole_count);

  BatchTape(BatchTape&&) noexcept;
  BatchTape& operator=(BatchTape&&) noexcept;
  ~BatchTape();

  /// Evaluates kLaneWidth candidates against one scenario.
  ///   metrics      — metric_count doubles (one scenario)
  ///   holes_lanes  — hole_count x kLaneWidth doubles, SoA: hole h of lane l
  ///                  at holes_lanes[h * kLaneWidth + l]
  ///   out, err     — kLaneWidth results / per-lane error codes; out[l] is
  ///                  meaningful only when err[l] == LaneError::kNone
  /// Fewer than kLaneWidth real candidates? Pad the spare lanes with any
  /// in-domain values (e.g. a copy of the last real candidate) and ignore
  /// their outputs. Throws EvalError only for arity mismatches.
  void eval_lanes(std::span<const double> metrics,
                  std::span<const double> holes_lanes, double* out,
                  LaneError* err) const;

  std::size_t metric_count() const;
  std::size_t hole_count() const;

  /// Introspection for tests and diagnostics.
  std::size_t op_count() const;
  std::size_t max_stack() const;       // value-stack bound, in lane vectors
  std::size_t max_mask_depth() const;  // mask-frame nesting bound

 private:
  std::unique_ptr<internal::BatchProgram> program_;
};

/// Vectorized lane-compare reductions for the batch survivor loops, dispatched
/// exactly like BatchTape::eval_lanes (scalar / AVX2, per active_lane_isa()).
/// Both take kBatchLaneWidth-element arrays and return a bitmask with bit l
/// set when lane l satisfies the predicate; NaN operands compare false in
/// both, matching the scalar consistency checks `a > b` and
/// `std::abs(a - b) > bound`.
unsigned lane_gt_bits(const double* a, const double* b);
unsigned lane_abs_diff_gt_bits(const double* a, const double* b, double bound);

}  // namespace compsynth::sketch
