#include "sketch/compile.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string_view>

#include "sketch/batch_kernel.h"

namespace compsynth::sketch {

namespace {

constexpr const char* kNumericPositionError =
    "eval_numeric: boolean node in numeric position";
constexpr const char* kBoolPositionError =
    "eval_bool: numeric node in boolean position";

// --- Constant folding --------------------------------------------------------
//
// Replaces a subtree with the exact double the interpreter would produce for
// it. Only total subtrees fold: any metric, hole, ill-typed node or
// constant division by zero in a subtree blocks folding of every ancestor,
// so folding never turns a throwing evaluation into a value (or vice versa).

bool is_const(const ExprPtr& e) { return e->kind == Expr::Kind::kConst; }
bool is_bool_const(const ExprPtr& e) { return e->kind == Expr::Kind::kBoolConst; }

ExprPtr fold(const ExprPtr& e) {
  if (e->children.empty()) return e;
  std::vector<ExprPtr> kids;
  kids.reserve(e->children.size());
  bool changed = false;
  for (const ExprPtr& c : e->children) {
    kids.push_back(fold(c));
    changed |= kids.back() != c;
  }

  switch (e->kind) {
    case Expr::Kind::kNeg:
      if (is_const(kids[0])) return constant(-kids[0]->literal);
      break;
    case Expr::Kind::kBinary:
      if (is_const(kids[0]) && is_const(kids[1])) {
        const double a = kids[0]->literal;
        const double b = kids[1]->literal;
        switch (e->bin_op) {
          case BinOp::kAdd: return constant(a + b);
          case BinOp::kSub: return constant(a - b);
          case BinOp::kMul: return constant(a * b);
          case BinOp::kDiv:
            if (b != 0) return constant(a / b);
            break;  // constant division by zero: keep the runtime throw
          case BinOp::kMin: return constant(std::min(a, b));
          case BinOp::kMax: return constant(std::max(a, b));
        }
      }
      break;
    case Expr::Kind::kIte:
      // A constant condition selects its branch at compile time; the tree
      // interpreter would likewise never look at the other branch.
      if (is_bool_const(kids[0])) {
        return kids[0]->literal != 0 ? kids[1] : kids[2];
      }
      break;
    case Expr::Kind::kCmp:
      if (is_const(kids[0]) && is_const(kids[1])) {
        const double a = kids[0]->literal;
        const double b = kids[1]->literal;
        switch (e->cmp_op) {
          case CmpOp::kLt: return bool_constant(a < b);
          case CmpOp::kLe: return bool_constant(a <= b);
          case CmpOp::kGt: return bool_constant(a > b);
          case CmpOp::kGe: return bool_constant(a >= b);
          case CmpOp::kEq: return bool_constant(a == b);
          case CmpOp::kNe: return bool_constant(a != b);
        }
      }
      break;
    case Expr::Kind::kBoolBinary:
      // Both operands are evaluated regardless, so folding needs both const.
      if (is_bool_const(kids[0]) && is_bool_const(kids[1])) {
        const bool a = kids[0]->literal != 0;
        const bool b = kids[1]->literal != 0;
        return bool_constant(e->bool_op == BoolOp::kAnd ? (a && b) : (a || b));
      }
      break;
    case Expr::Kind::kNot:
      if (is_bool_const(kids[0])) return bool_constant(kids[0]->literal == 0);
      break;
    case Expr::Kind::kChoice:   // selector is a hole; never foldable
    case Expr::Kind::kConst:
    case Expr::Kind::kMetric:
    case Expr::Kind::kHole:
    case Expr::Kind::kBoolConst:
      break;
  }

  if (!changed) return e;
  Expr copy = *e;
  copy.children = std::move(kids);
  return std::make_shared<const Expr>(std::move(copy));
}

// --- Batch lowering ----------------------------------------------------------
//
// Emits the structured (jump-free) tape batch_kernel.h executes under
// per-lane masks. The traversal follows eval_numeric/eval_bool exactly —
// same type contexts, and a kRaise wherever the interpreter would throw on
// an ill-typed node — so per lane the tape performs the interpreter's
// operation sequence on the interpreter's path.

std::size_t batch_need_numeric(const Expr& e);
std::size_t batch_need_bool(const Expr& e);

std::size_t batch_need_numeric(const Expr& e) {
  switch (e.kind) {
    case Expr::Kind::kConst:
    case Expr::Kind::kMetric:
    case Expr::Kind::kHole:
      return 1;
    case Expr::Kind::kNeg:
      return batch_need_numeric(*e.children[0]);
    case Expr::Kind::kBinary:
      return std::max(batch_need_numeric(*e.children[0]),
                      1 + batch_need_numeric(*e.children[1]));
    case Expr::Kind::kIte:
      // The then-value stays parked on the stack while the else branch
      // evaluates, hence the extra slot.
      return std::max({batch_need_bool(*e.children[0]),
                       batch_need_numeric(*e.children[1]),
                       1 + batch_need_numeric(*e.children[2])});
    case Expr::Kind::kChoice: {
      // Arm 0's value becomes the accumulator; later arms evaluate on top
      // of it and blend in via kChoiceAccum.
      std::size_t deepest = std::max<std::size_t>(
          1, batch_need_numeric(*e.children[0]));
      for (std::size_t i = 1; i < e.children.size(); ++i) {
        deepest = std::max(deepest, 1 + batch_need_numeric(*e.children[i]));
      }
      return deepest;
    }
    case Expr::Kind::kCmp:
    case Expr::Kind::kBoolBinary:
    case Expr::Kind::kNot:
    case Expr::Kind::kBoolConst:
      return 1;  // compiles to kRaise (one placeholder slot)
  }
  return 1;
}

std::size_t batch_need_bool(const Expr& e) {
  switch (e.kind) {
    case Expr::Kind::kBoolConst:
      return 1;
    case Expr::Kind::kCmp:
      return std::max(batch_need_numeric(*e.children[0]),
                      1 + batch_need_numeric(*e.children[1]));
    case Expr::Kind::kBoolBinary:
      return std::max(batch_need_bool(*e.children[0]),
                      1 + batch_need_bool(*e.children[1]));
    case Expr::Kind::kNot:
      return batch_need_bool(*e.children[0]);
    case Expr::Kind::kConst:
    case Expr::Kind::kMetric:
    case Expr::Kind::kHole:
    case Expr::Kind::kNeg:
    case Expr::Kind::kBinary:
    case Expr::Kind::kIte:
    case Expr::Kind::kChoice:
      return 1;  // compiles to kRaise
  }
  return 1;
}

// Upper bound on mask-frame nesting. Type-blind (an ill-typed subtree that
// lowers to kRaise contributes frames it will never use), which only
// over-allocates — the interpreter preallocates this many frames.
std::size_t batch_frames_bound(const Expr& e) {
  std::size_t deepest = 0;
  for (const ExprPtr& c : e.children) {
    deepest = std::max(deepest, batch_frames_bound(*c));
  }
  if (e.kind == Expr::Kind::kIte || e.kind == Expr::Kind::kChoice) {
    return 1 + deepest;
  }
  return deepest;
}

class BatchEmitter {
 public:
  void numeric(const Expr& e) {
    using Op = internal::BatchInstr::Op;
    switch (e.kind) {
      case Expr::Kind::kConst: {
        internal::BatchInstr in{Op::kPushConst};
        in.value = e.literal;
        code.push_back(in);
        return;
      }
      case Expr::Kind::kMetric:
        push_indexed(Op::kPushMetric, e.metric);
        return;
      case Expr::Kind::kHole:
        push_indexed(Op::kPushHole, e.hole);
        return;
      case Expr::Kind::kNeg:
        numeric(*e.children[0]);
        code.push_back(internal::BatchInstr{Op::kNeg});
        return;
      case Expr::Kind::kBinary: {
        numeric(*e.children[0]);
        numeric(*e.children[1]);
        Op op = Op::kAdd;
        switch (e.bin_op) {
          case BinOp::kAdd: op = Op::kAdd; break;
          case BinOp::kSub: op = Op::kSub; break;
          case BinOp::kMul: op = Op::kMul; break;
          case BinOp::kDiv: op = Op::kDiv; break;
          case BinOp::kMin: op = Op::kMin; break;
          case BinOp::kMax: op = Op::kMax; break;
        }
        code.push_back(internal::BatchInstr{op});
        return;
      }
      case Expr::Kind::kIte:
        boolean(*e.children[0]);
        code.push_back(internal::BatchInstr{Op::kIteBegin});
        numeric(*e.children[1]);
        code.push_back(internal::BatchInstr{Op::kIteElse});
        numeric(*e.children[2]);
        code.push_back(internal::BatchInstr{Op::kIteEnd});
        return;
      case Expr::Kind::kChoice: {
        internal::BatchInstr begin{Op::kChoiceBegin};
        begin.a = static_cast<std::int32_t>(e.hole);
        begin.b = static_cast<std::int32_t>(e.children.size());
        code.push_back(begin);
        for (std::size_t i = 0; i < e.children.size(); ++i) {
          internal::BatchInstr arm{Op::kChoiceArm};
          arm.a = static_cast<std::int32_t>(i);
          code.push_back(arm);
          numeric(*e.children[i]);
          if (i > 0) code.push_back(internal::BatchInstr{Op::kChoiceAccum});
        }
        code.push_back(internal::BatchInstr{Op::kChoiceEnd});
        return;
      }
      case Expr::Kind::kCmp:
      case Expr::Kind::kBoolBinary:
      case Expr::Kind::kNot:
      case Expr::Kind::kBoolConst:
        raise(/*numeric_position=*/true);
        return;
    }
  }

  void boolean(const Expr& e) {
    using Op = internal::BatchInstr::Op;
    switch (e.kind) {
      case Expr::Kind::kBoolConst: {
        internal::BatchInstr in{Op::kPushConst};
        in.value = e.literal != 0 ? 1.0 : 0.0;
        code.push_back(in);
        return;
      }
      case Expr::Kind::kCmp: {
        numeric(*e.children[0]);
        numeric(*e.children[1]);
        Op op = Op::kLt;
        switch (e.cmp_op) {
          case CmpOp::kLt: op = Op::kLt; break;
          case CmpOp::kLe: op = Op::kLe; break;
          case CmpOp::kGt: op = Op::kGt; break;
          case CmpOp::kGe: op = Op::kGe; break;
          case CmpOp::kEq: op = Op::kEq; break;
          case CmpOp::kNe: op = Op::kNe; break;
        }
        code.push_back(internal::BatchInstr{op});
        return;
      }
      case Expr::Kind::kBoolBinary:
        boolean(*e.children[0]);
        boolean(*e.children[1]);
        code.push_back(internal::BatchInstr{
            e.bool_op == BoolOp::kAnd ? Op::kAnd : Op::kOr});
        return;
      case Expr::Kind::kNot:
        boolean(*e.children[0]);
        code.push_back(internal::BatchInstr{Op::kNot});
        return;
      case Expr::Kind::kConst:
      case Expr::Kind::kMetric:
      case Expr::Kind::kHole:
      case Expr::Kind::kNeg:
      case Expr::Kind::kBinary:
      case Expr::Kind::kIte:
      case Expr::Kind::kChoice:
        raise(/*numeric_position=*/false);
        return;
    }
  }

  std::vector<internal::BatchInstr> code;

 private:
  void push_indexed(internal::BatchInstr::Op op, std::size_t id) {
    internal::BatchInstr in{op};
    in.a = static_cast<std::int32_t>(id);
    code.push_back(in);
  }

  void raise(bool numeric_position) {
    internal::BatchInstr in{internal::BatchInstr::Op::kRaise};
    in.a = numeric_position ? 0 : 1;
    code.push_back(in);
  }
};

// --- Lane-ISA dispatch -------------------------------------------------------

LaneIsa detect_lane_isa() {
  if (const char* env = std::getenv("COMPSYNTH_LANE_ISA")) {
    const std::string_view want(env);
    if (want == "scalar") return LaneIsa::kScalar;
    if (want == "avx2") {
      return lane_isa_supported(LaneIsa::kAvx2) ? LaneIsa::kAvx2
                                                : LaneIsa::kScalar;
    }
    // "auto" or anything unrecognized falls through to detection.
  }
  return lane_isa_supported(LaneIsa::kAvx2) ? LaneIsa::kAvx2
                                            : LaneIsa::kScalar;
}

std::atomic<std::uint8_t>& lane_isa_cell() {
  static std::atomic<std::uint8_t> cell{
      static_cast<std::uint8_t>(detect_lane_isa())};
  return cell;
}

}  // namespace

// --- BatchTape ---------------------------------------------------------------

namespace internal {

void run_batch_scalar(const BatchProgram& p, const double* metrics,
                      const double* holes, double* out, LaneError* err) {
  run_batch<ScalarLanes>(p, metrics, holes, out, err);
}

unsigned lane_gt_bits_scalar(const double* a, const double* b) {
  return run_gt_bits<ScalarLanes>(a, b);
}

unsigned lane_abs_diff_gt_bits_scalar(const double* a, const double* b,
                                      double bound) {
  return run_abs_diff_gt_bits<ScalarLanes>(a, b, bound);
}

}  // namespace internal

unsigned lane_gt_bits(const double* a, const double* b) {
#if defined(COMPSYNTH_HAVE_AVX2)
  if (active_lane_isa() == LaneIsa::kAvx2) {
    return internal::lane_gt_bits_avx2(a, b);
  }
#endif
  return internal::lane_gt_bits_scalar(a, b);
}

unsigned lane_abs_diff_gt_bits(const double* a, const double* b, double bound) {
#if defined(COMPSYNTH_HAVE_AVX2)
  if (active_lane_isa() == LaneIsa::kAvx2) {
    return internal::lane_abs_diff_gt_bits_avx2(a, b, bound);
  }
#endif
  return internal::lane_abs_diff_gt_bits_scalar(a, b, bound);
}

const char* lane_isa_name(LaneIsa isa) {
  switch (isa) {
    case LaneIsa::kScalar: return "scalar";
    case LaneIsa::kAvx2: return "avx2";
  }
  return "unknown";
}

bool lane_isa_supported(LaneIsa isa) {
  switch (isa) {
    case LaneIsa::kScalar:
      return true;
    case LaneIsa::kAvx2:
#if defined(COMPSYNTH_HAVE_AVX2) && defined(__GNUC__)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
  }
  return false;
}

LaneIsa active_lane_isa() {
  return static_cast<LaneIsa>(lane_isa_cell().load(std::memory_order_relaxed));
}

bool set_active_lane_isa(LaneIsa isa) {
  if (!lane_isa_supported(isa)) return false;
  lane_isa_cell().store(static_cast<std::uint8_t>(isa),
                        std::memory_order_relaxed);
  return true;
}

const char* lane_error_message(LaneError err) {
  switch (err) {
    case LaneError::kNone: return nullptr;
    case LaneError::kDivZero: return "division by zero";
    case LaneError::kRaiseNumeric: return kNumericPositionError;
    case LaneError::kRaiseBool: return kBoolPositionError;
  }
  return nullptr;
}

void throw_lane_error(LaneError err) {
  const char* message = lane_error_message(err);
  throw EvalError(message != nullptr ? message : "lane error");
}

BatchTape::BatchTape(const Sketch& sketch)
    : BatchTape(*sketch.body(), sketch.metrics().size(),
                sketch.holes().size()) {}

BatchTape::BatchTape(const Expr& body, std::size_t metric_count,
                     std::size_t hole_count)
    : program_(std::make_unique<internal::BatchProgram>()) {
  const ExprPtr folded = fold(std::make_shared<const Expr>(body));
  BatchEmitter emitter;
  emitter.numeric(*folded);
  program_->code = std::move(emitter.code);
  program_->metric_count = metric_count;
  program_->hole_count = hole_count;
  program_->max_stack = batch_need_numeric(*folded);
  program_->max_frames = batch_frames_bound(*folded);
}

BatchTape::BatchTape(BatchTape&&) noexcept = default;
BatchTape& BatchTape::operator=(BatchTape&&) noexcept = default;
BatchTape::~BatchTape() = default;

std::size_t BatchTape::metric_count() const { return program_->metric_count; }
std::size_t BatchTape::hole_count() const { return program_->hole_count; }
std::size_t BatchTape::op_count() const { return program_->code.size(); }
std::size_t BatchTape::max_stack() const { return program_->max_stack; }
std::size_t BatchTape::max_mask_depth() const { return program_->max_frames; }

void BatchTape::eval_lanes(std::span<const double> metrics,
                           std::span<const double> holes_lanes, double* out,
                           LaneError* err) const {
  if (metrics.size() != program_->metric_count) {
    throw EvalError("eval: scenario arity does not match sketch metrics");
  }
  if (holes_lanes.size() != program_->hole_count * kLaneWidth) {
    throw EvalError("eval: hole values arity does not match sketch holes");
  }
#if defined(COMPSYNTH_HAVE_AVX2)
  if (active_lane_isa() == LaneIsa::kAvx2) {
    internal::run_batch_avx2(*program_, metrics.data(), holes_lanes.data(),
                             out, err);
    return;
  }
#endif
  internal::run_batch_scalar(*program_, metrics.data(), holes_lanes.data(),
                             out, err);
}

}  // namespace compsynth::sketch
