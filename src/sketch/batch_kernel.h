// Internal batch-evaluation kernel shared by the scalar and AVX2 lane
// back-ends of sketch::BatchTape (see compile.h for the public API and
// docs/EVALUATOR.md for the full specification).
//
// A BatchProgram is a *structured* tape: it has no jumps; control flow is
// expressed as paired region markers
// (kIteBegin/kIteElse/kIteEnd, kChoiceBegin/.../kChoiceEnd) executed under a
// per-lane activity mask. Every lane runs every instruction; masks decide
// which lanes an instruction is *semantically* executing for:
//
//   * Values are W-lane vectors (W = kBatchLaneWidth, fixed at 8 on every
//     back-end so batch shapes are ISA-independent).
//   * Division by zero and kRaise poison only the lanes that are active at
//     that instruction and have no earlier error (first error wins per
//     lane), reproducing the scalar interpreter's reachable-only EvalError
//     semantics. Inactive lanes may compute inf/NaN garbage — IEEE double
//     arithmetic never traps, and blends discard those values.
//   * For any lane, the subsequence of instructions where it is active is
//     exactly the scalar execution order of the path that lane takes, so
//     first-poison-in-tape-order equals first-error-on-path.
//
// The interpreter is templated on a lane policy `L` providing the vector and
// mask types plus elementwise operations with *bit-exact* scalar semantics
// (std::min/std::max NaN and signed-zero asymmetry included). ScalarLanes
// below is the portable fallback; Avx2Lanes lives in batch_avx2.cpp, the
// only TU compiled with -mavx2.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sketch/compile.h"

namespace compsynth::sketch::internal {

/// One structured-tape instruction. Booleans are 1.0 / 0.0 values, exactly
/// as the comparisons produce them.
struct BatchInstr {
  enum class Op : std::uint8_t {
    kPushConst,   // push broadcast(value)
    kPushMetric,  // push broadcast(metrics[a])
    kPushHole,    // push lanes holes[a*W .. a*W+W)
    kNeg,
    kAdd, kSub, kMul,
    kDiv,         // poisons active lanes whose divisor is 0.0
    kMin, kMax,   // std::min / std::max semantics per lane
    kLt, kLe, kGt, kGe, kEq, kNe,  // push 1.0 / 0.0 per lane
    kAnd, kOr,    // both operands already evaluated (no short-circuit)
    kNot,
    kIteBegin,    // pop cond; push frame; active &= truthy(cond)
    kIteElse,     // active = frame.saved & ~cond
    kIteEnd,      // pop else+then values, blend by cond; restore active
    kChoiceBegin, // a = selector hole id, b = alternative count; computes
                  // per-lane clamp(llround(holes[a])) selectors
    kChoiceArm,   // a = arm index; active = frame.saved & (sel == a)
    kChoiceAccum, // pop arm value, blend into the accumulator below it
    kChoiceEnd,   // restore active, pop frame
    kRaise,       // a = 0 numeric-position, 1 bool-position; poisons active
                  // lanes and pushes a 0.0 placeholder slot
  };

  Op op;
  std::int32_t a = 0;  // metric/hole id, arm index, or message id
  std::int32_t b = 0;  // kChoiceBegin: alternative count
  double value = 0;    // kPushConst payload
};

/// A lowered batch program plus the exact stack / mask-frame bounds the
/// interpreter preallocates.
struct BatchProgram {
  std::vector<BatchInstr> code;
  std::size_t metric_count = 0;
  std::size_t hole_count = 0;
  std::size_t max_stack = 0;   // value-stack slots (W-lane vectors)
  std::size_t max_frames = 0;  // mask-frame nesting bound
};

// Stacks this deep live on the C++ stack; deeper (pathological fuzzer)
// programs fall back to one heap allocation per eval_lanes call.
inline constexpr std::size_t kInlineBatchStack = 64;
inline constexpr std::size_t kInlineBatchFrames = 16;

/// Records `code` on every lane named in `bits` that has no earlier error:
/// first error wins per lane, matching the scalar interpreter aborting at
/// its first EvalError.
inline void poison(LaneError* err, unsigned bits, LaneError code) {
  for (std::size_t i = 0; i < kBatchLaneWidth; ++i) {
    if (((bits >> i) & 1u) != 0 && err[i] == LaneError::kNone) err[i] = code;
  }
}

/// Portable lane policy: plain arrays, every operation an elementwise loop
/// written to match the scalar interpreter expression-for-expression.
struct ScalarLanes {
  static constexpr std::size_t kW = kBatchLaneWidth;
  struct Vec { double v[kW]; };
  struct Mask { std::uint64_t m[kW]; };  // per lane: all-ones or all-zeros

  static Vec broadcast(double x) {
    Vec r;
    for (std::size_t i = 0; i < kW; ++i) r.v[i] = x;
    return r;
  }
  static Vec load(const double* p) {
    Vec r;
    for (std::size_t i = 0; i < kW; ++i) r.v[i] = p[i];
    return r;
  }
  static void store(double* p, Vec a) {
    for (std::size_t i = 0; i < kW; ++i) p[i] = a.v[i];
  }
  static Vec neg(Vec a) {
    Vec r;
    for (std::size_t i = 0; i < kW; ++i) r.v[i] = -a.v[i];
    return r;
  }
  static Vec add(Vec a, Vec b) {
    Vec r;
    for (std::size_t i = 0; i < kW; ++i) r.v[i] = a.v[i] + b.v[i];
    return r;
  }
  static Vec sub(Vec a, Vec b) {
    Vec r;
    for (std::size_t i = 0; i < kW; ++i) r.v[i] = a.v[i] - b.v[i];
    return r;
  }
  static Vec mul(Vec a, Vec b) {
    Vec r;
    for (std::size_t i = 0; i < kW; ++i) r.v[i] = a.v[i] * b.v[i];
    return r;
  }
  static Vec div(Vec a, Vec b) {
    Vec r;
    for (std::size_t i = 0; i < kW; ++i) r.v[i] = a.v[i] / b.v[i];
    return r;
  }
  static Vec min(Vec a, Vec b) {
    Vec r;
    for (std::size_t i = 0; i < kW; ++i) r.v[i] = std::min(a.v[i], b.v[i]);
    return r;
  }
  static Vec max(Vec a, Vec b) {
    Vec r;
    for (std::size_t i = 0; i < kW; ++i) r.v[i] = std::max(a.v[i], b.v[i]);
    return r;
  }
  static Vec cmp_lt(Vec a, Vec b) {
    Vec r;
    for (std::size_t i = 0; i < kW; ++i) r.v[i] = a.v[i] < b.v[i] ? 1.0 : 0.0;
    return r;
  }
  static Vec cmp_le(Vec a, Vec b) {
    Vec r;
    for (std::size_t i = 0; i < kW; ++i) r.v[i] = a.v[i] <= b.v[i] ? 1.0 : 0.0;
    return r;
  }
  static Vec cmp_gt(Vec a, Vec b) {
    Vec r;
    for (std::size_t i = 0; i < kW; ++i) r.v[i] = a.v[i] > b.v[i] ? 1.0 : 0.0;
    return r;
  }
  static Vec cmp_ge(Vec a, Vec b) {
    Vec r;
    for (std::size_t i = 0; i < kW; ++i) r.v[i] = a.v[i] >= b.v[i] ? 1.0 : 0.0;
    return r;
  }
  static Vec cmp_eq(Vec a, Vec b) {
    Vec r;
    for (std::size_t i = 0; i < kW; ++i) r.v[i] = a.v[i] == b.v[i] ? 1.0 : 0.0;
    return r;
  }
  static Vec cmp_ne(Vec a, Vec b) {
    Vec r;
    for (std::size_t i = 0; i < kW; ++i) r.v[i] = a.v[i] != b.v[i] ? 1.0 : 0.0;
    return r;
  }
  static Vec logical_and(Vec a, Vec b) {
    Vec r;
    for (std::size_t i = 0; i < kW; ++i)
      r.v[i] = (a.v[i] != 0 && b.v[i] != 0) ? 1.0 : 0.0;
    return r;
  }
  static Vec logical_or(Vec a, Vec b) {
    Vec r;
    for (std::size_t i = 0; i < kW; ++i)
      r.v[i] = (a.v[i] != 0 || b.v[i] != 0) ? 1.0 : 0.0;
    return r;
  }
  static Vec logical_not(Vec a) {
    Vec r;
    for (std::size_t i = 0; i < kW; ++i) r.v[i] = a.v[i] == 0 ? 1.0 : 0.0;
    return r;
  }
  static Mask truthy(Vec a) {  // NaN != 0 is true, as in the interpreter
    Mask r;
    for (std::size_t i = 0; i < kW; ++i)
      r.m[i] = a.v[i] != 0 ? ~std::uint64_t{0} : 0;
    return r;
  }
  static Mask is_zero(Vec a) {  // -0.0 == 0.0 holds, NaN == 0.0 does not
    Mask r;
    for (std::size_t i = 0; i < kW; ++i)
      r.m[i] = a.v[i] == 0 ? ~std::uint64_t{0} : 0;
    return r;
  }
  static Mask mask_all() {
    Mask r;
    for (std::size_t i = 0; i < kW; ++i) r.m[i] = ~std::uint64_t{0};
    return r;
  }
  static Mask mask_and(Mask a, Mask b) {
    Mask r;
    for (std::size_t i = 0; i < kW; ++i) r.m[i] = a.m[i] & b.m[i];
    return r;
  }
  static Mask mask_andnot(Mask a, Mask b) {  // ~a & b
    Mask r;
    for (std::size_t i = 0; i < kW; ++i) r.m[i] = ~a.m[i] & b.m[i];
    return r;
  }
  static Mask from_bits(unsigned bits) {
    Mask r;
    for (std::size_t i = 0; i < kW; ++i)
      r.m[i] = ((bits >> i) & 1u) != 0 ? ~std::uint64_t{0} : 0;
    return r;
  }
  static unsigned bits(Mask a) {
    unsigned r = 0;
    for (std::size_t i = 0; i < kW; ++i)
      if (a.m[i] != 0) r |= 1u << i;
    return r;
  }
  static Vec blend(Vec a, Vec b, Mask m) {  // per lane: m ? b : a
    Vec r;
    for (std::size_t i = 0; i < kW; ++i) r.v[i] = m.m[i] != 0 ? b.v[i] : a.v[i];
    return r;
  }
  static Mask gt(Vec a, Vec b) {  // false on NaN, like operator>
    Mask r;
    for (std::size_t i = 0; i < kW; ++i)
      r.m[i] = a.v[i] > b.v[i] ? ~std::uint64_t{0} : 0;
    return r;
  }
  static Mask abs_diff_gt(Vec a, Vec b, double bound) {
    // |a - b| > bound per lane; false on NaN, like std::abs(x) > bound.
    Mask r;
    for (std::size_t i = 0; i < kW; ++i)
      r.m[i] = std::abs(a.v[i] - b.v[i]) > bound ? ~std::uint64_t{0} : 0;
    return r;
  }
};

template <class L>
struct BatchFrame {
  typename L::Mask saved;              // activity on region entry
  typename L::Mask sub;                // ite cond mask / current arm mask
  std::int32_t sel[kBatchLaneWidth];   // kChoice: clamped per-lane selectors
};

/// Executes `p` over one scenario and W candidates. `holes` is the SoA
/// candidate block (hole_count x W doubles), `out` and `err` receive W
/// results and per-lane error codes. A lane's `out` value is meaningful
/// only when its `err` is LaneError::kNone.
template <class L>
void run_batch(const BatchProgram& p, const double* metrics,
               const double* holes, double* out, LaneError* err) {
  using Op = BatchInstr::Op;
  using Vec = typename L::Vec;
  using Mask = typename L::Mask;
  constexpr std::size_t kW = kBatchLaneWidth;

  Vec stack_inline[kInlineBatchStack];
  std::vector<Vec> stack_heap;
  Vec* stack = stack_inline;
  if (p.max_stack > kInlineBatchStack) {
    stack_heap.resize(p.max_stack);
    stack = stack_heap.data();
  }
  BatchFrame<L> frames_inline[kInlineBatchFrames];
  std::vector<BatchFrame<L>> frames_heap;
  BatchFrame<L>* frames = frames_inline;
  if (p.max_frames > kInlineBatchFrames) {
    frames_heap.resize(p.max_frames);
    frames = frames_heap.data();
  }

  for (std::size_t i = 0; i < kW; ++i) err[i] = LaneError::kNone;
  Mask active = L::mask_all();
  std::size_t sp = 0;
  std::size_t fp = 0;

  for (const BatchInstr& in : p.code) {
    switch (in.op) {
      case Op::kPushConst:
        stack[sp++] = L::broadcast(in.value);
        break;
      case Op::kPushMetric:
        stack[sp++] = L::broadcast(metrics[static_cast<std::size_t>(in.a)]);
        break;
      case Op::kPushHole:
        stack[sp++] = L::load(holes + static_cast<std::size_t>(in.a) * kW);
        break;
      case Op::kNeg:
        stack[sp - 1] = L::neg(stack[sp - 1]);
        break;
      case Op::kAdd:
        --sp;
        stack[sp - 1] = L::add(stack[sp - 1], stack[sp]);
        break;
      case Op::kSub:
        --sp;
        stack[sp - 1] = L::sub(stack[sp - 1], stack[sp]);
        break;
      case Op::kMul:
        --sp;
        stack[sp - 1] = L::mul(stack[sp - 1], stack[sp]);
        break;
      case Op::kDiv: {
        --sp;
        const unsigned bad = L::bits(L::mask_and(L::is_zero(stack[sp]), active));
        if (bad != 0) poison(err, bad, LaneError::kDivZero);
        stack[sp - 1] = L::div(stack[sp - 1], stack[sp]);
        break;
      }
      case Op::kMin:
        --sp;
        stack[sp - 1] = L::min(stack[sp - 1], stack[sp]);
        break;
      case Op::kMax:
        --sp;
        stack[sp - 1] = L::max(stack[sp - 1], stack[sp]);
        break;
      case Op::kLt:
        --sp;
        stack[sp - 1] = L::cmp_lt(stack[sp - 1], stack[sp]);
        break;
      case Op::kLe:
        --sp;
        stack[sp - 1] = L::cmp_le(stack[sp - 1], stack[sp]);
        break;
      case Op::kGt:
        --sp;
        stack[sp - 1] = L::cmp_gt(stack[sp - 1], stack[sp]);
        break;
      case Op::kGe:
        --sp;
        stack[sp - 1] = L::cmp_ge(stack[sp - 1], stack[sp]);
        break;
      case Op::kEq:
        --sp;
        stack[sp - 1] = L::cmp_eq(stack[sp - 1], stack[sp]);
        break;
      case Op::kNe:
        --sp;
        stack[sp - 1] = L::cmp_ne(stack[sp - 1], stack[sp]);
        break;
      case Op::kAnd:
        --sp;
        stack[sp - 1] = L::logical_and(stack[sp - 1], stack[sp]);
        break;
      case Op::kOr:
        --sp;
        stack[sp - 1] = L::logical_or(stack[sp - 1], stack[sp]);
        break;
      case Op::kNot:
        stack[sp - 1] = L::logical_not(stack[sp - 1]);
        break;
      case Op::kIteBegin: {
        const Vec cond = stack[--sp];
        BatchFrame<L>& f = frames[fp++];
        f.saved = active;
        f.sub = L::truthy(cond);
        active = L::mask_and(f.saved, f.sub);
        break;
      }
      case Op::kIteElse: {
        const BatchFrame<L>& f = frames[fp - 1];
        active = L::mask_andnot(f.sub, f.saved);
        break;
      }
      case Op::kIteEnd: {
        const BatchFrame<L>& f = frames[--fp];
        const Vec else_v = stack[--sp];
        stack[sp - 1] = L::blend(else_v, stack[sp - 1], f.sub);
        active = f.saved;
        break;
      }
      case Op::kChoiceBegin: {
        BatchFrame<L>& f = frames[fp++];
        f.saved = active;
        const double* hv = holes + static_cast<std::size_t>(in.a) * kW;
        const std::int64_t count = in.b;
        for (std::size_t i = 0; i < kW; ++i) {
          const auto raw = static_cast<std::int64_t>(std::llround(hv[i]));
          f.sel[i] = static_cast<std::int32_t>(
              std::clamp<std::int64_t>(raw, 0, count - 1));
        }
        break;
      }
      case Op::kChoiceArm: {
        BatchFrame<L>& f = frames[fp - 1];
        unsigned sel_bits = 0;
        for (std::size_t i = 0; i < kW; ++i)
          if (f.sel[i] == in.a) sel_bits |= 1u << i;
        f.sub = L::mask_and(f.saved, L::from_bits(sel_bits));
        active = f.sub;
        break;
      }
      case Op::kChoiceAccum: {
        const BatchFrame<L>& f = frames[fp - 1];
        const Vec arm = stack[--sp];
        stack[sp - 1] = L::blend(stack[sp - 1], arm, f.sub);
        break;
      }
      case Op::kChoiceEnd: {
        const BatchFrame<L>& f = frames[--fp];
        active = f.saved;
        break;
      }
      case Op::kRaise:
        poison(err, L::bits(active),
               in.a == 0 ? LaneError::kRaiseNumeric : LaneError::kRaiseBool);
        stack[sp++] = L::broadcast(0.0);
        break;
    }
  }
  L::store(out, stack[sp - 1]);
}

/// W-lane comparison reductions for the survivor constraint checks
/// (lane_gt_bits / lane_abs_diff_gt_bits in compile.h): bit l of the result
/// names lane l.
template <class L>
unsigned run_gt_bits(const double* a, const double* b) {
  return L::bits(L::gt(L::load(a), L::load(b)));
}
template <class L>
unsigned run_abs_diff_gt_bits(const double* a, const double* b, double bound) {
  return L::bits(L::abs_diff_gt(L::load(a), L::load(b), bound));
}

/// Kernel entry points selected by the runtime ISA dispatch in compile.cpp.
void run_batch_scalar(const BatchProgram& p, const double* metrics,
                      const double* holes, double* out, LaneError* err);
void run_batch_avx2(const BatchProgram& p, const double* metrics,
                    const double* holes, double* out, LaneError* err);
unsigned lane_gt_bits_scalar(const double* a, const double* b);
unsigned lane_gt_bits_avx2(const double* a, const double* b);
unsigned lane_abs_diff_gt_bits_scalar(const double* a, const double* b,
                                      double bound);
unsigned lane_abs_diff_gt_bits_avx2(const double* a, const double* b,
                                    double bound);

}  // namespace compsynth::sketch::internal
