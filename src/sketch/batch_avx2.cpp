// AVX2 lane back-end for sketch::BatchTape.
//
// simd-ok: this is the one TU allowed to use raw x86 intrinsics — it is the
// AVX2 instantiation of the lane policy in batch_kernel.h, compiled with
// -mavx2 and reached only through the runtime dispatch in compile.cpp when
// the host CPU reports AVX2. Every operation below is chosen to be bit-exact
// with the scalar interpreter (operand-swapped min/max for std::min/std::max
// NaN semantics, ordered-quiet compares, xor-with-sign-bit negation); the
// lane differential tests in tests/compile_test.cpp enforce this against
// the tree interpreter.
//
// Only built when CMake detects -mavx2 support on an x86-64 target
// (COMPSYNTH_HAVE_AVX2); other builds dispatch to the scalar kernel.

#include "sketch/batch_kernel.h"

#include <immintrin.h>

#include <bit>
#include <cstdint>

namespace compsynth::sketch::internal {

namespace {

// Lane width stays 8 (= kBatchLaneWidth): two 4-wide __m256d halves, so
// batch shapes match the scalar back-end exactly.
struct Avx2Lanes {
  struct Vec { __m256d lo, hi; };
  struct Mask { __m256d lo, hi; };  // per lane: all-ones or all-zeros

  static __m256d zero() { return _mm256_setzero_pd(); }
  static __m256d one() { return _mm256_set1_pd(1.0); }
  // Masks 1.0/0.0 out of an all-ones/all-zeros compare result.
  static __m256d bool01(__m256d m) { return _mm256_and_pd(m, one()); }
  static __m256d nonzero4(__m256d x) {
    // != is true on NaN (unordered compare), matching `x != 0` in C++.
    return _mm256_cmp_pd(x, zero(), _CMP_NEQ_UQ);
  }

  static Vec broadcast(double x) {
    return {_mm256_set1_pd(x), _mm256_set1_pd(x)};
  }
  static Vec load(const double* p) {
    return {_mm256_loadu_pd(p), _mm256_loadu_pd(p + 4)};
  }
  static void store(double* p, Vec a) {
    _mm256_storeu_pd(p, a.lo);
    _mm256_storeu_pd(p + 4, a.hi);
  }
  static Vec neg(Vec a) {
    // Negation is a sign-bit flip for every operand, NaN and zero included.
    const __m256d sign = _mm256_set1_pd(-0.0);
    return {_mm256_xor_pd(a.lo, sign), _mm256_xor_pd(a.hi, sign)};
  }
  static Vec add(Vec a, Vec b) {
    return {_mm256_add_pd(a.lo, b.lo), _mm256_add_pd(a.hi, b.hi)};
  }
  static Vec sub(Vec a, Vec b) {
    return {_mm256_sub_pd(a.lo, b.lo), _mm256_sub_pd(a.hi, b.hi)};
  }
  static Vec mul(Vec a, Vec b) {
    return {_mm256_mul_pd(a.lo, b.lo), _mm256_mul_pd(a.hi, b.hi)};
  }
  static Vec div(Vec a, Vec b) {
    return {_mm256_div_pd(a.lo, b.lo), _mm256_div_pd(a.hi, b.hi)};
  }
  // vminpd/vmaxpd return the SECOND operand on NaN or equal-valued inputs,
  // so swapping operands reproduces std::min(a,b) = (b < a) ? b : a and
  // std::max(a,b) = (a < b) ? b : a bit-for-bit (first operand wins ties
  // and NaN propagation).
  static Vec min(Vec a, Vec b) {
    return {_mm256_min_pd(b.lo, a.lo), _mm256_min_pd(b.hi, a.hi)};
  }
  static Vec max(Vec a, Vec b) {
    return {_mm256_max_pd(b.lo, a.lo), _mm256_max_pd(b.hi, a.hi)};
  }
  // Ordered-quiet predicates: false on NaN, like the C++ operators.
  static Vec cmp_lt(Vec a, Vec b) {
    return {bool01(_mm256_cmp_pd(a.lo, b.lo, _CMP_LT_OQ)),
            bool01(_mm256_cmp_pd(a.hi, b.hi, _CMP_LT_OQ))};
  }
  static Vec cmp_le(Vec a, Vec b) {
    return {bool01(_mm256_cmp_pd(a.lo, b.lo, _CMP_LE_OQ)),
            bool01(_mm256_cmp_pd(a.hi, b.hi, _CMP_LE_OQ))};
  }
  static Vec cmp_gt(Vec a, Vec b) {
    return {bool01(_mm256_cmp_pd(a.lo, b.lo, _CMP_GT_OQ)),
            bool01(_mm256_cmp_pd(a.hi, b.hi, _CMP_GT_OQ))};
  }
  static Vec cmp_ge(Vec a, Vec b) {
    return {bool01(_mm256_cmp_pd(a.lo, b.lo, _CMP_GE_OQ)),
            bool01(_mm256_cmp_pd(a.hi, b.hi, _CMP_GE_OQ))};
  }
  static Vec cmp_eq(Vec a, Vec b) {
    return {bool01(_mm256_cmp_pd(a.lo, b.lo, _CMP_EQ_OQ)),
            bool01(_mm256_cmp_pd(a.hi, b.hi, _CMP_EQ_OQ))};
  }
  static Vec cmp_ne(Vec a, Vec b) {
    // Unordered-quiet: true on NaN, like C++ operator!=.
    return {bool01(_mm256_cmp_pd(a.lo, b.lo, _CMP_NEQ_UQ)),
            bool01(_mm256_cmp_pd(a.hi, b.hi, _CMP_NEQ_UQ))};
  }
  static Vec logical_and(Vec a, Vec b) {
    return {bool01(_mm256_and_pd(nonzero4(a.lo), nonzero4(b.lo))),
            bool01(_mm256_and_pd(nonzero4(a.hi), nonzero4(b.hi)))};
  }
  static Vec logical_or(Vec a, Vec b) {
    return {bool01(_mm256_or_pd(nonzero4(a.lo), nonzero4(b.lo))),
            bool01(_mm256_or_pd(nonzero4(a.hi), nonzero4(b.hi)))};
  }
  static Vec logical_not(Vec a) {
    return {bool01(_mm256_cmp_pd(a.lo, zero(), _CMP_EQ_OQ)),
            bool01(_mm256_cmp_pd(a.hi, zero(), _CMP_EQ_OQ))};
  }
  static Mask truthy(Vec a) { return {nonzero4(a.lo), nonzero4(a.hi)}; }
  static Mask is_zero(Vec a) {
    // -0.0 == 0.0 holds and NaN == 0.0 does not, exactly as in C++.
    return {_mm256_cmp_pd(a.lo, zero(), _CMP_EQ_OQ),
            _mm256_cmp_pd(a.hi, zero(), _CMP_EQ_OQ)};
  }
  static Mask mask_all() {
    const __m256d ones = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    return {ones, ones};
  }
  static Mask mask_and(Mask a, Mask b) {
    return {_mm256_and_pd(a.lo, b.lo), _mm256_and_pd(a.hi, b.hi)};
  }
  static Mask mask_andnot(Mask a, Mask b) {  // ~a & b
    return {_mm256_andnot_pd(a.lo, b.lo), _mm256_andnot_pd(a.hi, b.hi)};
  }
  static Mask from_bits(unsigned bits) {
    const double t = std::bit_cast<double>(~std::uint64_t{0});
    const auto lane = [&](unsigned i) { return ((bits >> i) & 1u) ? t : 0.0; };
    return {_mm256_set_pd(lane(3), lane(2), lane(1), lane(0)),
            _mm256_set_pd(lane(7), lane(6), lane(5), lane(4))};
  }
  static unsigned bits(Mask a) {
    return static_cast<unsigned>(_mm256_movemask_pd(a.lo)) |
           (static_cast<unsigned>(_mm256_movemask_pd(a.hi)) << 4);
  }
  static Vec blend(Vec a, Vec b, Mask m) {  // per lane: m ? b : a
    return {_mm256_blendv_pd(a.lo, b.lo, m.lo),
            _mm256_blendv_pd(a.hi, b.hi, m.hi)};
  }
  static Mask gt(Vec a, Vec b) {  // ordered-quiet: false on NaN
    return {_mm256_cmp_pd(a.lo, b.lo, _CMP_GT_OQ),
            _mm256_cmp_pd(a.hi, b.hi, _CMP_GT_OQ)};
  }
  static Mask abs_diff_gt(Vec a, Vec b, double bound) {
    // std::abs is a sign-bit clear for every double (NaN included); a NaN
    // difference then fails the ordered compare, like std::abs(x) > bound.
    const __m256d sign = _mm256_set1_pd(-0.0);
    const __m256d bd = _mm256_set1_pd(bound);
    const __m256d dlo = _mm256_andnot_pd(sign, _mm256_sub_pd(a.lo, b.lo));
    const __m256d dhi = _mm256_andnot_pd(sign, _mm256_sub_pd(a.hi, b.hi));
    return {_mm256_cmp_pd(dlo, bd, _CMP_GT_OQ),
            _mm256_cmp_pd(dhi, bd, _CMP_GT_OQ)};
  }
};

}  // namespace

void run_batch_avx2(const BatchProgram& p, const double* metrics,
                    const double* holes, double* out, LaneError* err) {
  run_batch<Avx2Lanes>(p, metrics, holes, out, err);
}

unsigned lane_gt_bits_avx2(const double* a, const double* b) {
  return run_gt_bits<Avx2Lanes>(a, b);
}

unsigned lane_abs_diff_gt_bits_avx2(const double* a, const double* b,
                                    double bound) {
  return run_abs_diff_gt_bits<Avx2Lanes>(a, b, bound);
}

}  // namespace compsynth::sketch::internal
