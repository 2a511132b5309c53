#include "solver/z3_encoder.h"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "obs/run_context.h"
#include "util/log.h"

namespace compsynth::solver {

namespace {

// Builds 2^n (n may be negative) as an exact Z3 real by repeated squaring.
// Only used for doubles outside the int64 fast path.
z3::expr power_of_two(z3::context& ctx, int n) {
  const bool invert = n < 0;
  unsigned k = static_cast<unsigned>(invert ? -n : n);
  z3::expr base = ctx.real_val(2);
  z3::expr acc = ctx.real_val(1);
  while (k > 0) {
    if (k & 1u) acc = acc * base;
    base = base * base;
    k >>= 1u;
  }
  return invert ? (ctx.real_val(1) / acc) : acc;
}

}  // namespace

z3::expr real_of_double(z3::context& ctx, double value) {
  if (!std::isfinite(value)) {
    throw std::invalid_argument("real_of_double: non-finite value");
  }
  if (value == 0) return ctx.real_val(0);

  // Every finite double is mantissa * 2^exp exactly. Z3's int/int numeral
  // constructors are 32-bit, so rationals are passed as "num/den" strings.
  int exp = 0;
  const double frac = std::frexp(value, &exp);  // |frac| in [0.5, 1)
  const auto mantissa = static_cast<std::int64_t>(std::ldexp(frac, 53));
  const int shift = exp - 53;

  if (shift >= 0 && shift <= 10) {
    return ctx.real_val(std::to_string(mantissa << shift).c_str());
  }
  if (shift < 0 && shift >= -62) {
    const std::string text = std::to_string(mantissa) + "/" +
                             std::to_string(std::int64_t{1} << (-shift));
    return ctx.real_val(text.c_str());
  }
  return ctx.real_val(std::to_string(mantissa).c_str()) * power_of_two(ctx, shift);
}

z3::expr encode_numeric(z3::context& ctx, const sketch::Expr& e,
                        std::span<const z3::expr> metrics,
                        std::span<const z3::expr> holes) {
  using sketch::BinOp;
  using Kind = sketch::Expr::Kind;
  switch (e.kind) {
    case Kind::kConst:
      return real_of_double(ctx, e.literal);
    case Kind::kMetric:
      return metrics[e.metric];
    case Kind::kHole:
      return holes[e.hole];
    case Kind::kNeg:
      return -encode_numeric(ctx, *e.children[0], metrics, holes);
    case Kind::kBinary: {
      const z3::expr a = encode_numeric(ctx, *e.children[0], metrics, holes);
      const z3::expr b = encode_numeric(ctx, *e.children[1], metrics, holes);
      switch (e.bin_op) {
        case BinOp::kAdd: return a + b;
        case BinOp::kSub: return a - b;
        case BinOp::kMul: return a * b;
        case BinOp::kDiv: return a / b;
        case BinOp::kMin: return z3::ite(a <= b, a, b);
        case BinOp::kMax: return z3::ite(a >= b, a, b);
      }
      break;
    }
    case Kind::kIte:
      return z3::ite(encode_bool(ctx, *e.children[0], metrics, holes),
                     encode_numeric(ctx, *e.children[1], metrics, holes),
                     encode_numeric(ctx, *e.children[2], metrics, holes));
    case Kind::kChoice: {
      // Nested ite chain over the selector hole (an integer grid 0..N-1).
      const z3::expr& sel = holes[e.hole];
      z3::expr out = encode_numeric(ctx, *e.children.back(), metrics, holes);
      for (std::size_t j = e.children.size() - 1; j-- > 0;) {
        out = z3::ite(sel == real_of_double(ctx, static_cast<double>(j)),
                      encode_numeric(ctx, *e.children[j], metrics, holes), out);
      }
      return out;
    }
    case Kind::kCmp:
    case Kind::kBoolBinary:
    case Kind::kNot:
    case Kind::kBoolConst:
      break;
  }
  throw std::invalid_argument("encode_numeric: boolean node in numeric position");
}

z3::expr encode_bool(z3::context& ctx, const sketch::Expr& e,
                     std::span<const z3::expr> metrics,
                     std::span<const z3::expr> holes) {
  using sketch::BoolOp;
  using sketch::CmpOp;
  using Kind = sketch::Expr::Kind;
  switch (e.kind) {
    case Kind::kBoolConst:
      return ctx.bool_val(e.literal != 0);
    case Kind::kCmp: {
      const z3::expr a = encode_numeric(ctx, *e.children[0], metrics, holes);
      const z3::expr b = encode_numeric(ctx, *e.children[1], metrics, holes);
      switch (e.cmp_op) {
        case CmpOp::kLt: return a < b;
        case CmpOp::kLe: return a <= b;
        case CmpOp::kGt: return a > b;
        case CmpOp::kGe: return a >= b;
        case CmpOp::kEq: return a == b;
        case CmpOp::kNe: return a != b;
      }
      break;
    }
    case Kind::kBoolBinary: {
      const z3::expr a = encode_bool(ctx, *e.children[0], metrics, holes);
      const z3::expr b = encode_bool(ctx, *e.children[1], metrics, holes);
      return e.bool_op == BoolOp::kAnd ? (a && b) : (a || b);
    }
    case Kind::kNot:
      return !encode_bool(ctx, *e.children[0], metrics, holes);
    case Kind::kConst:
    case Kind::kMetric:
    case Kind::kHole:
    case Kind::kNeg:
    case Kind::kBinary:
    case Kind::kIte:
    case Kind::kChoice:
      break;
  }
  throw std::invalid_argument("encode_bool: numeric node in boolean position");
}

std::vector<z3::expr> make_hole_vars(z3::context& ctx,
                                     const sketch::Sketch& sketch,
                                     const std::string& prefix) {
  std::vector<z3::expr> vars;
  vars.reserve(sketch.holes().size());
  for (const auto& h : sketch.holes()) {
    vars.push_back(ctx.real_const((prefix + h.name).c_str()));
  }
  return vars;
}

z3::expr hole_domain_constraint(z3::context& ctx, const sketch::Sketch& sketch,
                                std::span<const z3::expr> hole_vars) {
  z3::expr all = ctx.bool_val(true);
  for (std::size_t i = 0; i < sketch.holes().size(); ++i) {
    const sketch::HoleSpec& h = sketch.holes()[i];
    z3::expr member = ctx.bool_val(false);
    for (std::int64_t j = 0; j < h.count; ++j) {
      member = member || (hole_vars[i] == real_of_double(ctx, h.value_at(j)));
    }
    all = all && member;
  }
  return all;
}

std::vector<z3::expr> make_scenario_vars(z3::context& ctx, z3::solver& solver,
                                         const sketch::Sketch& sketch,
                                         const sketch::Expr* constraint,
                                         const std::string& prefix) {
  std::vector<z3::expr> vars;
  for (const sketch::MetricSpec& m : sketch.metrics()) {
    z3::expr v = ctx.real_const((prefix + m.name).c_str());
    solver.add(v >= real_of_double(ctx, m.lo));
    solver.add(v <= real_of_double(ctx, m.hi));
    vars.push_back(std::move(v));
  }
  if (constraint != nullptr) solver.add(encode_bool(ctx, *constraint, vars, {}));
  return vars;
}

z3::expr holes_equal(z3::context& ctx, std::span<const z3::expr> holes,
                     std::span<const double> values) {
  z3::expr same = ctx.bool_val(true);
  for (std::size_t i = 0; i < holes.size(); ++i) {
    same = same && (holes[i] == real_of_double(ctx, values[i]));
  }
  return same;
}

sketch::HoleAssignment assignment_of(const z3::model& model,
                                     const sketch::Sketch& sketch,
                                     std::span<const z3::expr> holes) {
  sketch::HoleAssignment a;
  for (std::size_t i = 0; i < holes.size(); ++i) {
    a.index.push_back(sketch.holes()[i].nearest_index(value_of(model, holes[i])));
  }
  return a;
}

std::vector<z3::expr> encode_scenario(z3::context& ctx,
                                      std::span<const double> metrics) {
  std::vector<z3::expr> out;
  out.reserve(metrics.size());
  for (const double v : metrics) out.push_back(real_of_double(ctx, v));
  return out;
}

double value_of(const z3::model& model, const z3::expr& var) {
  const z3::expr v = model.eval(var, /*model_completion=*/true);
  // Exact path: rationals whose numerator/denominator fit in int64.
  std::int64_t num = 0, den = 0;
  if (Z3_get_numeral_rational_int64(v.ctx(), v, &num, &den) && den != 0) {
    return static_cast<double>(num) / static_cast<double>(den);
  }
  // Fallback: high-precision decimal rendering ('?' marks truncation).
  std::string s = v.get_decimal_string(40);
  if (!s.empty() && s.back() == '?') s.pop_back();
  return std::strtod(s.c_str(), nullptr);
}

namespace {

void set_timeout(z3::context& ctx, z3::solver& s, unsigned timeout_ms) {
  if (timeout_ms == 0) return;
  z3::params p(ctx);
  p.set("timeout", timeout_ms);
  s.set(p);
}

const char* check_result_name(z3::check_result r) {
  if (r == z3::sat) return "sat";
  if (r == z3::unsat) return "unsat";
  return "unknown";
}

}  // namespace

// nlsat is ~10x faster here than the default solver on the final uniqueness
// proof. A tactic-built solver's verdict and model are a pure function of
// its current assertion list, so a grown encoding answers exactly as a
// freshly built one (docs/SOLVER.md §The encoding).
z3::solver make_solver(z3::context& ctx, unsigned timeout_ms) {
  z3::solver s = z3::tactic(ctx, "qfnra-nlsat").mk_solver();
  set_timeout(ctx, s, timeout_ms);
  return s;
}

CheckOutcome check_query(z3::context& ctx, z3::solver& s, unsigned timeout_ms,
                         const obs::RunContext* obs, const char* kind,
                         long index, int attempt) {
  obs::Span span(obs, "z3_query");
  CheckOutcome out;
  out.result = s.check();
  if (out.result == z3::sat) {
    out.model = s.get_model();
  } else if (out.result == z3::unknown) {
    util::log(util::LogLevel::kDebug,
              "nlsat returned unknown; retrying with default solver");
    z3::solver fallback(ctx);
    set_timeout(ctx, fallback, timeout_ms);
    for (const z3::expr& a : s.assertions()) fallback.add(a);
    out.result = fallback.check();
    if (out.result == z3::sat) out.model = fallback.get_model();
  }
  if (obs != nullptr) obs->count("z3.queries");
  if (obs::TraceEvent* e = span.event()) {
    e->str("kind", kind);
    if (index > 0) e->integer("index", index);
    e->str("result", check_result_name(out.result));
    if (attempt > 1) e->integer("attempt", attempt);
  }
  return out;
}

}  // namespace compsynth::solver
