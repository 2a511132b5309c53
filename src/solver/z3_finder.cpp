#include "solver/z3_finder.h"

#include <z3++.h>

#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/run_context.h"
#include "solver/z3_encoder.h"
#include "util/log.h"

namespace compsynth::solver {

namespace {

constexpr int kMaxViabilityBlocks = 256;

bool same_constraint(const pref::Edge& a, const pref::Edge& b) {
  // Weight is repair metadata; only the endpoints are asserted.
  return a.better == b.better && a.worse == b.worse;
}

// A query's per-call scope for viability model-blocking: popped on every
// exit so the persistent encoding only ever holds the canonical assertions.
class CallScope {
 public:
  explicit CallScope(z3::solver& s) : s_(s) { s_.push(); }
  ~CallScope() { s_.pop(1); }
  CallScope(const CallScope&) = delete;
  CallScope& operator=(const CallScope&) = delete;

 private:
  z3::solver& s_;
};

}  // namespace

// --- The encoding ---------------------------------------------------------
//
// One encoding = one long-lived Z3 context holding the sketch+G formula for
// one query shape: the distinguishing query with `num_pairs` scenario pairs
// over two candidates (hole variables a_, b_), or the consistency query
// (num_pairs 0) over one candidate (hole variables h_). It is kept across
// queries and grown with push/pop; a graph that is not an append-only
// extension of what was asserted discards it and builds a fresh one, which
// runs exactly this code in one pass.
//
// Canonical order (docs/SOLVER.md §Canonical assertion order):
//   level 0  prelude: hole domains, per-pair scenario vars + domain +
//            margin + objective bounds, pair-separation constraints;
//            then every graph edge in arrival order (one constraint per
//            candidate, a's before b's);
//   level 1  all tie constraints (re-asserted in full whenever G grows);
//   level 2  per-call viability model-blocking (popped before returning).
//
// Ties live above the edges because edges only ever append while a new tie
// arrives interleaved with them: popping and re-asserting the (few) ties
// keeps the surviving assertion list in canonical order without touching
// the (many) edge assertions.
//
// Objective terms at graph vertices are memoized in vertex-id order — the
// term-creation order is then identical whether the encoding was built in
// one pass or grown across many calls, so both hold the same ASTs.

struct Z3Finder::Encoding {
  z3::context ctx;
  z3::solver solver;
  /// Hole variables, one set per candidate: {a, b} for the distinguishing
  /// query, {h} for the consistency query.
  std::vector<std::vector<z3::expr>> holes;
  std::vector<std::vector<z3::expr>> s1_vars, s2_vars;  // one per pair
  /// Objective terms per interned vertex, one column per candidate.
  std::vector<std::vector<z3::expr>> values;
  std::vector<pref::Edge> edges_asserted;
  std::vector<std::pair<pref::VertexId, pref::VertexId>> ties_asserted;
  bool tie_level_open = false;

  Encoding(const sketch::Sketch& sk, const FinderConfig& config,
           const ScenarioDomain& domain,
           const std::optional<sketch::Interval>& bounds, int num_pairs)
      : solver(make_solver(ctx, config.timeout_ms)) {
    for (const char* prefix :
         num_pairs > 0 ? std::vector<const char*>{"a_", "b_"}
                       : std::vector<const char*>{"h_"}) {
      holes.push_back(make_hole_vars(ctx, sk, prefix));
    }
    values.resize(holes.size());
    for (const std::vector<z3::expr>& h : holes) {
      solver.add(hole_domain_constraint(ctx, sk, h));
    }
    if (num_pairs > 0) add_pairs(sk, config, domain, bounds, num_pairs);
  }

  /// The distinguishing query's prelude after the hole domains: scenario
  /// variables, margin and objective bounds per pair, then pair separation.
  void add_pairs(const sketch::Sketch& sk, const FinderConfig& config,
                 const ScenarioDomain& domain,
                 const std::optional<sketch::Interval>& bounds, int num_pairs) {
    // Fresh scenario variables for each requested distinguishing pair.
    const z3::expr margin = real_of_double(ctx, config.distinguish_margin);
    for (int p = 0; p < num_pairs; ++p) {
      const std::string tag = "p" + std::to_string(p) + "_";
      s1_vars.push_back(make_scenario_vars(ctx, solver, sk,
                                           domain.constraint.get(), tag + "s1_"));
      s2_vars.push_back(make_scenario_vars(ctx, solver, sk,
                                           domain.constraint.get(), tag + "s2_"));

      const std::vector<z3::expr>& ha = holes[0];
      const std::vector<z3::expr>& hb = holes[1];
      const z3::expr fa1 = encode_numeric(ctx, *sk.body(), s1_vars.back(), ha);
      const z3::expr fa2 = encode_numeric(ctx, *sk.body(), s2_vars.back(), ha);
      const z3::expr fb1 = encode_numeric(ctx, *sk.body(), s1_vars.back(), hb);
      const z3::expr fb2 = encode_numeric(ctx, *sk.body(), s2_vars.back(), hb);
      solver.add(fa1 >= fa2 + margin);
      solver.add(fb2 >= fb1 + margin);
      if (bounds) {
        const z3::expr lo = real_of_double(ctx, bounds->lo);
        const z3::expr hi = real_of_double(ctx, bounds->hi);
        for (const z3::expr& f : {fa1, fa2, fb1, fb2}) {
          solver.add(f >= lo);
          solver.add(f <= hi);
        }
      }
    }

    // Multiple pairs must be genuinely different questions: each pair's
    // preferred scenario must differ from every earlier pair's by at least
    // 1% of some metric's range. (Without this the solver happily returns k
    // copies of one disagreement and the extra answers teach nothing.) The
    // over-constrained query going UNSAT does NOT prove ranking uniqueness —
    // fewer than k separated witnesses may remain — so that case re-checks
    // with a single pair.
    for (int p = 1; p < num_pairs; ++p) {
      for (int q = 0; q < p; ++q) {
        z3::expr separated = ctx.bool_val(false);
        for (std::size_t m = 0; m < sk.metrics().size(); ++m) {
          const sketch::MetricSpec& spec = sk.metrics()[m];
          const z3::expr delta =
              real_of_double(ctx, (spec.hi - spec.lo) * 0.01);
          separated = separated || (s1_vars[p][m] - s1_vars[q][m] >= delta) ||
                      (s1_vars[q][m] - s1_vars[p][m] >= delta);
        }
        solver.add(separated);
      }
    }
  }

  void intern_vertices(const sketch::Sketch& sk,
                       const pref::PreferenceGraph& graph) {
    for (pref::VertexId v = values[0].size(); v < graph.vertex_count(); ++v) {
      const std::vector<z3::expr> metrics =
          encode_scenario(ctx, graph.scenario(v).metrics);
      for (std::size_t c = 0; c < holes.size(); ++c) {
        values[c].push_back(encode_numeric(ctx, *sk.body(), metrics, holes[c]));
      }
    }
  }

  /// Brings the encoding up to date with `graph`, asserting only what is
  /// new. Returns false when the graph is not an extension of what was
  /// already asserted (an edge/tie was removed or replaced — repair,
  /// transitive reduction, drop_lightest_edge) — the caller must rebuild.
  bool sync(const sketch::Sketch& sk, const FinderConfig& config,
            const pref::PreferenceGraph& graph) {
    const auto& edges = graph.edges();
    const auto& ties = graph.ties();
    if (edges.size() < edges_asserted.size() ||
        ties.size() < ties_asserted.size()) {
      return false;
    }
    for (std::size_t i = 0; i < edges_asserted.size(); ++i) {
      if (!same_constraint(edges[i], edges_asserted[i])) return false;
    }
    for (std::size_t i = 0; i < ties_asserted.size(); ++i) {
      if (ties[i] != ties_asserted[i]) return false;
    }
    const bool grew = edges.size() > edges_asserted.size() ||
                      ties.size() > ties_asserted.size();
    if (!grew && tie_level_open) return true;

    intern_vertices(sk, graph);
    if (tie_level_open) solver.pop(1);  // drop every tie; re-asserted below
    for (std::size_t i = edges_asserted.size(); i < edges.size(); ++i) {
      const pref::Edge& e = edges[i];
      for (const std::vector<z3::expr>& f : values) {
        solver.add(f[e.better] > f[e.worse]);
      }
      edges_asserted.push_back(e);
    }
    solver.push();
    tie_level_open = true;
    // Tie bound gets a hair of slack over the oracle's tolerance so that
    // exact rational arithmetic never rejects the (double-evaluated) ground
    // truth.
    const z3::expr bound = real_of_double(ctx, config.tie_tolerance + 1e-9);
    for (const auto& [u, v] : ties) {
      for (const std::vector<z3::expr>& f : values) {
        solver.add(f[u] - f[v] <= bound);
        solver.add(f[v] - f[u] <= bound);
      }
    }
    ties_asserted = ties;
    return true;
  }
};

Z3Finder::Z3Finder(sketch::Sketch sketch, FinderConfig config, Viability viability,
                   ScenarioDomain domain)
    : sketch_(std::move(sketch)),
      config_(config),
      viability_(std::move(viability)),
      domain_(std::move(domain)) {
  validate_domain(sketch_, domain_);
  if (config_.distinguish_margin <= config_.tie_tolerance) {
    throw std::invalid_argument(
        "Z3Finder: distinguish_margin must exceed tie_tolerance "
        "(otherwise an oracle tie answer cannot eliminate candidates)");
  }
  // Interval analysis: a finite, NaN/error-free enclosure of the objective
  // over the whole input space can be asserted on every encoded objective
  // term. The bound is implied by the existing range/grid constraints, so
  // verdicts (sat/unsat) are unchanged; it only narrows the real search.
  const sketch::AnalysisResult analysis = sketch::analyze(sketch_);
  if (analysis.well_typed && !analysis.output.maybe_nan &&
      !analysis.output.maybe_error && analysis.output.finite()) {
    objective_bounds_ = analysis.output;
  }
}

Z3Finder::~Z3Finder() = default;

void Z3Finder::log_query(z3::solver& solver, const char* kind) {
  if (query_log_ == nullptr) return;
  *query_log_ << "; compsynth query " << query_count_ << " (" << kind << ")\n"
              << solver.to_smt2() << "\n";
}

void Z3Finder::observe_graph(const pref::PreferenceGraph& graph) {
  bool match = interned_metrics_.size() <= graph.vertex_count();
  for (std::size_t v = 0; match && v < interned_metrics_.size(); ++v) {
    match = interned_metrics_[v] == graph.scenario(v).metrics;
  }
  if (!match) {
    encodings_.clear();
    interned_metrics_.clear();
  }
  for (std::size_t v = interned_metrics_.size(); v < graph.vertex_count();
       ++v) {
    interned_metrics_.push_back(graph.scenario(v).metrics);
  }
}

// --- Checking -------------------------------------------------------------

// check_query under the fault injector, when one is attached: a check may
// be preceded by an injected slowdown and/or replaced by an injected
// transient failure; failures are retried with backoff per `config_.retry`
// ("fault"/"retry" events, z3.failures / z3.retries counters) and degrade
// to `unknown` once the budget is spent.
CheckOutcome Z3Finder::timed_check(z3::context& ctx, z3::solver& s,
                                   const char* kind, long index) {
  util::FaultInjector* injector = injector_.get();
  for (int attempt = 1;; ++attempt) {
    if (injector != nullptr && injector->z3_slowdown()) {
      util::sleep_seconds(injector->plan().z3_slowdown_s);
    }
    if (injector == nullptr || !injector->z3_failure()) {
      return check_query(ctx, s, config_.timeout_ms, obs_, kind, index,
                         attempt);
    }
    if (obs::active(obs_)) {
      obs_->count("z3.failures");
      if (obs_->tracing()) {
        obs::TraceEvent e("fault");
        e.str("site", "z3").str("kind", "failure").str("op", kind)
            .integer("index", index).integer("attempt", attempt);
        obs_->emit(e);
      }
    }
    if (attempt >= config_.retry.max_attempts) {
      util::log(util::LogLevel::kWarn,
                "Z3Finder: transient failure persisted past the retry "
                "budget; reporting unknown");
      return {};
    }
    const double backoff = config_.retry.backoff_before(attempt + 1);
    if (obs::active(obs_)) {
      obs_->count("z3.retries");
      if (obs_->tracing()) {
        obs::TraceEvent e("retry");
        e.str("site", "z3").str("op", kind).integer("attempt", attempt + 1)
            .num("backoff_s", backoff);
        obs_->emit(e);
      }
    }
    util::sleep_seconds(backoff);
  }
}

// --- Queries --------------------------------------------------------------

FinderResult Z3Finder::resolve_unsat(const pref::PreferenceGraph& graph,
                                     int num_pairs) {
  if (num_pairs > 1) return find_distinguishing(graph, 1);
  // Distinguish "no candidate at all" from "unique ranking", and carry
  // the unique ranking's representative out to the caller.
  FinderResult res;
  if (auto representative = find_consistent(graph)) {
    res.status = FinderStatus::kUniqueRanking;
    res.candidate_a = *std::move(representative);
  } else {
    res.status = FinderStatus::kNoCandidate;
  }
  return res;
}

Z3Finder::Encoding& Z3Finder::encoding_for(const pref::PreferenceGraph& graph,
                                           int num_pairs) {
  observe_graph(graph);
  std::unique_ptr<Encoding>& slot = encodings_[num_pairs];
  if (slot != nullptr && !slot->sync(sketch_, config_, graph)) slot.reset();
  const bool reuse = slot != nullptr;
  if (!reuse) {
    slot = std::make_unique<Encoding>(sketch_, config_, domain_,
                                      objective_bounds_, num_pairs);
    slot->sync(sketch_, config_, graph);
  }
  if (obs::active(obs_)) {
    obs_->count(reuse ? "z3.incremental_reuses" : "z3.incremental_builds");
    if (obs_->tracing()) {
      obs::TraceEvent e("z3_incremental");
      e.str("kind", num_pairs > 0 ? "distinguishing" : "consistent")
          .str("op", reuse ? "reuse" : "build")
          .integer("edges", static_cast<long>(graph.edges().size()))
          .integer("ties", static_cast<long>(graph.ties().size()));
      obs_->emit(e);
    }
  }
  return *slot;
}

FinderResult Z3Finder::find_distinguishing(const pref::PreferenceGraph& graph,
                                           int num_pairs) {
  if (num_pairs < 1) throw std::invalid_argument("find_distinguishing: num_pairs < 1");
  Encoding& enc = encoding_for(graph, num_pairs);
  z3::solver& solver = enc.solver;
  z3::context& ctx = enc.ctx;
  const CallScope scope(solver);

  for (int attempt = 0; attempt < kMaxViabilityBlocks; ++attempt) {
    ++query_count_;
    log_query(solver, "distinguishing");
    const CheckOutcome out =
        timed_check(ctx, solver, "distinguishing", query_count_);
    if (out.result == z3::unsat) return resolve_unsat(graph, num_pairs);
    if (out.result == z3::unknown) {
      FinderResult res;
      res.status = FinderStatus::kUnknown;
      return res;
    }

    const z3::model& model = *out.model;
    FinderResult res;
    res.status = FinderStatus::kFound;
    res.candidate_a = assignment_of(model, sketch_, enc.holes[0]);
    res.candidate_b = assignment_of(model, sketch_, enc.holes[1]);

    if (viability_.concrete) {
      const std::vector<double> va = sketch_.hole_values(res.candidate_a);
      const std::vector<double> vb = sketch_.hole_values(res.candidate_b);
      z3::expr block = ctx.bool_val(false);
      bool blocked = false;
      if (!viability_.concrete(va)) {
        block = block || !holes_equal(ctx, enc.holes[0], va);
        blocked = true;
      }
      if (!viability_.concrete(vb)) {
        block = block || !holes_equal(ctx, enc.holes[1], vb);
        blocked = true;
      }
      if (blocked) {
        solver.add(block);
        continue;  // re-check with the non-viable assignment(s) excluded
      }
    }

    for (int p = 0; p < num_pairs; ++p) {
      DistinguishingPair pair;
      for (const z3::expr& v : enc.s1_vars[p]) {
        pair.preferred_by_a.metrics.push_back(value_of(model, v));
      }
      for (const z3::expr& v : enc.s2_vars[p]) {
        pair.preferred_by_b.metrics.push_back(value_of(model, v));
      }
      res.pairs.push_back(std::move(pair));
    }
    return res;
  }
  util::log(util::LogLevel::kWarn, "Z3Finder: viability blocking budget exhausted");
  { FinderResult res; res.status = FinderStatus::kUnknown; return res; }
}

std::optional<sketch::HoleAssignment> Z3Finder::find_consistent(
    const pref::PreferenceGraph& graph) {
  Encoding& enc = encoding_for(graph, 0);
  const std::vector<z3::expr>& holes = enc.holes[0];
  z3::solver& solver = enc.solver;
  z3::context& ctx = enc.ctx;
  const CallScope scope(solver);

  for (int attempt = 0; attempt < kMaxViabilityBlocks; ++attempt) {
    ++query_count_;
    log_query(solver, "consistent");
    const CheckOutcome out = timed_check(ctx, solver, "consistent", query_count_);
    if (out.result != z3::sat) return std::nullopt;
    sketch::HoleAssignment a = assignment_of(*out.model, sketch_, holes);
    const std::vector<double> vals = sketch_.hole_values(a);
    if (!viability_.concrete || viability_.concrete(vals)) return a;
    solver.add(!holes_equal(ctx, holes, vals));
  }
  util::log(util::LogLevel::kWarn, "Z3Finder: viability blocking budget exhausted");
  return std::nullopt;
}

std::string Z3Finder::save_state() const {
  std::ostringstream os;
  os << "z3finder 1\nqueries " << query_count_ << "\nfaults "
     << (injector_ != nullptr ? 1 : 0) << '\n';
  if (injector_ != nullptr) os << injector_->save_state();
  return os.str();
}

void Z3Finder::restore_state(const std::string& state) {
  const auto bad = [](const char* why) {
    throw std::invalid_argument(std::string("Z3Finder::restore_state: ") + why);
  };
  std::istringstream in(state);
  std::string tag;
  int version = 0;
  if (!(in >> tag >> version) || tag != "z3finder") bad("malformed header");
  if (version != 1) bad("unsupported version");
  long queries = 0;
  if (!(in >> tag >> queries) || tag != "queries") bad("malformed counter");
  int had_injector = 0;
  if (!(in >> tag >> had_injector) || tag != "faults") bad("malformed flag");
  if ((had_injector != 0) != (injector_ != nullptr)) {
    bad("fault injector presence mismatch (configure the same FaultPlan "
        "before restoring)");
  }
  if (injector_ != nullptr) {
    in.ignore();  // newline before the injector's own two lines
    std::string counters, rng;
    if (!std::getline(in, counters) || !std::getline(in, rng)) {
      bad("truncated injector state");
    }
    injector_->restore_state(counters + '\n' + rng + '\n');
  }
  query_count_ = queries;
}

}  // namespace compsynth::solver
