// The paper's SMT-backed candidate finder (native Z3 C++ API).
//
// Encodes exactly the §4.2 query:
//
//   exists fa, fb, s1, s2 .
//        Viable(fa) /\ Viable(fb)
//     /\ for every edge (u > v) in G:  fa(u) > fa(v)  /\  fb(u) > fb(v)
//     /\ fa(s1) > fa(s2)  /\  fb(s2) > fb(s1)        (with margin)
//     /\ ClosedInRange(s1) /\ ClosedInRange(s2)
//
// Hole variables are reals constrained to their finite grids (pure QF_NRA),
// so UNSAT exactly means "all viable G-consistent candidates induce the same
// margin-separated ranking" and synthesis can stop.
//
// Every query goes to Z3 (docs/SOLVER.md §The encoding). One encoding per
// query shape stays alive across iterations via push/pop and asserts only
// the preference graph's new constraints each round; a graph that is not an
// append-only extension rebuilds it, with the identical assertion list.
#pragma once

#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sketch/analyze.h"
#include "solver/finder.h"

namespace z3 {
class context;  // from z3++.h; kept out of this header deliberately
class solver;
}

namespace compsynth::solver {

struct CheckOutcome;  // solver/z3_encoder.h

class Z3Finder final : public CandidateFinder {
 public:
  /// Binds the finder to a sketch (copied; sketches are cheap shared-body
  /// values). `viability.concrete` is enforced via model blocking, which is
  /// sound and complete over the finite hole grid.
  explicit Z3Finder(sketch::Sketch sketch, FinderConfig config = {},
                    Viability viability = {}, ScenarioDomain domain = {});
  ~Z3Finder() override;

  FinderResult find_distinguishing(const pref::PreferenceGraph& graph,
                                   int num_pairs) override;

  std::optional<sketch::HoleAssignment> find_consistent(
      const pref::PreferenceGraph& graph) override;

  /// Streams every emitted query as SMT-LIB2 text to `log` (nullptr
  /// disables). Useful for debugging encodings and replaying queries with
  /// other solvers. The stream must outlive the finder.
  void set_query_log(std::ostream* log) { query_log_ = log; }

  /// Fault injection (util::FaultPlan): each solver check may be preceded by
  /// an injected slowdown and/or replaced by an injected transient failure,
  /// which is retried per FinderConfig::retry with backoff ("fault"/"retry"
  /// trace events, z3.failures / z3.retries counters). A check that keeps
  /// failing after the attempt budget reports `unknown`, which the
  /// synthesizer surfaces as kSolverGaveUp rather than crashing the session.
  /// The injector's decision stream is part of save_state when attached.
  void set_fault_injector(std::shared_ptr<util::FaultInjector> injector) {
    injector_ = std::move(injector);
  }

  /// Durable-session persistence: the query counter plus the attached fault
  /// injector's decision stream (when any), so a resumed run keeps stable
  /// query indices in traces and replays the identical fault sequence. The
  /// encodings are deliberately not part of the state: they are
  /// rebuilt from the graph on the next query, and the canonical assertion
  /// order guarantees the rebuilt solver answers identically.
  std::string save_state() const override;
  void restore_state(const std::string& state) override;

  // The sketch+G encoding (defined in z3_finder.cpp; public so the
  // implementation struct can be out-of-line without friend gymnastics).
  struct Encoding;

 private:
  /// The shared UNSAT epilogue of the distinguishing query: multi-pair
  /// queries retry with a single pair (fewer separated witnesses may remain
  /// even when k do not), then find_consistent splits "unique ranking" from
  /// "no candidate".
  FinderResult resolve_unsat(const pref::PreferenceGraph& graph, int num_pairs);

  CheckOutcome timed_check(z3::context& ctx, z3::solver& s, const char* kind,
                           long index);
  void log_query(z3::solver& solver, const char* kind);

  /// The live encoding for `num_pairs` (0 = the consistency query), synced
  /// to `graph` or rebuilt when `graph` does not extend what it asserted;
  /// emits the z3_incremental reuse/build event.
  Encoding& encoding_for(const pref::PreferenceGraph& graph, int num_pairs);

  /// Guards every memoized structure against a caller switching to an
  /// unrelated graph mid-lifetime: if a previously seen vertex id now names
  /// a different scenario, the encodings are invalidated.
  void observe_graph(const pref::PreferenceGraph& graph);

  sketch::Sketch sketch_;
  FinderConfig config_;
  Viability viability_;
  ScenarioDomain domain_;
  /// Interval enclosure from the static analyzer (computed once in the
  /// ctor): a proven bound on the objective over the full metric box x
  /// hole grid. Asserted as redundant-but-sound bounds on every encoded
  /// objective term, which narrows nlsat's search without changing any
  /// verdict. Absent when the analysis cannot certify a clean finite bound
  /// (possible NaN / EvalError / unbounded output).
  std::optional<sketch::Interval> objective_bounds_;
  long query_count_ = 0;
  std::ostream* query_log_ = nullptr;
  std::shared_ptr<util::FaultInjector> injector_;
  /// Metric vectors of the vertices the encodings were built against
  /// (observe_graph's staleness check).
  std::vector<std::vector<double>> interned_metrics_;

  /// Live encodings keyed by num_pairs: one distinguishing encoding per
  /// requested pair count, plus the consistency encoding at key 0.
  std::map<int, std::unique_ptr<Encoding>> encodings_;
};

}  // namespace compsynth::solver
