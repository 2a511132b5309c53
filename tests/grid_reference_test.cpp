// Brute-force references for GridFinder.
//
// GridFinder has one sync engine: the lane tape over fixed-range shards
// (docs/EVALUATOR.md). These tests hold it to the plainest statement of the
// version space, computed by brute force with the tree interpreter: walk
// every linear candidate index in order (hole 0 fastest), skip candidates
// the Viability callback rejects, and keep a candidate when every edge's
// better vertex scores strictly above its worse vertex and every tie's two
// vertices lie within tie_tolerance + 1e-9 — constraints checked in graph
// order, better/first vertex before worse/second, stopping at the first
// failure. The first sketch::EvalError met that way, in candidate order, is
// the one sync must throw.
//
// The comparison covers SWAN, ABR-QoE, homenet and a 13-candidate sketch
// (one full lane group plus a tail); every lane ISA the host supports; 1 and
// 4 threads; full and incremental syncs; a concrete Viability callback; and
// a sketch whose candidates raise (division by zero — the only evaluation
// error a type-checked sketch can hit). It checks survivor linear indices
// and their decoded assignments, and it checks an incremental sync that
// follows a save_state / restore_state round trip.
//
// Pair search and bisection scoring run on the same lane tape, and the
// PairSearch* / Bisection* tests hold them to the tree interpreter too: every
// returned pair really distinguishes its two candidates by the margin, both
// candidates are survivors, the question sequence does not depend on the
// lane ISA or the thread count, and kBisection scores every witness exactly
// as a plain sketch::eval_with_values scorer does.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "pref/graph.h"
#include "sketch/compile.h"
#include "sketch/eval.h"
#include "sketch/library.h"
#include "sketch/parser.h"
#include "solver/grid_finder.h"
#include "util/rng.h"

namespace compsynth::solver {
namespace {

const double kTieTolerance = FinderConfig{}.tie_tolerance;

struct ReferenceSurvivor {
  std::int64_t linear = 0;
  sketch::HoleAssignment assignment;
  std::vector<double> hole_values;
};

struct Reference {
  std::vector<ReferenceSurvivor> survivors;
  /// what() of the first EvalError in candidate order, if any candidate
  /// raised before being ruled out.
  std::optional<std::string> error;
};

Reference reference_sync(const sketch::Sketch& sk,
                         const pref::PreferenceGraph& graph,
                         const Viability& viability = {}) {
  const double tie_bound = kTieTolerance + 1e-9;
  Reference ref;
  for (std::int64_t linear = 0; linear < sk.candidate_space_size(); ++linear) {
    ReferenceSurvivor c;
    c.linear = linear;
    std::int64_t rest = linear;
    for (const sketch::HoleSpec& h : sk.holes()) {
      c.assignment.index.push_back(rest % h.count);
      rest /= h.count;
    }
    c.hole_values = sk.hole_values(c.assignment);
    if (viability.concrete && !viability.concrete(c.hole_values)) continue;
    const auto f = [&](pref::VertexId v) {
      return sketch::eval_with_values(sk, c.hole_values,
                                      graph.scenario(v).metrics);
    };
    bool keep = true;
    try {
      for (const pref::Edge& e : graph.edges()) {
        const double better = f(e.better);
        const double worse = f(e.worse);
        if (!(better > worse)) {
          keep = false;
          break;
        }
      }
      for (std::size_t t = 0; keep && t < graph.ties().size(); ++t) {
        const double fu = f(graph.ties()[t].first);
        const double fv = f(graph.ties()[t].second);
        if (std::abs(fu - fv) > tie_bound) keep = false;
      }
    } catch (const sketch::EvalError& err) {
      ref.error = err.what();
      return ref;
    }
    if (keep) ref.survivors.push_back(std::move(c));
  }
  return ref;
}

void expect_matches(const GridFinder& finder, const Reference& ref,
                    const std::string& what) {
  ASSERT_FALSE(ref.error.has_value()) << what << ": " << *ref.error;
  const std::vector<std::int64_t>& got = finder.survivors();
  ASSERT_EQ(got.size(), ref.survivors.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const ReferenceSurvivor& want = ref.survivors[i];
    ASSERT_EQ(got[i], want.linear) << what << ", survivor " << i;
    ASSERT_EQ(finder.assignment_at(got[i]), want.assignment)
        << what << ", survivor " << i;
  }
}

/// Appends `n` random scenarios from the sketch's metric box and the
/// answers a user with hole values `target` gives for every pair involving
/// a new one — append-only, as the interaction loop grows the graph.
void grow(pref::PreferenceGraph& graph, const sketch::Sketch& sk,
          const std::vector<double>& target, int n, util::Rng& rng) {
  const pref::VertexId first_new = graph.vertex_count();
  for (int i = 0; i < n; ++i) {
    pref::Scenario s;
    for (const sketch::MetricSpec& m : sk.metrics()) {
      s.metrics.push_back(rng.uniform_real(m.lo, m.hi));
    }
    graph.intern(s);
  }
  const auto score = [&](pref::VertexId v) {
    return sketch::eval_with_values(sk, target, graph.scenario(v).metrics);
  };
  for (pref::VertexId j = first_new; j < graph.vertex_count(); ++j) {
    for (pref::VertexId i = 0; i < j; ++i) {
      const double fi = score(i);
      const double fj = score(j);
      if (std::abs(fi - fj) <= kTieTolerance) {
        graph.add_tie(i, j);
      } else if (fi > fj) {
        graph.add_preference(i, j);
      } else {
        graph.add_preference(j, i);
      }
    }
  }
}

std::vector<sketch::LaneIsa> supported_isas() {
  std::vector<sketch::LaneIsa> out;
  for (const sketch::LaneIsa isa :
       {sketch::LaneIsa::kScalar, sketch::LaneIsa::kAvx2}) {
    if (sketch::lane_isa_supported(isa)) out.push_back(isa);
  }
  return out;
}

// Restores the dispatched lane kernel when a test that forces ISAs exits.
struct IsaOverride {
  sketch::LaneIsa saved = sketch::active_lane_isa();
  explicit IsaOverride(sketch::LaneIsa isa) {
    EXPECT_TRUE(sketch::set_active_lane_isa(isa));
  }
  ~IsaOverride() { sketch::set_active_lane_isa(saved); }
};

GridFinder make_finder(const sketch::Sketch& sk, int threads,
                       const Viability& viability = {}) {
  GridFinderConfig config;
  config.threads = threads;
  return GridFinder(sk, config, viability);
}

/// Syncs a `first`-scenario graph (full rebuild), grows it by `more`
/// scenarios and syncs again (incremental filter), then rebuilds from
/// scratch on the grown graph — under every supported ISA at 1 and 4
/// threads, each result against the reference. With `via_restore`, the
/// incremental filter runs in a fresh finder restored from the first
/// finder's save_state.
void check_against_reference(const sketch::Sketch& sk,
                             const std::vector<double>& target, int first,
                             int more, std::uint64_t seed,
                             const Viability& viability = {},
                             bool via_restore = false) {
  util::Rng rng(seed);
  pref::PreferenceGraph graph;
  grow(graph, sk, target, first, rng);
  pref::PreferenceGraph grown = graph;
  grow(grown, sk, target, more, rng);
  const Reference ref = reference_sync(sk, graph, viability);
  const Reference grown_ref = reference_sync(sk, grown, viability);
  ASSERT_FALSE(grown_ref.survivors.empty())
      << "the target itself must survive";
  ASSERT_LT(grown_ref.survivors.size(), ref.survivors.size())
      << "the added answers must shrink the version space";

  for (const sketch::LaneIsa isa : supported_isas()) {
    IsaOverride force(isa);
    for (const int threads : {1, 4}) {
      const std::string what = sk.name() + " " + sketch::lane_isa_name(isa) +
                               " x" + std::to_string(threads);
      GridFinder finder = make_finder(sk, threads, viability);
      finder.sync(graph);
      expect_matches(finder, ref, what + " full");
      GridFinder restored = make_finder(sk, threads, viability);
      if (via_restore) {
        restored.restore_state(finder.save_state());
        expect_matches(restored, ref, what + " restored");
      }
      GridFinder& incremental = via_restore ? restored : finder;
      incremental.sync(grown);
      expect_matches(incremental, grown_ref, what + " incremental");
      GridFinder fresh = make_finder(sk, threads, viability);
      fresh.sync(grown);
      expect_matches(fresh, grown_ref, what + " full, grown");
    }
  }
}

std::vector<double> middle_values(const sketch::Sketch& sk) {
  sketch::HoleAssignment a;
  for (const sketch::HoleSpec& h : sk.holes()) a.index.push_back(h.count / 2);
  return sk.hole_values(a);
}

TEST(GridFinderReference, Swan) {
  const sketch::Sketch& sk = sketch::swan_sketch();
  check_against_reference(sk, sk.hole_values(sketch::swan_target()), 6, 4, 77);
}

TEST(GridFinderReference, AbrQoe) {
  const sketch::Sketch& sk = sketch::abr_qoe_sketch();
  check_against_reference(sk, middle_values(sk), 5, 3, 13);
}

TEST(GridFinderReference, Homenet) {
  const sketch::Sketch& sk = sketch::homenet_sketch();
  check_against_reference(sk, middle_values(sk), 2, 4, 14);
}

TEST(GridFinderReference, IncrementalSyncAfterRestoreMatchesReference) {
  // The incremental filter of a restored finder starts from the survivor
  // list and sync cursors decoded from the snapshot alone.
  const sketch::Sketch& swan = sketch::swan_sketch();
  check_against_reference(swan, swan.hole_values(sketch::swan_target()), 6, 4,
                          77, {}, /*via_restore=*/true);
  const sketch::Sketch& abr = sketch::abr_qoe_sketch();
  check_against_reference(abr, middle_values(abr), 5, 3, 13, {},
                          /*via_restore=*/true);
  const sketch::Sketch& homenet = sketch::homenet_sketch();
  check_against_reference(homenet, middle_values(homenet), 2, 4, 14, {},
                          /*via_restore=*/true);
}

TEST(GridFinderReference, TailGroupNarrowerThanLaneWidth) {
  // 13 candidates: one full lane group plus a 5-wide tail. The target
  // (a = 0) scores every m > 5 scenario 0 and every other one 1, so the
  // graph holds ties as well as edges, and only the ties among m > 5
  // scenarios rule out the candidates with small a.
  const sketch::Sketch sk = sketch::parse_sketch(
      "sketch tail(m in [0, 10]) {"
      "  hole a in grid(0, 0.25, 13);"
      "  if m > 5 then a * (m - 5) else 1"
      "}");
  ASSERT_NE(static_cast<std::size_t>(sk.candidate_space_size()) %
                sketch::kBatchLaneWidth,
            0u);
  check_against_reference(sk, {0.0}, 1, 3, 5);
}

TEST(GridFinderReference, ConcreteViabilityCallback) {
  // Keeps only candidates whose first slope does not exceed the second
  // (about half the SWAN grid, the Fig. 2b target included); the rejected
  // ones must vanish from every sync.
  const sketch::Sketch& sk = sketch::swan_sketch();
  Viability viability;
  viability.concrete = [](std::span<const double> holes) {
    return holes[2] <= holes[3];
  };
  check_against_reference(sk, sk.hole_values(sketch::swan_target()), 6, 4, 78,
                          viability);
}

// A sketch whose candidates (a, b) = (3, 10) and (12, 450) divide by zero
// at m == 5 and only there. Candidate order is linear a + 13 b, so 133
// comes before 5862, and 13 x 700 = 9100 candidates span three fixed-range
// shards (the two raising candidates fall in the first and the second).
// Every other candidate scores b - a * m, which prefers small m when a > 0.
const sketch::Sketch& raising_sketch() {
  static const sketch::Sketch sk = sketch::parse_sketch(
      "sketch raising(m in [0, 10]) {"
      "  hole a in grid(0, 1, 13);"
      "  hole b in grid(0, 1, 700);"
      "  if (a == 3 && b == 10) || (a == 12 && b == 450)"
      "  then m / (m - 5) else b - a * m"
      "}");
  return sk;
}

// Both raising candidates are viable by default; `skip` names the ones the
// callback rejects (by a value).
Viability rejecting(std::vector<double> skip) {
  Viability v;
  v.concrete = [skip = std::move(skip)](std::span<const double> holes) {
    for (const double a : skip) {
      if (holes[0] == a) return false;
    }
    return true;
  };
  return v;
}

// Interns the scenarios m = 2, 5, 8, 9 and adds, in this order, `edges` of
// (better m, worse m).
pref::PreferenceGraph edge_graph(
    const std::vector<std::pair<double, double>>& edges) {
  pref::PreferenceGraph graph;
  const auto at = [&](double m) {
    pref::Scenario s;
    s.metrics.push_back(m);
    return graph.intern(s);
  };
  for (const double m : {2.0, 5.0, 8.0, 9.0}) at(m);
  for (const auto& [better, worse] : edges) {
    graph.add_preference(at(better), at(worse));
  }
  return graph;
}

/// Runs sync under every supported ISA at 1 and 4 threads and checks it
/// against `ref`: the same EvalError message when the reference raises,
/// the same survivors otherwise. `before`, when given, is synced first so
/// that the checked sync is an incremental one.
void check_raising(const pref::PreferenceGraph& graph,
                   const Viability& viability, const std::string& what,
                   const pref::PreferenceGraph* before = nullptr) {
  const sketch::Sketch& sk = raising_sketch();
  const Reference ref = reference_sync(sk, graph, viability);
  for (const sketch::LaneIsa isa : supported_isas()) {
    IsaOverride force(isa);
    for (const int threads : {1, 4}) {
      const std::string where = what + ", " + sketch::lane_isa_name(isa) +
                                " x" + std::to_string(threads);
      GridFinder finder = make_finder(sk, threads, viability);
      if (before != nullptr) finder.sync(*before);
      std::optional<std::string> error;
      try {
        finder.sync(graph);
      } catch (const sketch::EvalError& err) {
        error = err.what();
      }
      EXPECT_EQ(error, ref.error) << where;
      if (!ref.error.has_value()) {
        expect_matches(finder, ref, where);
      }
    }
  }
}

TEST(GridFinderReference, RaisingCandidatesMatchReference) {
  // m = 5 is the better end of the first edge, so each viable raising
  // candidate raises on its first evaluation.
  const pref::PreferenceGraph graph = edge_graph({{5, 9}, {2, 8}});
  check_raising(graph, {}, "both raise");
  check_raising(graph, rejecting({3}), "first not viable");
  check_raising(graph, rejecting({12}), "second not viable");
  check_raising(graph, rejecting({3, 12}), "neither viable");
  EXPECT_TRUE(reference_sync(raising_sketch(), graph).error.has_value());
  EXPECT_FALSE(
      reference_sync(raising_sketch(), graph, rejecting({3, 12})).error);
}

TEST(GridFinderReference, ErrorBehindAFailedConstraintIsNotRaised) {
  // Each raising candidate scores 2/(2-5) < 8/(8-5), so the (2, 8) edge
  // rules it out; when that edge comes first, the m = 5 vertex is never
  // evaluated for it, although the lane tape evaluates m = 5 for its
  // whole lane group.
  const pref::PreferenceGraph safe = edge_graph({{2, 8}, {5, 9}});
  check_raising(safe, {}, "failed edge first");
  ASSERT_FALSE(reference_sync(raising_sketch(), safe).error.has_value());

  // Incremental: the first sync already ruled the raising candidates out,
  // so the new edge through m = 5 never reaches them.
  const pref::PreferenceGraph prefix = edge_graph({{2, 8}});
  check_raising(safe, {}, "incremental, failed edge first", &prefix);
}

TEST(GridFinderReference, IncrementalSyncRaisesLikeTheReference) {
  // Nothing is evaluated against a graph without constraints, so every
  // candidate survives the first sync; the incremental filter then reaches
  // the raising candidates through the new edge.
  const pref::PreferenceGraph empty = edge_graph({});
  const pref::PreferenceGraph graph = edge_graph({{5, 9}});
  ASSERT_TRUE(reference_sync(raising_sketch(), graph).error.has_value());
  check_raising(graph, {}, "incremental", &empty);
  check_raising(graph, rejecting({3, 12}), "incremental, neither viable",
                &empty);
}

// --- Pair search and bisection scoring ---------------------------------------

/// The answer a user with hole values `target` gives to `pair`, recorded in
/// `graph` the way the synthesizer records it.
void answer(pref::PreferenceGraph& graph, const sketch::Sketch& sk,
            const std::vector<double>& target, const DistinguishingPair& pair) {
  const pref::VertexId u = graph.intern(pair.preferred_by_a);
  const pref::VertexId v = graph.intern(pair.preferred_by_b);
  const double fu = sketch::eval_with_values(sk, target, graph.scenario(u).metrics);
  const double fv = sketch::eval_with_values(sk, target, graph.scenario(v).metrics);
  if (std::abs(fu - fv) <= kTieTolerance) {
    graph.add_tie(u, v);
  } else if (fu > fv) {
    graph.add_preference(u, v);
  } else {
    graph.add_preference(v, u);
  }
}

bool is_survivor(const GridFinder& finder, const sketch::HoleAssignment& a) {
  return std::any_of(
      finder.survivors().begin(), finder.survivors().end(),
      [&](std::int64_t linear) { return finder.assignment_at(linear) == a; });
}

/// Runs up to `iterations` rounds of find_distinguishing (two pairs asked
/// per round) against a user with hole values `target`, re-checking every
/// returned pair with the tree interpreter, and returns the result sequence.
std::vector<FinderResult> drive_pair_search(const sketch::Sketch& sk,
                                            const std::vector<double>& target,
                                            const GridFinderConfig& config,
                                            int iterations,
                                            const std::string& what) {
  const double margin = config.base.distinguish_margin;
  GridFinder finder(sk, config);
  pref::PreferenceGraph graph;
  std::vector<FinderResult> results;
  for (int it = 0; it < iterations; ++it) {
    FinderResult res = finder.find_distinguishing(graph, /*num_pairs=*/2);
    const std::string where = what + ", iteration " + std::to_string(it);
    if (res.status == FinderStatus::kFound) {
      EXPECT_TRUE(is_survivor(finder, res.candidate_a)) << where;
      EXPECT_TRUE(is_survivor(finder, res.candidate_b)) << where;
      EXPECT_FALSE(res.pairs.empty()) << where;
      const std::vector<double> ha = sk.hole_values(res.candidate_a);
      const std::vector<double> hb = sk.hole_values(res.candidate_b);
      for (const DistinguishingPair& p : res.pairs) {
        const auto f = [&](const std::vector<double>& holes,
                           const pref::Scenario& s) {
          return sketch::eval_with_values(sk, holes, s.metrics);
        };
        EXPECT_GE(f(ha, p.preferred_by_a), f(ha, p.preferred_by_b) + margin)
            << where << ": a does not prefer its scenario by the margin";
        EXPECT_GE(f(hb, p.preferred_by_b), f(hb, p.preferred_by_a) + margin)
            << where << ": b does not prefer its scenario by the margin";
        answer(graph, sk, target, p);
      }
    }
    const bool found = res.status == FinderStatus::kFound;
    results.push_back(std::move(res));
    if (!found) break;
  }
  return results;
}

void expect_same_sequence(const std::vector<FinderResult>& want,
                          const std::vector<FinderResult>& got,
                          const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const std::string where = what + ", iteration " + std::to_string(i);
    ASSERT_EQ(got[i].status, want[i].status) << where;
    ASSERT_EQ(got[i].candidate_a, want[i].candidate_a) << where;
    ASSERT_EQ(got[i].candidate_b, want[i].candidate_b) << where;
    ASSERT_EQ(got[i].pairs.size(), want[i].pairs.size()) << where;
    for (std::size_t j = 0; j < want[i].pairs.size(); ++j) {
      ASSERT_EQ(got[i].pairs[j].preferred_by_a.metrics,
                want[i].pairs[j].preferred_by_a.metrics)
          << where << ", pair " << j;
      ASSERT_EQ(got[i].pairs[j].preferred_by_b.metrics,
                want[i].pairs[j].preferred_by_b.metrics)
          << where << ", pair " << j;
    }
  }
}

/// Pair search on `sk` under every supported lane ISA: each run's pairs are
/// re-checked against the tree interpreter, and all runs ask the identical
/// sequence.
void check_pair_search(const sketch::Sketch& sk,
                       const std::vector<double>& target, std::uint64_t seed) {
  GridFinderConfig config;
  config.threads = 1;
  config.seed = seed;
  std::vector<FinderResult> first;
  for (const sketch::LaneIsa isa : supported_isas()) {
    IsaOverride force(isa);
    const std::string what = sk.name() + " " + sketch::lane_isa_name(isa);
    const std::vector<FinderResult> got =
        drive_pair_search(sk, target, config, /*iterations=*/8, what);
    ASSERT_GE(got.size(), 2u) << what;
    ASSERT_EQ(got.front().status, FinderStatus::kFound) << what;
    if (first.empty()) {
      first = got;
    } else {
      expect_same_sequence(first, got, what);
    }
  }
}

TEST(GridFinderReference, PairSearchSwan) {
  const sketch::Sketch& sk = sketch::swan_sketch();
  check_pair_search(sk, sk.hole_values(sketch::swan_target()), 21);
}

TEST(GridFinderReference, PairSearchAbrQoe) {
  const sketch::Sketch& sk = sketch::abr_qoe_sketch();
  check_pair_search(sk, middle_values(sk), 22);
}

TEST(GridFinderReference, PairSearchHomenet) {
  const sketch::Sketch& sk = sketch::homenet_sketch();
  check_pair_search(sk, middle_values(sk), 23);
}

TEST(GridFinderReference, PairSearchRaisesOnADivisionByZero) {
  // Three survivors: (a, b) = (2, 10), (3, 10), (4, 10). (3, 10) divides by
  // zero at m = 5, the metric's midpoint, which pair search's boundary pass
  // always evaluates; the other two rank every scenario alike, so every
  // schedule reaches a pair with the raising candidate. A candidate that
  // raises during pair search raises out of find_distinguishing.
  Viability viability;
  viability.concrete = [](std::span<const double> holes) {
    return holes[1] == 10 && holes[0] >= 2 && holes[0] <= 4;
  };
  const pref::PreferenceGraph empty;
  for (const sketch::LaneIsa isa : supported_isas()) {
    IsaOverride force(isa);
    for (const int threads : {1, 4}) {
      const std::string where = std::string(sketch::lane_isa_name(isa)) +
                                " x" + std::to_string(threads);
      GridFinder finder = make_finder(raising_sketch(), threads, viability);
      std::optional<std::string> error;
      try {
        finder.find_distinguishing(empty, 1);
      } catch (const sketch::EvalError& err) {
        error = err.what();
      }
      EXPECT_EQ(finder.version_space_size(), 3u) << where;
      EXPECT_EQ(error, std::optional<std::string>("division by zero")) << where;
    }
  }
}

struct ReferenceSplit {
  long prefer_1 = 0;  // survivors scoring preferred_by_a strictly higher
  long prefer_2 = 0;  // survivors scoring preferred_by_b strictly higher
  long ties = 0;
  long score() const { return std::min(prefer_1, prefer_2); }
};

ReferenceSplit reference_split(const GridFinder& finder,
                               const sketch::Sketch& sk,
                               const DistinguishingPair& pair) {
  ReferenceSplit split;
  for (const std::int64_t linear : finder.survivors()) {
    const std::vector<double> holes =
        sk.hole_values(finder.assignment_at(linear));
    const double f1 =
        sketch::eval_with_values(sk, holes, pair.preferred_by_a.metrics);
    const double f2 =
        sketch::eval_with_values(sk, holes, pair.preferred_by_b.metrics);
    if (f1 > f2) ++split.prefer_1;
    else if (f2 > f1) ++split.prefer_2;
    else ++split.ties;
  }
  return split;
}

TEST(GridFinderReference, BisectionScoresMatchTheReference) {
  const sketch::Sketch& sk = sketch::swan_sketch();
  const std::vector<double> target = sk.hole_values(sketch::swan_target());
  util::Rng rng(31);
  pref::PreferenceGraph graph;
  grow(graph, sk, target, 3, rng);

  // Witnesses: the first-found pair of a few seeds, random scenario pairs,
  // and zero-throughput pairs (which many survivors score alike), each also
  // reversed so both answers get to be the weaker one.
  std::vector<DistinguishingPair> pairs;
  for (const std::uint64_t seed : {1, 2, 3, 4}) {
    GridFinderConfig config;
    config.threads = 1;
    config.seed = seed;
    GridFinder finder(sk, config);
    const FinderResult res = finder.find_distinguishing(graph, 1);
    ASSERT_EQ(res.status, FinderStatus::kFound);
    pairs.push_back(res.pairs.front());
  }
  for (int i = 0; i < 8; ++i) {
    DistinguishingPair p;
    for (const sketch::MetricSpec& m : sk.metrics()) {
      p.preferred_by_a.metrics.push_back(rng.uniform_real(m.lo, m.hi));
      p.preferred_by_b.metrics.push_back(rng.uniform_real(m.lo, m.hi));
    }
    pairs.push_back(std::move(p));
  }
  for (const double latency : {10.0, 40.0, 90.0}) {
    pairs.push_back(DistinguishingPair{pref::Scenario{{0.0, latency}, ""},
                                       pref::Scenario{{0.0, 50.0}, ""}});
  }
  for (std::size_t i = 0, n = pairs.size(); i < n; ++i) {
    pairs.push_back(DistinguishingPair{pairs[i].preferred_by_b,
                                       pairs[i].preferred_by_a});
  }

  GridFinder reference_finder = make_finder(sk, 1);
  reference_finder.sync(graph);
  // A tail group narrower than the lane width, several pool chunks, and a
  // witness with ties and a lopsided split keep the comparison sharp.
  ASSERT_NE(reference_finder.version_space_size() % sketch::kBatchLaneWidth,
            0u);
  ASSERT_GT(reference_finder.version_space_size(), 64u * 4);
  std::vector<long> want;
  bool tie_sensitive = false;
  for (const DistinguishingPair& p : pairs) {
    const ReferenceSplit split = reference_split(reference_finder, sk, p);
    want.push_back(split.score());
    tie_sensitive |= split.ties > 0 && split.prefer_2 < split.prefer_1;
  }
  ASSERT_TRUE(tie_sensitive);
  ASSERT_NE(*std::max_element(want.begin(), want.end()),
            *std::min_element(want.begin(), want.end()));

  for (const sketch::LaneIsa isa : supported_isas()) {
    IsaOverride force(isa);
    for (const int threads : {1, 4}) {
      GridFinder finder = make_finder(sk, threads);
      finder.sync(graph);
      EXPECT_EQ(finder.bisection_scores(pairs), want)
          << sketch::lane_isa_name(isa) << " x" << threads;
    }
  }

  // End to end: kBisection asks the witness with the highest score among
  // those it examined, and it examines the first-found witness of the same
  // seed first, so its pick scores at least as high.
  for (const std::uint64_t seed : {1, 2, 3, 4}) {
    GridFinderConfig config;
    config.seed = seed;
    config.threads = 1;
    GridFinder first_found(sk, config);
    config.strategy = QueryStrategy::kBisection;
    GridFinder bisection(sk, config);
    const FinderResult ff = first_found.find_distinguishing(graph, 1);
    const FinderResult bi = bisection.find_distinguishing(graph, 1);
    ASSERT_EQ(bi.status, FinderStatus::kFound);
    EXPECT_GE(reference_split(reference_finder, sk, bi.pairs.front()).score(),
              reference_split(reference_finder, sk, ff.pairs.front()).score())
        << "seed " << seed;
  }
}

TEST(GridFinderReference, BisectionQuestionsDoNotDependOnThreads) {
  const sketch::Sketch& sk = sketch::swan_sketch();
  const std::vector<double> target = sk.hole_values(sketch::swan_target());
  GridFinderConfig config;
  config.strategy = QueryStrategy::kBisection;
  config.seed = 41;
  config.threads = 1;
  const std::vector<FinderResult> serial =
      drive_pair_search(sk, target, config, /*iterations=*/6, "bisection x1");
  ASSERT_GE(serial.size(), 3u);
  config.threads = 4;
  expect_same_sequence(
      serial,
      drive_pair_search(sk, target, config, /*iterations=*/6, "bisection x4"),
      "bisection x4");
}

}  // namespace
}  // namespace compsynth::solver
