#include "solver/grid_finder.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/run_context.h"
#include "util/log.h"
#include "util/timer.h"

namespace compsynth::solver {

namespace {

constexpr std::int64_t kMaxEnumerableCandidates = 4'000'000;

// Below this many candidates a parallel rebuild costs more in scheduling
// than it saves; run inline.
constexpr std::int64_t kMinParallelCandidates = 2048;

constexpr std::size_t W = sketch::kBatchLaneWidth;

/// Fills lanes n.. of an SoA hole buffer (hole h, lane l at h*W+l) with lane
/// n-1's values, so every lane holds in-domain values; callers ignore the
/// outputs of those pad lanes.
void pad_lanes(std::vector<double>& holes_soa, std::size_t n) {
  const std::size_t n_holes = holes_soa.size() / W;
  for (std::size_t h = 0; h < n_holes; ++h) {
    std::fill(holes_soa.begin() + static_cast<std::ptrdiff_t>(h * W + n),
              holes_soa.begin() + static_cast<std::ptrdiff_t>((h + 1) * W),
              holes_soa[h * W + (n - 1)]);
  }
}

/// Per-vertex lane results of one kBatchLaneWidth-candidate group, shared by
/// the full enumeration and the incremental filter. The caller stages the
/// group's hole values into holes_soa (hole h, lane l at h*W+l) and calls
/// begin(n) with its real lane count; ensure(v) then evaluates vertex v once
/// for the whole group: lane l at vals[v*W+l], and bit l of err_bits[v] set
/// when real lane l errored on v.
struct VertexLanes {
  VertexLanes(const sketch::BatchTape& tape, const pref::PreferenceGraph& graph,
              std::size_t n_holes, long long& lane_evals)
      : tape(tape),
        graph(graph),
        lane_evals(lane_evals),
        holes_soa(n_holes * W),
        vals(graph.vertex_count() * W),
        errs(graph.vertex_count() * W),
        err_bits(graph.vertex_count(), 0),
        done(graph.vertex_count(), 0) {}
  void begin(std::size_t real_lanes) {
    n = real_lanes;
    std::fill(done.begin(), done.end(), char{0});
  }
  void ensure(pref::VertexId v) {
    if (done[v]) return;
    done[v] = 1;
    tape.eval_lanes(graph.scenario(v).metrics, holes_soa, &vals[v * W],
                    &errs[v * W]);
    unsigned bits = 0;
    for (std::size_t l = 0; l < n; ++l) {
      if (errs[v * W + l] != sketch::LaneError::kNone) bits |= 1u << l;
    }
    err_bits[v] = static_cast<unsigned char>(bits);
    lane_evals += static_cast<long long>(W);
  }
  const sketch::BatchTape& tape;
  const pref::PreferenceGraph& graph;
  long long& lane_evals;
  std::size_t n = 0;
  std::vector<double> holes_soa;
  std::vector<double> vals;
  std::vector<sketch::LaneError> errs;
  std::vector<unsigned char> err_bits;
  std::vector<char> done;
};

/// Checks the lanes in `alive_bits` against edges[first_edge..] and then
/// ties[first_tie..] in graph order, each lane stopping at its first failure,
/// and returns the lanes that satisfy them all. Per lane the better (first)
/// vertex's error is observed before the worse (second) one's, then the
/// comparison, so the error recorded in lane_err is exactly the EvalError a
/// one-candidate scan would have thrown. Error lanes take the scalar slow
/// path (rare); each comparison is one vectorized mask. lane_gt_bits is false
/// on NaN, so a NaN kills the lane as `!(fb > fw)` would;
/// lane_abs_diff_gt_bits is false on NaN, so a NaN tie difference never
/// exceeds the bound and the lane survives.
unsigned check_lanes(std::size_t first_edge, std::size_t first_tie,
                     double tie_bound, unsigned alive_bits, VertexLanes& vl,
                     std::array<sketch::LaneError, W>& lane_err) {
  const auto constraint = [&](pref::VertexId u, pref::VertexId v) {
    vl.ensure(u);
    vl.ensure(v);
    const unsigned err_mask =
        static_cast<unsigned>(vl.err_bits[u] | vl.err_bits[v]) & alive_bits;
    for (unsigned bits = err_mask; bits != 0; bits &= bits - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(bits));
      const sketch::LaneError eu = vl.errs[u * W + l];
      lane_err[l] = eu != sketch::LaneError::kNone ? eu : vl.errs[v * W + l];
    }
    alive_bits &= ~err_mask;
  };
  const auto& edges = vl.graph.edges();
  for (std::size_t i = first_edge; i < edges.size() && alive_bits != 0; ++i) {
    const pref::Edge& e = edges[i];
    constraint(e.better, e.worse);
    alive_bits &=
        sketch::lane_gt_bits(&vl.vals[e.better * W], &vl.vals[e.worse * W]);
  }
  const auto& ties = vl.graph.ties();
  for (std::size_t i = first_tie; i < ties.size() && alive_bits != 0; ++i) {
    const auto& t = ties[i];
    constraint(t.first, t.second);
    alive_bits &= ~sketch::lane_abs_diff_gt_bits(
        &vl.vals[t.first * W], &vl.vals[t.second * W], tie_bound);
  }
  return alive_bits;
}

/// Appends lo + j for every set bit j of a hex bitmap over [lo, lo + n): bit
/// j%8 of byte j/8, each byte two lowercase hex digits, high nibble first.
/// Returns false at the first non-hex digit it reads. The one decoder of the
/// per-shard records and of the v1 whole-space bitmap.
bool decode_bitmap(const std::string& hex, std::int64_t lo, std::int64_t n,
                   std::vector<std::int64_t>& out) {
  for (std::int64_t j = 0; j < n; ++j) {
    const char c =
        hex[static_cast<std::size_t>(j / 8) * 2 + (j % 8 < 4 ? 1 : 0)];
    int nib = -1;
    if (c >= '0' && c <= '9') nib = c - '0';
    if (c >= 'a' && c <= 'f') nib = c - 'a' + 10;
    if (nib < 0) return false;
    if ((nib >> (j % 4)) & 1) out.push_back(lo + j);
  }
  return true;
}

}  // namespace

GridFinder::GridFinder(sketch::Sketch sketch, GridFinderConfig config,
                       Viability viability, ScenarioDomain domain)
    : sketch_(std::move(sketch)),
      batch_(sketch_),
      config_(config),
      viability_(std::move(viability)),
      domain_(std::move(domain)),
      rng_(config.seed) {
  validate_domain(sketch_, domain_);
  if (config_.base.distinguish_margin <= config_.base.tie_tolerance) {
    throw std::invalid_argument(
        "GridFinder: distinguish_margin must exceed tie_tolerance");
  }
  if (config_.threads < 0) {
    throw std::invalid_argument("GridFinder: threads must be >= 0");
  }
  if (sketch_.candidate_space_size() > kMaxEnumerableCandidates) {
    throw std::invalid_argument(
        "GridFinder: hole grid too large to enumerate; use Z3Finder");
  }
  if (config_.threads > 1) {
    own_pool_ = std::make_unique<util::ThreadPool>(
        static_cast<std::size_t>(config_.threads));
  }
}

util::ThreadPool* GridFinder::pool() const {
  if (config_.threads == 1) return nullptr;
  if (own_pool_ != nullptr) return own_pool_.get();
  return &util::ThreadPool::shared();
}

sketch::HoleAssignment GridFinder::assignment_at(std::int64_t linear) const {
  sketch::HoleAssignment a;
  a.index.resize(sketch_.holes().size());
  for (std::size_t i = 0; i < a.index.size(); ++i) {
    const std::int64_t count = sketch_.holes()[i].count;
    a.index[i] = linear % count;
    linear /= count;
  }
  return a;
}

std::int64_t GridFinder::shard_span(std::int64_t total) {
  // Wide enough that per-shard overhead (part vectors, scratch buffers) is
  // noise, narrow enough that a big grid still yields ~64 shards to balance
  // across a pool. Depends only on `total`, never on the thread count, so
  // the serialized per-shard state (save_state v2) is machine-independent.
  return std::max<std::int64_t>(4096, (total + 63) / 64);
}

void GridFinder::stage_survivors(std::size_t base, std::size_t n,
                                 std::vector<double>& holes_soa) const {
  const auto& holes = sketch_.holes();
  for (std::size_t l = 0; l < n; ++l) {
    std::int64_t linear = survivors_[base + l];
    for (std::size_t h = 0; h < holes.size(); ++h) {
      holes_soa[h * W + l] = holes[h].value_at(linear % holes[h].count);
      linear /= holes[h].count;
    }
  }
  pad_lanes(holes_soa, n);
}

void GridFinder::enumerate_range_batch(std::int64_t lo, std::int64_t hi,
                                       const pref::PreferenceGraph& graph,
                                       std::vector<std::int64_t>& out,
                                       BatchCounters& counters) const {
  const auto& holes = sketch_.holes();
  const std::size_t n_holes = holes.size();
  const double tie_bound = config_.base.tie_tolerance + 1e-9;

  // Odometer cursor shared across groups (index 0 varies fastest, matching
  // assignment_at).
  sketch::HoleAssignment cursor = assignment_at(lo);

  VertexLanes vl(batch_, graph, n_holes, counters.lane_evals);
  std::vector<double> lane_values(n_holes);  // AoS view for viability
  std::array<sketch::LaneError, W> lane_err{};

  for (std::int64_t base = lo; base < hi; base += W) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::int64_t>(W, hi - base));
    ++counters.groups;

    // Stage the group: hole values per lane from the odometer, then the
    // viability gate. Spare lanes (a tail group narrower than W) copy the
    // last real candidate so every lane holds in-domain values; they start
    // dead and their outputs are ignored.
    unsigned alive_bits = 0;  // bit l = lane l still satisfies everything
    for (std::size_t l = 0; l < n; ++l) {
      for (std::size_t h = 0; h < n_holes; ++h) {
        const double v = holes[h].value_at(cursor.index[h]);
        lane_values[h] = v;
        vl.holes_soa[h * W + l] = v;
      }
      if (!viability_.concrete || viability_.concrete(lane_values)) {
        alive_bits |= 1u << l;
      }
      std::size_t pos = 0;
      while (pos < n_holes) {
        if (++cursor.index[pos] < holes[pos].count) break;
        cursor.index[pos] = 0;
        ++pos;
      }
    }
    pad_lanes(vl.holes_soa, n);
    vl.begin(n);
    lane_err.fill(sketch::LaneError::kNone);
    alive_bits = check_lanes(0, 0, tie_bound, alive_bits, vl, lane_err);

    // Drain the group in candidate order: survivors below an erroring lane
    // are appended before its EvalError is re-thrown, exactly as a
    // one-candidate scan would have produced them before throwing.
    for (std::size_t l = 0; l < n; ++l) {
      if (lane_err[l] != sketch::LaneError::kNone) {
        sketch::throw_lane_error(lane_err[l]);
      }
      if ((alive_bits >> l) & 1u) {
        out.push_back(base + static_cast<std::int64_t>(l));
      }
    }
  }
}

void GridFinder::filter_range_batch(std::size_t lo, std::size_t hi,
                                    const pref::PreferenceGraph& graph,
                                    std::vector<char>& keep,
                                    BatchCounters& counters) const {
  const double tie_bound = config_.base.tie_tolerance + 1e-9;
  VertexLanes vl(batch_, graph, sketch_.holes().size(), counters.lane_evals);
  std::array<sketch::LaneError, W> lane_err{};

  for (std::size_t base = lo; base < hi; base += W) {
    const std::size_t n = std::min(W, hi - base);
    ++counters.groups;
    stage_survivors(base, n, vl.holes_soa);
    vl.begin(n);
    lane_err.fill(sketch::LaneError::kNone);
    const unsigned alive_bits =
        check_lanes(edges_seen_, ties_seen_, tie_bound,
                    static_cast<unsigned>((1u << n) - 1), vl, lane_err);

    for (std::size_t l = 0; l < n; ++l) {
      if (lane_err[l] != sketch::LaneError::kNone) {
        sketch::throw_lane_error(lane_err[l]);
      }
      keep[base + l] = static_cast<char>((alive_bits >> l) & 1u);
    }
  }
}

void GridFinder::sync(const pref::PreferenceGraph& graph) {
  const bool shrunk =
      graph.edges().size() < edges_seen_ || graph.ties().size() < ties_seen_;
  const bool rebuild = !initialized_ || shrunk;
  const bool grown = graph.edges().size() > edges_seen_ ||
                     graph.ties().size() > ties_seen_;
  if (!rebuild && !grown) return;  // already in line with `graph`

  obs::Span span(obs_, "grid_sync");
  const std::size_t survivors_before = survivors_.size();
  const long long new_edges =
      static_cast<long long>(graph.edges().size()) -
      static_cast<long long>(edges_seen_);
  const long long new_ties = static_cast<long long>(graph.ties().size()) -
                             static_cast<long long>(ties_seen_);
  std::vector<double> shard_secs;
  BatchCounters batch_tally;

  util::ThreadPool* pool = this->pool();
  bool distributed = false;
  if (rebuild) {
    survivors_.clear();
    // Fixed-range shards: geometry is a pure function of the candidate
    // space (shard_span), never of the thread count, so the shard list —
    // and the per-shard snapshot state derived from it — is identical
    // whether the scan runs serially or across a pool. Shards share no
    // mutable state: each appends to its own part vector, merged here in
    // shard order, which reproduces the sequential survivor order.
    const std::vector<ShardRange> ranges = shard_ranges();
    const std::size_t n_shards = ranges.size();
    last_sync_shards_ = n_shards;
    // Distribution seam: a configured backend gets first crack at the
    // fixed-range shards (full rebuilds only — they are pure functions of
    // sketch + graph + range). Viability callbacks cannot cross the wire,
    // so their presence pins the scan local. Any backend failure falls
    // through to the local scan below; a remote sync can change where the
    // work runs but never whether it completes.
    if (config_.shard_backend != nullptr && !viability_.concrete) {
      distributed = rebuild_remote(graph, ranges);
    }
    if (distributed) {
      last_sync_threads_ = 1;
    } else {
      std::vector<std::vector<std::int64_t>> parts(n_shards);
      std::vector<BatchCounters> tallies(n_shards);
      if (obs::active(obs_)) shard_secs.assign(n_shards, 0);
      const auto run_shard = [&](std::size_t k) {
        const ShardRange& r = ranges[k];
        if (shard_secs.empty()) {
          enumerate_range_batch(r.lo, r.hi, graph, parts[k], tallies[k]);
        } else {
          util::Stopwatch shard_watch;
          enumerate_range_batch(r.lo, r.hi, graph, parts[k], tallies[k]);
          shard_secs[k] = shard_watch.elapsed_seconds();
        }
      };
      if (pool == nullptr || n_shards <= 1 ||
          sketch_.candidate_space_size() < kMinParallelCandidates) {
        last_sync_threads_ = 1;
        for (std::size_t k = 0; k < n_shards; ++k) run_shard(k);
      } else {
        last_sync_threads_ = pool->size();
        pool->parallel_for(0, n_shards, [&](std::size_t lo, std::size_t hi) {
          for (std::size_t k = lo; k < hi; ++k) run_shard(k);
        });
      }
      std::size_t found = 0;
      for (const auto& p : parts) found += p.size();
      survivors_.reserve(found);
      for (const auto& p : parts) {
        survivors_.insert(survivors_.end(), p.begin(), p.end());
      }
      for (const BatchCounters& t : tallies) {
        batch_tally.lane_evals += t.lane_evals;
        batch_tally.groups += t.groups;
      }
    }
    initialized_ = true;
  } else {
    // Incremental filter: only the new edges/ties are checked.
    std::vector<char> keep(survivors_.size(), 1);
    // Work estimate: each survivor re-checks only the new edges/ties.
    // Late-loop syncs see a handful of survivors x one new edge —
    // dispatching pool chunks for that costs more than the filter itself, so
    // small workloads run on the caller.
    const std::size_t filter_work =
        survivors_.size() *
        (graph.edges().size() - edges_seen_ + graph.ties().size() -
         ties_seen_ + 1);
    constexpr std::size_t kMinParallelFilterWork = 8192;
    // survivors_ stays sorted by linear index, so each non-empty fixed-range
    // shard owns a contiguous position range. Shards write only their own
    // keep slots — no shared mutable state until the compaction below.
    std::vector<std::size_t> bounds{0};
    for (const ShardRange& r : shard_ranges()) {
      const auto end = static_cast<std::size_t>(
          std::lower_bound(survivors_.begin(), survivors_.end(), r.hi) -
          survivors_.begin());
      if (end != bounds.back()) bounds.push_back(end);
    }
    const std::size_t n_ranges = bounds.size() - 1;
    std::vector<BatchCounters> tallies(n_ranges);
    if (obs::active(obs_)) shard_secs.assign(n_ranges, 0);
    const auto run_range = [&](std::size_t k) {
      if (shard_secs.empty()) {
        filter_range_batch(bounds[k], bounds[k + 1], graph, keep, tallies[k]);
      } else {
        util::Stopwatch shard_watch;
        filter_range_batch(bounds[k], bounds[k + 1], graph, keep, tallies[k]);
        shard_secs[k] = shard_watch.elapsed_seconds();
      }
    };
    if (pool == nullptr || n_ranges <= 1 ||
        filter_work < kMinParallelFilterWork) {
      last_sync_threads_ = 1;
      for (std::size_t k = 0; k < n_ranges; ++k) run_range(k);
    } else {
      last_sync_threads_ = pool->size();
      pool->parallel_for(0, n_ranges, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t k = lo; k < hi; ++k) run_range(k);
      });
    }
    last_sync_shards_ = n_ranges;
    for (const BatchCounters& t : tallies) {
      batch_tally.lane_evals += t.lane_evals;
      batch_tally.groups += t.groups;
    }
    std::size_t out = 0;
    for (std::size_t i = 0; i < survivors_.size(); ++i) {
      if (keep[i]) survivors_[out++] = survivors_[i];
    }
    survivors_.resize(out);
  }
  edges_seen_ = graph.edges().size();
  ties_seen_ = graph.ties().size();
  util::log(util::LogLevel::kDebug, "GridFinder: version space size ",
            survivors_.size());

  if (obs::active(obs_)) {
    obs_->count("grid.syncs");
    obs_->gauge("grid.survivors", static_cast<double>(survivors_.size()));
    obs_->count("grid.lane_evals", batch_tally.lane_evals);
    obs_->count("grid.batch_groups", batch_tally.groups);
    double shard_min = 0, shard_max = 0;
    for (std::size_t k = 0; k < shard_secs.size(); ++k) {
      obs_->observe("grid.shard.seconds", shard_secs[k]);
      shard_min = k == 0 ? shard_secs[k] : std::min(shard_min, shard_secs[k]);
      shard_max = std::max(shard_max, shard_secs[k]);
    }
    if (obs::TraceEvent* e = span.event()) {
      // "lane_isa" (schema rev 1.5) names the lane kernel the dispatcher
      // selected at startup, so benches and bug reports can tell the SIMD
      // and scalar paths apart from the trace alone. "distributed" (schema
      // rev 1.6) marks a full rebuild satisfied by the configured
      // ShardSyncBackend instead of the local scan.
      e->str("mode", rebuild ? "full" : "incremental")
          .integer("survivors", static_cast<long long>(survivors_.size()))
          .integer("survivors_before",
                   static_cast<long long>(survivors_before))
          .integer("new_edges", new_edges)
          .integer("new_ties", new_ties)
          .integer("shards", static_cast<long long>(last_sync_shards_))
          .integer("threads", static_cast<long long>(last_sync_threads_))
          .str("lane_isa", sketch::lane_isa_name(sketch::active_lane_isa()))
          .integer("lane_width",
                   static_cast<long long>(sketch::kBatchLaneWidth))
          .integer("distributed", distributed ? 1 : 0);
      if (!shard_secs.empty()) {
        e->num("shard_min_s", shard_min).num("shard_max_s", shard_max);
      }
    }
  }
}

std::vector<double> GridFinder::boundary_values(
    std::span<const double> hole_values, std::size_t metric) const {
  const sketch::MetricSpec& m = sketch_.metrics()[metric];
  const double nudge = (m.hi - m.lo) * 1e-3;
  std::vector<double> out{m.lo, m.hi};
  for (const double v : hole_values) {
    if (v > m.lo && v < m.hi) {
      out.push_back(v);
      out.push_back(std::min(m.hi, v + nudge));
      out.push_back(std::max(m.lo, v - nudge));
    }
  }
  return out;
}

std::optional<DistinguishingPair> GridFinder::distinguish(std::int64_t a,
                                                          std::int64_t b) {
  const double margin = config_.base.distinguish_margin;
  const std::size_t n_metrics = sketch_.metrics().size();
  const std::vector<double> a_holes = sketch_.hole_values(assignment_at(a));
  const std::vector<double> b_holes = sketch_.hole_values(assignment_at(b));

  // Boundary candidates per metric: hole values of either candidate (where
  // piecewise objectives flip regions), nudged to both sides, plus range
  // endpoints and midpoints.
  std::vector<std::vector<double>> boundaries(n_metrics);
  std::size_t cross_size = 1;
  for (std::size_t m = 0; m < n_metrics; ++m) {
    boundaries[m] = boundary_values(a_holes, m);
    const std::vector<double> more = boundary_values(b_holes, m);
    boundaries[m].insert(boundaries[m].end(), more.begin(), more.end());
    const sketch::MetricSpec& spec = sketch_.metrics()[m];
    boundaries[m].push_back((spec.lo + spec.hi) / 2);
    std::sort(boundaries[m].begin(), boundaries[m].end());
    // Dedupe with a tolerance relative to the metric range: boundary values
    // from the two candidates often differ only by rounding, and keeping
    // both would inflate cross_size past the deterministic-pass cutoff.
    // The tolerance is far below the 1e-3 nudge, so intentionally nudged
    // points are never merged.
    const double tol = (spec.hi - spec.lo) * 1e-6;
    std::size_t kept = 0;
    for (const double v : boundaries[m]) {
      if (kept == 0 || v - boundaries[m][kept - 1] > tol) {
        boundaries[m][kept++] = v;
      }
    }
    boundaries[m].resize(kept);
    cross_size *= boundaries[m].size();
  }

  // Both candidates share one lane-tape pass per scenario: lane 0 holds a,
  // lanes 1.. hold b (the pad lanes copy b, so every lane is in-domain).
  const std::size_t n_holes = sketch_.holes().size();
  std::vector<double> pair_soa(n_holes * W);
  for (std::size_t h = 0; h < n_holes; ++h) {
    pair_soa[h * W] = a_holes[h];
    pair_soa[h * W + 1] = b_holes[h];
  }
  pad_lanes(pair_soa, 2);
  struct PairValues {
    double fa, fb;
    sketch::LaneError ea, eb;
  };
  const auto eval_pair = [&](std::span<const double> metrics) {
    std::array<double, W> out{};
    std::array<sketch::LaneError, W> err{};
    batch_.eval_lanes(metrics, pair_soa, out.data(), err.data());
    return PairValues{out[0], out[1], err[0], err[1]};
  };

  auto check = [&](const pref::Scenario& s1, const pref::Scenario& s2)
      -> std::optional<DistinguishingPair> {
    const auto [fa1, fb1, ea1, eb1] = eval_pair(s1.metrics);
    const auto [fa2, fb2, ea2, eb2] = eval_pair(s2.metrics);
    // Raise in one-candidate order: a at s1, a at s2, b at s1, b at s2.
    for (const sketch::LaneError e : {ea1, ea2, eb1, eb2}) {
      if (e != sketch::LaneError::kNone) sketch::throw_lane_error(e);
    }
    if (fa1 >= fa2 + margin && fb2 >= fb1 + margin) {
      return DistinguishingPair{s1, s2};
    }
    if (fa2 >= fa1 + margin && fb1 >= fb2 + margin) {
      return DistinguishingPair{s2, s1};
    }
    return std::nullopt;
  };

  // Deterministic pass: for objectives that are piecewise products of the
  // metrics (the SWAN family), any ranking disagreement is witnessed at the
  // cross product of boundary values. Enumerate it when small enough.
  // The in-domain points are the rows of one row-major buffer (point i,
  // metric m at i*n_metrics+m); Scenarios are built only for the returned
  // pair.
  if (cross_size <= 1024) {
    std::vector<double> points;
    points.reserve(cross_size * n_metrics);
    std::vector<std::size_t> idx(n_metrics, 0);
    for (;;) {
      const std::size_t row = points.size();
      for (std::size_t m = 0; m < n_metrics; ++m) {
        points.push_back(boundaries[m][idx[m]]);
      }
      if (!domain_contains(sketch_, domain_,
                           std::span<const double>(points).subspan(row))) {
        points.resize(row);
      }
      std::size_t pos = 0;
      while (pos < n_metrics && ++idx[pos] == boundaries[pos].size()) {
        idx[pos++] = 0;
      }
      if (pos == n_metrics) break;
    }
    // Cache both candidates' values so each pair test is two comparisons.
    // Errors raise in one-candidate order: a's first error over the points,
    // then b's.
    const std::size_t n_points = points.size() / n_metrics;
    const auto point = [&](std::size_t i) {
      return std::span<const double>(points).subspan(i * n_metrics, n_metrics);
    };
    const auto scenario = [&](std::size_t i) {
      return pref::Scenario{{point(i).begin(), point(i).end()}, ""};
    };
    std::vector<double> fa(n_points), fb(n_points);
    sketch::LaneError first_ea = sketch::LaneError::kNone;
    sketch::LaneError first_eb = sketch::LaneError::kNone;
    for (std::size_t i = 0; i < n_points; ++i) {
      const auto [va, vb, ea, eb] = eval_pair(point(i));
      fa[i] = va;
      fb[i] = vb;
      if (first_ea == sketch::LaneError::kNone) first_ea = ea;
      if (first_eb == sketch::LaneError::kNone) first_eb = eb;
    }
    for (const sketch::LaneError e : {first_ea, first_eb}) {
      if (e != sketch::LaneError::kNone) sketch::throw_lane_error(e);
    }
    // Randomize the scan order so repeated calls surface different pairs
    // (the synthesizer wants fresh scenarios each iteration).
    std::vector<std::size_t> order(n_points);
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng_.shuffle(order);
    for (const std::size_t i : order) {
      for (const std::size_t j : order) {
        if (i == j) continue;  // a scenario can never distinguish from itself
        if (fa[i] >= fa[j] + margin && fb[j] >= fb[i] + margin) {
          return DistinguishingPair{scenario(i), scenario(j)};
        }
      }
    }
  }

  // Randomized fallback for sketch families whose disagreements are not
  // boundary-witnessed (or whose boundary cross product is too large).
  // The two samples reuse their buffers; only a hit copies them out.
  pref::Scenario s1, s2;
  const auto sample_scenario = [&](pref::Scenario& s) {
    s.metrics.clear();
    for (std::size_t m = 0; m < n_metrics; ++m) {
      const sketch::MetricSpec& spec = sketch_.metrics()[m];
      if (rng_.bernoulli(0.5)) {
        s.metrics.push_back(rng_.uniform_real(spec.lo, spec.hi));
      } else {
        s.metrics.push_back(boundaries[m][rng_.index(boundaries[m].size())]);
      }
    }
  };
  for (int i = 0; i < config_.scenario_samples; ++i) {
    sample_scenario(s1);
    sample_scenario(s2);
    if (domain_.constraint != nullptr &&
        (!domain_contains(sketch_, domain_, s1.metrics) ||
         !domain_contains(sketch_, domain_, s2.metrics))) {
      continue;
    }
    if (auto hit = check(s1, s2)) return hit;
  }
  return std::nullopt;
}

FinderResult GridFinder::find_distinguishing(const pref::PreferenceGraph& graph,
                                             int num_pairs) {
  if (num_pairs < 1) throw std::invalid_argument("find_distinguishing: num_pairs < 1");
  sync(graph);

  // The span covers the candidate-pair search proper (sync has its own
  // "grid_sync" event above); `note` stamps the outcome just before return.
  obs::Span span(obs_, "pair_search");
  auto note = [&](const char* status, std::size_t examined,
                  std::size_t witnesses, std::size_t pairs) {
    if (obs_ != nullptr) obs_->count("grid.pair_searches");
    if (obs::TraceEvent* e = span.event()) {
      e->str("status", status)
          .integer("survivors", static_cast<long long>(survivors_.size()))
          .integer("examined", static_cast<long long>(examined))
          .integer("witnesses", static_cast<long long>(witnesses))
          .integer("pairs", static_cast<long long>(pairs))
          .str("strategy", config_.strategy == QueryStrategy::kBisection
                               ? "bisection"
                               : "first_found");
    }
  };

  if (survivors_.empty()) {
    note("no_candidate", 0, 0, 0);
    FinderResult res;
    res.status = FinderStatus::kNoCandidate;
    return res;
  }
  if (survivors_.size() == 1) {
    note("unique_ranking", 0, 0, 0);
    FinderResult res;
    res.status = FinderStatus::kUniqueRanking;
    res.candidate_a = assignment_at(survivors_.front());
    return res;
  }

  // Candidate pair schedule: exhaustive for small version spaces (so the
  // "unique ranking" verdict is as strong as possible), random otherwise.
  std::vector<std::pair<std::size_t, std::size_t>> schedule;
  if (survivors_.size() <= 48) {
    for (std::size_t i = 0; i < survivors_.size(); ++i) {
      for (std::size_t j = i + 1; j < survivors_.size(); ++j) {
        schedule.emplace_back(i, j);
      }
    }
    rng_.shuffle(schedule);
  } else {
    for (int attempt = 0; attempt < config_.candidate_pair_budget; ++attempt) {
      const std::size_t ia = rng_.index(survivors_.size());
      std::size_t ib = rng_.index(survivors_.size() - 1);
      if (ib >= ia) ++ib;
      schedule.emplace_back(ia, ib);
    }
  }

  // Collect disagreement witnesses. Under kFirstFound the first one wins
  // (mirroring an SMT solver's arbitrary model); under kBisection several
  // are scored by how evenly the user's answer would split the version
  // space, and the most informative one is asked.
  std::vector<std::pair<std::size_t, std::size_t>> owners;  // per witness
  std::vector<DistinguishingPair> witnesses;
  const int wanted =
      config_.strategy == QueryStrategy::kBisection ? config_.bisection_samples : 1;

  std::size_t examined = 0;
  for (const auto& [ia, ib] : schedule) {
    if (static_cast<int>(witnesses.size()) >= wanted) break;
    ++examined;
    if (auto pair = distinguish(survivors_[ia], survivors_[ib])) {
      owners.emplace_back(ia, ib);
      witnesses.push_back(*std::move(pair));
    }
  }

  if (witnesses.empty()) {
    // No disagreement among the survivors: report (approximate) ranking
    // uniqueness with an arbitrary representative.
    note("unique_ranking", schedule.size(), 0, 0);
    FinderResult res;
    res.status = FinderStatus::kUniqueRanking;
    res.candidate_a = assignment_at(survivors_.front());
    return res;
  }

  std::size_t chosen = 0;
  if (witnesses.size() > 1) {
    const std::vector<long> scores = bisection_scores(witnesses);
    chosen = static_cast<std::size_t>(
        std::max_element(scores.begin(), scores.end()) - scores.begin());
  }
  FinderResult res;
  res.status = FinderStatus::kFound;
  const auto [chosen_a, chosen_b] = owners[chosen];
  res.candidate_a = assignment_at(survivors_[chosen_a]);
  res.candidate_b = assignment_at(survivors_[chosen_b]);
  res.pairs.push_back(std::move(witnesses[chosen]));

  // Additional pairs (Fig. 4 protocol) come from the same candidate pair.
  for (int tries = 0;
       static_cast<int>(res.pairs.size()) < num_pairs && tries < 4 * num_pairs;
       ++tries) {
    const auto pair = distinguish(survivors_[chosen_a], survivors_[chosen_b]);
    if (!pair) break;
    const bool duplicate = std::any_of(
        res.pairs.begin(), res.pairs.end(), [&](const DistinguishingPair& p) {
          return p.preferred_by_a == pair->preferred_by_a &&
                 p.preferred_by_b == pair->preferred_by_b;
        });
    if (!duplicate) res.pairs.push_back(*pair);
  }
  note("found", schedule.size(), witnesses.size(), res.pairs.size());
  return res;
}

std::vector<long> GridFinder::bisection_scores(
    std::span<const DistinguishingPair> pairs) const {
  // Guaranteed elimination of an answer = survivors inconsistent with it;
  // the worst case over the two strict answers is the witness's value.
  // Each group of kBatchLaneWidth survivors is staged once, as the
  // incremental filter stages it, and scored against every witness; the
  // chunked counts are plain integer sums, so sharding keeps the scores
  // exact.
  const std::size_t n_pairs = pairs.size();
  // prefer[2i] / prefer[2i+1]: survivors scoring witness i's preferred_by_a
  // / preferred_by_b strictly higher.
  std::vector<std::atomic<long>> prefer(2 * n_pairs);
  auto score = [&](std::size_t lo, std::size_t hi) {
    std::vector<double> holes_soa(sketch_.holes().size() * W);
    std::vector<long> local(2 * n_pairs, 0);
    std::array<double, W> f1{}, f2{};
    std::array<sketch::LaneError, W> e1{}, e2{};
    for (std::size_t base = lo; base < hi; base += W) {
      const std::size_t n = std::min(W, hi - base);
      stage_survivors(base, n, holes_soa);
      for (std::size_t i = 0; i < n_pairs; ++i) {
        batch_.eval_lanes(pairs[i].preferred_by_a.metrics, holes_soa,
                          f1.data(), e1.data());
        batch_.eval_lanes(pairs[i].preferred_by_b.metrics, holes_soa,
                          f2.data(), e2.data());
        for (std::size_t l = 0; l < n; ++l) {
          if (e1[l] != sketch::LaneError::kNone) sketch::throw_lane_error(e1[l]);
          if (e2[l] != sketch::LaneError::kNone) sketch::throw_lane_error(e2[l]);
          if (f1[l] > f2[l]) ++local[2 * i];
          else if (f2[l] > f1[l]) ++local[2 * i + 1];
        }
      }
    }
    for (std::size_t k = 0; k < local.size(); ++k) prefer[k] += local[k];
  };
  if (util::ThreadPool* pool = this->pool()) {
    pool->parallel_for(0, survivors_.size(), score, /*min_chunk=*/64);
  } else {
    score(0, survivors_.size());
  }
  std::vector<long> scores(n_pairs);
  for (std::size_t i = 0; i < n_pairs; ++i) {
    scores[i] = std::min(prefer[2 * i].load(), prefer[2 * i + 1].load());
  }
  return scores;
}

std::optional<sketch::HoleAssignment> GridFinder::find_consistent(
    const pref::PreferenceGraph& graph) {
  sync(graph);
  if (survivors_.empty()) return std::nullopt;
  return assignment_at(survivors_.front());
}

namespace {

constexpr char kGridStateTag[] = "gridfinder";
// v2 stores the survivor set as one bitmap per fixed-range shard
// (self-describing [lo, hi) ranges); v1 single-bitmap blobs still restore.
constexpr int kGridStateVersion = 2;

[[noreturn]] void bad_grid_state(const char* why) {
  throw std::invalid_argument(std::string("GridFinder::restore_state: ") + why);
}

}  // namespace

std::string GridFinder::save_state() const {
  // Per-shard slices of the sorted survivor list, rendered through the
  // shared record encoder (encode_shard_blob — the same lines the dist
  // workers produce).
  const std::vector<ShardRange> ranges = shard_ranges();
  const std::int64_t total = sketch_.candidate_space_size();
  std::ostringstream os;
  os << kGridStateTag << ' ' << kGridStateVersion << '\n'
     << "rng " << rng_.save_state() << '\n'
     << "seen " << (initialized_ ? 1 : 0) << ' ' << edges_seen_ << ' '
     << ties_seen_ << '\n'
     << "shards " << ranges.size() << ' ' << shard_span(total) << ' ' << total
     << ' ' << survivors_.size() << '\n';
  auto first = survivors_.begin();
  for (const ShardRange& r : ranges) {
    const auto last = std::lower_bound(first, survivors_.end(), r.hi);
    os << encode_shard_blob(r.index, r.lo, r.hi,
                            std::vector<std::int64_t>(first, last))
       << '\n';
    first = last;
  }
  return os.str();
}

std::string GridFinder::encode_shard_blob(
    std::size_t index, std::int64_t lo, std::int64_t hi,
    const std::vector<std::int64_t>& linears) {
  // Bit j%8 of byte j/8 marks candidate lo + j; lowercase hex, two digits
  // per byte (low nibble first on the wire via the j%8<4 digit order the
  // decoder uses — identical to the v1/v2 save-state rendering).
  std::string bitmap(static_cast<std::size_t>((hi - lo + 7) / 8), '\0');
  for (const std::int64_t linear : linears) {
    const std::int64_t j = linear - lo;
    bitmap[static_cast<std::size_t>(j / 8)] |=
        static_cast<char>(1 << (j % 8));
  }
  std::ostringstream os;
  os << "shard " << index << ' ' << lo << ' ' << hi << ' ' << linears.size()
     << ' ';
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char byte : bitmap) {
    const auto u = static_cast<unsigned char>(byte);
    os << kHex[u >> 4] << kHex[u & 0xf];
  }
  return os.str();
}

GridFinder::ParsedShardBlob GridFinder::parse_shard_blob(
    const std::string& record) {
  const auto bad = [](const char* why) {
    throw std::invalid_argument(std::string("shard record: ") + why);
  };
  std::istringstream in(record);
  std::string tag, hex;
  ParsedShardBlob blob;
  std::size_t count = 0;
  if (!(in >> tag) || tag != "shard") bad("missing 'shard' tag");
  if (!(in >> blob.index >> blob.lo >> blob.hi >> count)) {
    bad("truncated header fields");
  }
  if (blob.lo < 0 || blob.hi <= blob.lo) bad("empty or inverted range");
  // Checked before the count sizes anything: an absurd count must be a
  // typed error, not an allocation failure.
  if (count > static_cast<std::uint64_t>(blob.hi - blob.lo)) {
    bad("survivor count exceeds the shard range");
  }
  if (!(in >> hex)) bad("truncated before bitmap");
  std::string trailing;
  if (in >> trailing) bad("trailing garbage after bitmap");
  const std::size_t bytes =
      static_cast<std::size_t>((blob.hi - blob.lo + 7) / 8);
  if (hex.size() != 2 * bytes) {
    bad(hex.size() < 2 * bytes ? "bitmap truncated mid-record"
                               : "bitmap longer than the shard range");
  }
  blob.linears.reserve(count);
  if (!decode_bitmap(hex, blob.lo, blob.hi - blob.lo, blob.linears)) {
    bad("bitmap is not lowercase hex");
  }
  if (blob.linears.size() != count) {
    bad("survivor count disagrees with the bitmap");
  }
  return blob;
}

std::vector<ShardRange> GridFinder::shard_ranges() const {
  const std::int64_t total = sketch_.candidate_space_size();
  const std::int64_t span_len = shard_span(total);
  const auto n_shards =
      static_cast<std::size_t>((total + span_len - 1) / span_len);
  std::vector<ShardRange> ranges(n_shards);
  for (std::size_t k = 0; k < n_shards; ++k) {
    ranges[k].index = k;
    ranges[k].lo = static_cast<std::int64_t>(k) * span_len;
    ranges[k].hi = std::min<std::int64_t>(total, ranges[k].lo + span_len);
  }
  return ranges;
}

std::string GridFinder::sync_shard_blob(const pref::PreferenceGraph& graph,
                                        std::size_t index, std::int64_t lo,
                                        std::int64_t hi) const {
  if (lo < 0 || hi <= lo || hi > sketch_.candidate_space_size()) {
    throw std::invalid_argument("sync_shard_blob: range outside the grid");
  }
  std::vector<std::int64_t> linears;
  BatchCounters tally;
  enumerate_range_batch(lo, hi, graph, linears, tally);
  return encode_shard_blob(index, lo, hi, linears);
}

bool GridFinder::rebuild_remote(const pref::PreferenceGraph& graph,
                                const std::vector<ShardRange>& ranges) {
  std::optional<std::vector<std::string>> records;
  try {
    records = config_.shard_backend->sync_shards(graph, ranges);
  } catch (const std::exception& ex) {
    util::log(util::LogLevel::kWarn,
              "GridFinder: remote sync failed, falling back to local scan: ",
              ex.what());
    return false;
  }
  if (!records || records->size() != ranges.size()) return false;
  // Decode into a scratch vector first: a torn record must leave survivors_
  // empty for the local fallback, never half-merged.
  std::vector<std::int64_t> merged;
  try {
    for (std::size_t k = 0; k < ranges.size(); ++k) {
      const ParsedShardBlob blob = parse_shard_blob((*records)[k]);
      if (blob.index != ranges[k].index || blob.lo != ranges[k].lo ||
          blob.hi != ranges[k].hi) {
        throw std::invalid_argument("shard record: range mismatch");
      }
      merged.insert(merged.end(), blob.linears.begin(), blob.linears.end());
    }
  } catch (const std::exception& ex) {
    util::log(util::LogLevel::kWarn,
              "GridFinder: rejecting remote shard record (", ex.what(),
              "); falling back to local scan");
    return false;
  }
  survivors_ = std::move(merged);
  return true;
}

void GridFinder::restore_state(const std::string& state) {
  std::istringstream in(state);
  std::string tag;
  int version = 0;
  if (!(in >> tag >> version) || tag != kGridStateTag) {
    bad_grid_state("malformed header");
  }
  if (version != 1 && version != kGridStateVersion) {
    bad_grid_state("unsupported version");
  }

  std::string rng_line;
  if (!(in >> tag) || tag != "rng") bad_grid_state("missing rng section");
  in.ignore();  // the space after "rng"
  if (!std::getline(in, rng_line)) bad_grid_state("truncated rng section");

  int initialized = 0;
  std::size_t edges_seen = 0, ties_seen = 0;
  if (!(in >> tag >> initialized >> edges_seen >> ties_seen) || tag != "seen") {
    bad_grid_state("malformed seen section");
  }

  // Decode into a fresh survivor list first so a throw leaves `this`
  // untouched.
  std::vector<std::int64_t> restored;

  std::size_t survivor_count = 0;
  if (version == 1) {
    // v1: one bitmap over the whole candidate space.
    std::int64_t total = 0;
    if (!(in >> tag >> survivor_count >> total) || tag != "survivors") {
      bad_grid_state("malformed survivors section");
    }
    if (total != sketch_.candidate_space_size()) {
      bad_grid_state(
          "candidate space size mismatch (different sketch/config?)");
    }
    std::string hex;
    if (!(in >> hex)) bad_grid_state("truncated bitmap");
    const std::size_t bytes = static_cast<std::size_t>((total + 7) / 8);
    if (hex.size() != 2 * bytes) bad_grid_state("bitmap length mismatch");
    if (survivor_count > static_cast<std::uint64_t>(total)) {
      bad_grid_state("survivor count exceeds the candidate space");
    }
    restored.reserve(survivor_count);
    if (!decode_bitmap(hex, 0, total, restored)) {
      bad_grid_state("bitmap is not lowercase hex");
    }
  } else {
    // v2: one bitmap per shard. The `shard` lines are self-describing
    // [lo, hi) ranges required to tile [0, total) contiguously in order, so
    // restore accepts any shard geometry — a future span-formula change or
    // a multi-worker split (one shard per worker) needs no format change.
    std::size_t n_shards = 0;
    std::int64_t span_len = 0, total = 0;
    if (!(in >> tag >> n_shards >> span_len >> total >> survivor_count) ||
        tag != "shards") {
      bad_grid_state("malformed shards section");
    }
    if (total != sketch_.candidate_space_size()) {
      bad_grid_state(
          "candidate space size mismatch (different sketch/config?)");
    }
    if (survivor_count > static_cast<std::uint64_t>(total)) {
      bad_grid_state("survivor count exceeds the candidate space");
    }
    restored.reserve(survivor_count);
    std::int64_t next_lo = 0;
    for (std::size_t k = 0; k < n_shards; ++k) {
      // Each shard record is one line; parse_shard_blob is the single
      // validator for its structure (shared with the dist merge path), so a
      // blob torn mid-bitmap is rejected with the same specific error here
      // and there.
      std::string line;
      do {
        if (!std::getline(in, line)) bad_grid_state("missing shard line");
        while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
          line.pop_back();
        }
      } while (line.empty());
      ParsedShardBlob blob;
      try {
        blob = parse_shard_blob(line);
      } catch (const std::invalid_argument& ex) {
        bad_grid_state(ex.what());
      }
      if (blob.index != k) bad_grid_state("shard lines out of order");
      if (blob.lo != next_lo || blob.hi > total) {
        bad_grid_state("shards do not tile the candidate space");
      }
      next_lo = blob.hi;
      restored.insert(restored.end(), blob.linears.begin(),
                      blob.linears.end());
    }
    if (next_lo != total) {
      bad_grid_state("shards do not tile the candidate space");
    }
  }
  if (restored.size() != survivor_count) {
    bad_grid_state("survivor count disagrees with bitmap");
  }

  util::Rng rng(config_.seed);
  rng.restore_state(rng_line);  // throws before any member is mutated

  rng_ = std::move(rng);
  survivors_ = std::move(restored);
  initialized_ = initialized != 0;
  edges_seen_ = edges_seen;
  ties_seen_ = ties_seen;
}

}  // namespace compsynth::solver
