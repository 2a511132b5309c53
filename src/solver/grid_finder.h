// Solver-free candidate finder over the explicit hole grid.
//
// Maintains the version space — the set of hole assignments consistent with
// the preference graph — explicitly, shrinking it incrementally as edges and
// ties arrive. Distinguishing scenario pairs are found by sampling the
// (continuous) metric box plus a structured sweep near the candidates'
// decision boundaries.
//
// The version space is one sorted list of linear candidate indices — the
// same list the snapshot and the dist wire encode as per-shard bitmaps — so
// nothing converts between memory, snapshot and wire. Sync evaluates
// kBatchLaneWidth candidates per pass of the lane tape (sketch::BatchTape,
// SIMD where the host supports it — docs/EVALUATOR.md), decoding each lane's
// hole values from its index as the group is staged; the initial grid
// enumeration and the incremental filter run in fixed-range shards across a
// thread pool (util/thread_pool.h), and the incremental filter checks only
// the new edges/ties. Pair search and bisection scoring run on the same lane
// tape: a candidate pair shares one pass per scenario (lane 0 = a, the other
// lanes = b), and bisection scores 8 survivors per pass.
// tests/grid_reference_test.cpp checks sync, pair search and bisection
// scoring against brute-force sketch::eval references.
//
// Compared to Z3Finder:
//   + no SMT dependency, trivially debuggable, very fast per query;
//   - its "unique ranking" verdict is approximate (based on a sampling
//     budget rather than a proof), so it may stop early on adversarial
//     sketches. The differential tests quantify this.
// It is the "search loop" baseline the repro notes anticipate, and the
// ablation bench (bench_ablation_solver) compares the two head to head.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "sketch/compile.h"
#include "solver/finder.h"
#include "solver/shard_sync.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace compsynth::solver {

/// How the finder picks which distinguishing pair to ask the user about.
enum class QueryStrategy {
  /// First disagreement found between a random candidate pair — mirrors the
  /// paper's Z3 behaviour, where the solver returns an arbitrary witness.
  kFirstFound,
  /// Active learning: examine several disagreement witnesses and ask about
  /// the one whose answer splits the surviving version space most evenly,
  /// maximizing the information per user interaction.
  kBisection,
};

struct GridFinderConfig {
  FinderConfig base;
  /// Random scenario pairs examined per candidate pair when hunting for a
  /// distinguishing input.
  int scenario_samples = 512;
  /// Candidate pairs examined before concluding (approximately) that all
  /// survivors rank identically.
  int candidate_pair_budget = 64;
  QueryStrategy strategy = QueryStrategy::kFirstFound;
  /// Disagreement witnesses scored per iteration under kBisection.
  int bisection_samples = 12;
  std::uint64_t seed = 0x5eed;
  /// Worker threads for sync / filtering / bisection scoring: 0 = the
  /// process-wide shared pool, 1 = fully sequential, N > 1 = a dedicated
  /// pool of N. Any Viability::concrete callback must be thread-safe when
  /// this is not 1 (it is invoked concurrently from the pool).
  int threads = 0;
  /// Distribution seam (non-owning; must outlive the finder): when set and
  /// sync() performs a *full* rebuild with no Viability callback
  /// (callbacks cannot cross the wire), sync() asks the backend to compute
  /// the fixed-range shards remotely and merges the returned records. Any
  /// backend failure — nullopt, a torn/malformed record, a range mismatch —
  /// falls back to the local scan, so a configured backend can only change
  /// where the work runs, never whether the sync completes or what it
  /// produces (docs/DISTRIBUTED.md §Equivalence). Incremental filters
  /// always run locally: they filter the survivor list the finder holds.
  ShardSyncBackend* shard_backend = nullptr;
};

class GridFinder final : public CandidateFinder {
 public:
  explicit GridFinder(sketch::Sketch sketch, GridFinderConfig config = {},
                      Viability viability = {}, ScenarioDomain domain = {});

  FinderResult find_distinguishing(const pref::PreferenceGraph& graph,
                                   int num_pairs) override;

  std::optional<sketch::HoleAssignment> find_consistent(
      const pref::PreferenceGraph& graph) override;

  /// Brings the version space in line with `graph`: full (parallel) grid
  /// enumeration on first use or after the graph shrank, incremental filter
  /// over the new edges/ties otherwise. Idempotent; exposed so benches and
  /// tests can drive/measure it directly.
  void sync(const pref::PreferenceGraph& graph);

  /// Survivors consistent with the most recently seen graph state, as
  /// ascending linear candidate indices (decode one with assignment_at).
  std::size_t version_space_size() const { return survivors_.size(); }
  const std::vector<std::int64_t>& survivors() const { return survivors_; }

  /// Decodes a linear candidate index into a hole assignment (index 0 is
  /// the fastest-varying digit, matching odometer order).
  sketch::HoleAssignment assignment_at(std::int64_t linear) const;

  /// Executor threads / shards the most recent sync() actually used (1 when
  /// the work was too small to shard and ran serially — see the work-size
  /// thresholds in grid_finder.cpp). The shard count is the fixed-range
  /// geometry (shard_span), which holds even when the scan runs serially;
  /// only the thread count drops to 1 then. Reported by
  /// bench_eval so regressions from parallel overhead on small workloads
  /// are visible in the JSON.
  std::size_t last_sync_threads() const { return last_sync_threads_; }
  std::size_t last_sync_shards() const { return last_sync_shards_; }

  /// Durable-session persistence: the pair-search RNG stream, the sync
  /// cursors (edges/ties already folded into the version space) and the
  /// survivor set as per-shard bitmaps over linear candidate indices
  /// (format v2; self-describing `shard <k> <lo> <hi>` ranges so a future
  /// multi-worker split can emit one shard per worker with no format
  /// change — docs/EVALUATOR.md §Shard state). v1 single-bitmap blobs from
  /// older snapshots still restore. The bitmaps encode the in-memory
  /// survivor list directly, so a restored finder holds the identical list
  /// and continues the identical query sequence.
  std::string save_state() const override;
  void restore_state(const std::string& state) override;

  /// One decoded `shard <k> <lo> <hi> <count> <hex>` record: the range, and
  /// the surviving linear candidate indices in ascending order.
  struct ParsedShardBlob {
    std::size_t index = 0;
    std::int64_t lo = 0;
    std::int64_t hi = 0;
    std::vector<std::int64_t> linears;
  };

  /// Parses and structurally validates one serialized shard record (the
  /// per-shard line of the `gridfinder 2` format and the dist wire blob —
  /// docs/EVALUATOR.md §Shard state). Throws std::invalid_argument with a
  /// specific reason on any damage: truncation mid-bitmap, a bitmap whose
  /// length disagrees with [lo, hi), non-hex bytes, or a `count` field that
  /// disagrees with the bitmap's population. Shared by restore_state, the
  /// remote-merge path and the dist coordinator's response validation, so a
  /// torn blob is rejected identically at every layer.
  static ParsedShardBlob parse_shard_blob(const std::string& record);

  /// Renders the inverse: linears must lie in [lo, hi) ascending.
  static std::string encode_shard_blob(std::size_t index, std::int64_t lo,
                                       std::int64_t hi,
                                       const std::vector<std::int64_t>& linears);

  /// The machine-independent fixed-range shard list for this sketch's
  /// candidate space — exactly the geometry a full sync uses.
  std::vector<ShardRange> shard_ranges() const;

  /// Computes one shard of a full sync against `graph` and returns
  /// its serialized record. Pure: reads only immutable members (the sketch,
  /// tapes and config), so concurrent calls — the worker side of a
  /// distributed sync — are safe. Lane evaluation errors propagate as the
  /// local scan would throw them.
  std::string sync_shard_blob(const pref::PreferenceGraph& graph,
                              std::size_t index, std::int64_t lo,
                              std::int64_t hi) const;

  /// kBisection's score of each disagreement witness against the current
  /// survivors: the number the weaker strict answer rules out,
  /// min(#survivors scoring preferred_by_a strictly higher, #survivors
  /// scoring preferred_by_b strictly higher). find_distinguishing asks the
  /// first witness with the highest score. A survivor that raises on either
  /// scenario re-throws its EvalError. Exposed so tests can hold the scores
  /// to a reference scorer.
  std::vector<long> bisection_scores(
      std::span<const DistinguishingPair> pairs) const;

 private:
  /// Per-shard evaluation tallies, summed into the grid_sync trace event.
  struct BatchCounters {
    long long lane_evals = 0;  // lanes pushed through BatchTape::eval_lanes
    long long groups = 0;      // kLaneWidth-candidate groups formed
  };
  /// Fixed-range shard width for `total` candidates. A pure function of the
  /// candidate-space size — never of thread count — so shard geometry (and
  /// therefore the serialized per-shard state) is machine-independent.
  static std::int64_t shard_span(std::int64_t total);
  /// Full rebuild of one shard: enumerates [lo, hi) in kBatchLaneWidth
  /// groups through the lane tape, appending survivors in order. A
  /// candidate survives when it is viable, every edge's better vertex
  /// scores strictly above its worse vertex, and every tie's two vertices
  /// lie within tie_tolerance + 1e-9 — the constraints checked in graph
  /// order, each candidate stopping at its first failure. The first
  /// evaluation error in candidate order is re-thrown as the scalar
  /// interpreter's EvalError.
  void enumerate_range_batch(std::int64_t lo, std::int64_t hi,
                             const pref::PreferenceGraph& graph,
                             std::vector<std::int64_t>& out,
                             BatchCounters& counters) const;
  /// Incremental filter of survivors_[lo, hi) (one shard's contiguous
  /// position range) against the new edges/ties: writes the range's keep
  /// flags and nothing else, so shards run in parallel without shared
  /// mutable state.
  void filter_range_batch(std::size_t lo, std::size_t hi,
                          const pref::PreferenceGraph& graph,
                          std::vector<char>& keep,
                          BatchCounters& counters) const;
  /// Remote full rebuild through config_.shard_backend: dispatches the
  /// fixed-range shards, decodes + merges the returned records into
  /// survivors_ in shard order. Returns false (leaving survivors_ empty,
  /// exactly as the local path expects it) when the backend declines or any
  /// record fails validation — the caller then runs the local scan.
  bool rebuild_remote(const pref::PreferenceGraph& graph,
                      const std::vector<ShardRange>& ranges);
  /// Stages survivors_[base, base+n) as lanes 0..n-1 of `holes_soa`, each
  /// lane's hole values decoded from its linear index, and pads the rest —
  /// the group shape of the incremental filter and bisection scoring.
  void stage_survivors(std::size_t base, std::size_t n,
                       std::vector<double>& holes_soa) const;
  std::vector<double> boundary_values(std::span<const double> hole_values,
                                      std::size_t metric) const;
  /// Looks for a scenario pair that candidates `a` and `b` (linear indices)
  /// rank in opposite orders by at least distinguish_margin.
  std::optional<DistinguishingPair> distinguish(std::int64_t a,
                                                std::int64_t b);
  /// The pool to shard work over, or nullptr when configured sequential.
  util::ThreadPool* pool() const;

  sketch::Sketch sketch_;
  sketch::BatchTape batch_;  // must follow sketch_ (init order)
  GridFinderConfig config_;
  Viability viability_;
  ScenarioDomain domain_;
  util::Rng rng_;
  std::unique_ptr<util::ThreadPool> own_pool_;  // when config_.threads > 1

  // Shard state. GridFinder holds no mutex: parallel_for shards write only
  // their own slots of pre-sized output vectors (never these members), and
  // every member write below happens on the caller's thread either before
  // the shards are submitted or after parallel_for's completion barrier —
  // the pool's own synchronization publishes them.
  std::vector<std::int64_t> survivors_;  // ascending linear indices
  bool initialized_ = false;
  std::size_t edges_seen_ = 0;
  std::size_t ties_seen_ = 0;
  std::size_t last_sync_threads_ = 1;
  std::size_t last_sync_shards_ = 1;
};

}  // namespace compsynth::solver
