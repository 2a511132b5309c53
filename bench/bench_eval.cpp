// Microbenchmark for the sketch evaluators and the GridFinder version-space
// engine on the SWAN Table-1 workload (Fig. 2a sketch, Fig. 2b target).
//
// Sync configurations are compared at identical results (the survivor sets
// must match the seed-tree reference exactly or the bench fails):
//   seed tree       — the seed's sync loop over the recursive AST
//                     interpreter, reproduced here as baseline and reference
//   batched_scalar  — lane tape (sketch::BatchTape), scalar kernel, 1 thread
//   batched         — lane tape, dispatcher-selected kernel (SIMD where the
//                     host supports it), 1 thread — the production default
//   batched_parallel— lane tape + fixed-range shards on the pool
//   distributed     — the same fixed-range shards dispatched to two
//                     in-process compsynth workers over loopback TCP via
//                     dist::ShardCoordinator (docs/DISTRIBUTED.md); fails
//                     if the coordinator fell back to the local scan
// measuring a full version-space rebuild (GridFinder::sync from scratch over
// the 54,571-candidate SWAN grid) and an incremental filter after new answers
// arrive, plus raw evaluation throughput of each evaluator (tree, lane tape
// under the scalar and the dispatched kernel) on its own. The JSON records
// the host (compiler, build type, lane ISA the dispatcher picked, lane
// width, threads) so numbers from different hosts are comparable;
// docs/EVALUATOR.md explains the engine.
//
// Usage:
//   bench_eval [--out PATH]   full run; writes BENCH_eval.json (default PATH)
//   bench_eval --smoke        quick correctness pass for CTest — exercises
//                             every code path (incl. under TSan/ASan builds),
//                             asserts the scalar and SIMD lane kernels return
//                             identical survivor sets, and fails on any
//                             mismatch, but does not time or write JSON.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "dist/coordinator.h"
#include "dist/worker.h"
#include "obs/metrics.h"
#include "obs/run_context.h"
#include "oracle/ground_truth.h"
#include "pref/graph.h"
#include "sketch/printer.h"
#include "sketch/compile.h"
#include "sketch/eval.h"
#include "sketch/library.h"
#include "solver/grid_finder.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace compsynth::bench {
namespace {

using solver::GridFinder;
using solver::GridFinderConfig;

// Answers every pair touching a newly interned scenario, growing the graph
// append-only like the real interaction loop does.
void grow_graph(pref::PreferenceGraph& graph,
                std::vector<pref::VertexId>& vertices, int n_new,
                oracle::GroundTruthOracle& user, util::Rng& rng) {
  const sketch::Sketch& sk = sketch::swan_sketch();
  const std::size_t old_count = vertices.size();
  for (int i = 0; i < n_new; ++i) {
    pref::Scenario s;
    for (const auto& m : sk.metrics()) {
      s.metrics.push_back(rng.uniform_real(m.lo, m.hi));
    }
    vertices.push_back(graph.intern(s));
  }
  for (std::size_t j = old_count; j < vertices.size(); ++j) {
    for (std::size_t i = 0; i < j; ++i) {
      const auto pref = user.compare(graph.scenario(vertices[i]),
                                     graph.scenario(vertices[j]));
      if (pref == oracle::Preference::kFirst) {
        graph.add_preference(vertices[i], vertices[j]);
      } else if (pref == oracle::Preference::kSecond) {
        graph.add_preference(vertices[j], vertices[i]);
      } else {
        graph.add_tie(vertices[i], vertices[j]);
      }
    }
  }
}

// The seed's sync loop, reproduced verbatim as the baseline and the survivor
// reference: recursive tree interpreter, both endpoint objectives recomputed
// for every edge and tie, no memoization across constraints. GridFinder::sync
// is measured against this, which is what the code did before compilation,
// memoization and sharding were introduced.
std::vector<sketch::HoleAssignment> legacy_tree_sync(
    const pref::PreferenceGraph& graph) {
  const sketch::Sketch& sk = sketch::swan_sketch();
  const double tie_bound = solver::FinderConfig{}.tie_tolerance + 1e-9;
  std::vector<sketch::HoleAssignment> survivors;
  sketch::HoleAssignment cursor;
  cursor.index.assign(sk.holes().size(), 0);
  for (;;) {
    const std::vector<double> values = sk.hole_values(cursor);
    bool ok = true;
    for (const pref::Edge& e : graph.edges()) {
      const double better = sketch::eval_with_values(
          sk, values, graph.scenario(e.better).metrics);
      const double worse = sketch::eval_with_values(
          sk, values, graph.scenario(e.worse).metrics);
      if (!(better > worse)) { ok = false; break; }
    }
    if (ok) {
      for (const auto& t : graph.ties()) {
        const double fu = sketch::eval_with_values(
            sk, values, graph.scenario(t.first).metrics);
        const double fv = sketch::eval_with_values(
            sk, values, graph.scenario(t.second).metrics);
        if (std::abs(fu - fv) > tie_bound) { ok = false; break; }
      }
    }
    if (ok) survivors.push_back(cursor);
    std::size_t pos = 0;
    while (pos < cursor.index.size()) {
      if (++cursor.index[pos] < sk.holes()[pos].count) break;
      cursor.index[pos] = 0;
      ++pos;
    }
    if (pos == cursor.index.size()) break;
  }
  return survivors;
}

GridFinder make_finder(int threads) {
  GridFinderConfig config;
  config.threads = threads;
  return GridFinder(sketch::swan_sketch(), config);
}

std::vector<sketch::HoleAssignment> assignments_of(const GridFinder& finder) {
  std::vector<sketch::HoleAssignment> out;
  out.reserve(finder.survivors().size());
  for (const std::int64_t linear : finder.survivors()) {
    out.push_back(finder.assignment_at(linear));
  }
  return out;
}

// Best-of-reps wall time of one full sync from scratch. `threads_used_out`
// reports the executor count the sync actually engaged (the finder falls
// back to a serial pass when the work is too small to shard profitably, so
// this can be 1 even for the "parallel" configuration).
double time_full_sync(int threads,
                      const pref::PreferenceGraph& graph, int reps,
                      std::vector<sketch::HoleAssignment>* survivors_out,
                      std::size_t* threads_used_out = nullptr) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    GridFinder finder = make_finder(threads);
    util::Stopwatch watch;
    finder.sync(graph);
    best = std::min(best, watch.elapsed_seconds());
    if (survivors_out != nullptr && r == 0) *survivors_out = assignments_of(finder);
    if (threads_used_out != nullptr && r == 0) {
      *threads_used_out = finder.last_sync_threads();
    }
  }
  return best;
}

// Best-of-reps wall time of the incremental filter from `before` to `after`
// (`after` must extend `before` append-only).
double time_incremental_sync(int threads,
                             const pref::PreferenceGraph& before,
                             const pref::PreferenceGraph& after, int reps,
                             std::vector<sketch::HoleAssignment>* survivors_out,
                             std::size_t* threads_used_out = nullptr) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    GridFinder finder = make_finder(threads);
    finder.sync(before);
    util::Stopwatch watch;
    finder.sync(after);
    best = std::min(best, watch.elapsed_seconds());
    if (survivors_out != nullptr && r == 0) *survivors_out = assignments_of(finder);
    if (threads_used_out != nullptr && r == 0) {
      *threads_used_out = finder.last_sync_threads();
    }
  }
  return best;
}

// Best-of-reps wall time of one full sync dispatched over `n_workers`
// in-process dist::Worker servers (tcp:0) through a ShardCoordinator — the
// distributed row of the table (docs/DISTRIBUTED.md). The coordinator/wire
// overhead is measured for real: requests serialize the graph, responses
// carry CRC-guarded shard blobs, and the merge reproduces the local order.
// Fails the bench (returns a negative time) if any sync fell back locally,
// so the row can never silently report local numbers as distributed.
double time_full_sync_distributed(
    int n_workers, const pref::PreferenceGraph& graph, int reps,
    std::vector<sketch::HoleAssignment>* survivors_out) {
  obs::MetricsRegistry metrics;
  obs::RunContext obs;
  obs.metrics = &metrics;

  std::vector<std::unique_ptr<dist::Worker>> workers;
  dist::CoordinatorConfig cc;
  for (int i = 0; i < n_workers; ++i) {
    dist::WorkerConfig wc;
    wc.listen = "tcp:0";
    workers.push_back(std::make_unique<dist::Worker>(wc));
    workers.back()->start();
    cc.workers.push_back(workers.back()->endpoint());
  }
  cc.sketch_text = sketch::print_sketch(sketch::swan_sketch());
  cc.obs = obs;
  dist::ShardCoordinator coordinator(std::move(cc));

  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    GridFinderConfig config;
    config.threads = 1;
    config.shard_backend = &coordinator;
    GridFinder finder(sketch::swan_sketch(), config);
    util::Stopwatch watch;
    finder.sync(graph);
    best = std::min(best, watch.elapsed_seconds());
    if (survivors_out != nullptr && r == 0) {
      *survivors_out = assignments_of(finder);
    }
  }
  for (auto& w : workers) {
    w->stop();
    w->wait();
  }
  if (metrics.counter("dist.fallbacks").value() != 0) return -1;
  return best;
}

// Raw evaluator throughput over (candidate, scenario) pairs, evals/second:
// each row is the best of `reps` timings of `passes` sweeps, like the sync
// rows' best-of-reps (one timing swings ~2x between runs).
struct EvalThroughput {
  double tree = 0;
  double lanes_scalar = 0;
  double lanes_dispatch = 0;  // 0 when the dispatcher's pick IS scalar
};

EvalThroughput measure_eval_throughput(int n_candidates, int n_scenarios,
                                       int passes, int reps) {
  const sketch::Sketch& sk = sketch::swan_sketch();
  const sketch::BatchTape batch(sk);
  util::Rng rng(4242);

  std::vector<std::vector<double>> candidates;
  for (int c = 0; c < n_candidates; ++c) {
    sketch::HoleAssignment a;
    for (const auto& h : sk.holes()) a.index.push_back(rng.uniform_int(0, h.count - 1));
    candidates.push_back(sk.hole_values(a));
  }
  const std::size_t width = sk.metrics().size();
  std::vector<double> flat(static_cast<std::size_t>(n_scenarios) * width);
  for (double& v : flat) v = rng.uniform_real(0, 10);

  const double total_evals =
      static_cast<double>(n_candidates) * n_scenarios * passes;
  double sink = 0;  // defeats dead-code elimination
  const auto best_of_reps = [&](auto&& sweep) {
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < reps; ++r) {
      util::Stopwatch watch;
      for (int p = 0; p < passes; ++p) sweep();
      best = std::min(best, watch.elapsed_seconds());
    }
    return best;
  };

  const double tree_seconds = best_of_reps([&] {
    for (const auto& holes : candidates) {
      for (int s = 0; s < n_scenarios; ++s) {
        sink += sketch::eval_with_values(
            sk, holes,
            std::span<const double>(flat).subspan(
                static_cast<std::size_t>(s) * width, width));
      }
    }
  });

  // Lane tape: candidates transposed into kBatchLaneWidth-wide SoA groups
  // (the tail group pads with the last candidate, its lanes discarded from
  // the eval count like GridFinder discards them from the survivor scan).
  constexpr std::size_t W = sketch::kBatchLaneWidth;
  const std::size_t n_groups = (candidates.size() + W - 1) / W;
  std::vector<std::vector<double>> groups_soa(n_groups);
  for (std::size_t g = 0; g < n_groups; ++g) {
    groups_soa[g].resize(sk.holes().size() * W);
    for (std::size_t l = 0; l < W; ++l) {
      const std::size_t c = std::min(g * W + l, candidates.size() - 1);
      for (std::size_t h = 0; h < sk.holes().size(); ++h) {
        groups_soa[g][h * W + l] = candidates[c][h];
      }
    }
  }
  double lane_out[W];
  sketch::LaneError lane_err[W];
  const auto time_lanes = [&](sketch::LaneIsa isa) -> double {
    if (!sketch::set_active_lane_isa(isa)) return 0;
    return best_of_reps([&] {
      for (const auto& soa : groups_soa) {
        for (int s = 0; s < n_scenarios; ++s) {
          batch.eval_lanes(
              std::span<const double>(flat).subspan(
                  static_cast<std::size_t>(s) * width, width),
              soa, lane_out, lane_err);
          sink += lane_out[0];
        }
      }
    });
  };
  const sketch::LaneIsa detected = sketch::active_lane_isa();
  const double lanes_scalar_seconds = time_lanes(sketch::LaneIsa::kScalar);
  const double lanes_dispatch_seconds =
      detected == sketch::LaneIsa::kScalar ? 0 : time_lanes(detected);
  sketch::set_active_lane_isa(detected);

  if (sink == 42.0) std::cerr << "";  // keep `sink` observable

  EvalThroughput result;
  result.tree = total_evals / tree_seconds;
  result.lanes_scalar = total_evals / lanes_scalar_seconds;
  result.lanes_dispatch = lanes_dispatch_seconds > 0
                              ? total_evals / lanes_dispatch_seconds
                              : 0;
  return result;
}

int run(bool smoke, const std::string& out_path) {
  const int initial_scenarios = smoke ? 6 : 16;
  const int extra_scenarios = smoke ? 4 : 6;
  const int reps = smoke ? 1 : 5;

  oracle::GroundTruthOracle user(sketch::swan_sketch(), sketch::swan_target());
  util::Rng rng(20190101);
  pref::PreferenceGraph graph;
  std::vector<pref::VertexId> vertices;
  grow_graph(graph, vertices, initial_scenarios, user, rng);
  const pref::PreferenceGraph before = graph;  // snapshot for incremental runs
  grow_graph(graph, vertices, extra_scenarios, user, rng);

  const std::int64_t candidates =
      sketch::swan_sketch().candidate_space_size();
  const sketch::LaneIsa detected = sketch::active_lane_isa();
  const char* lane_isa = sketch::lane_isa_name(detected);
  std::cout << "workload: SWAN Table-1 grid (" << candidates << " candidates), "
            << before.edges().size() << "+"
            << (graph.edges().size() - before.edges().size()) << " edges, "
            << before.ties().size() << "+"
            << (graph.ties().size() - before.ties().size()) << " ties, lane ISA "
            << lane_isa << " x" << sketch::kBatchLaneWidth << "\n";

  // --- Full rebuild ---------------------------------------------------------
  std::vector<sketch::HoleAssignment> ref;
  double baseline = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    util::Stopwatch watch;
    std::vector<sketch::HoleAssignment> got = legacy_tree_sync(before);
    baseline = std::min(baseline, watch.elapsed_seconds());
    if (r == 0) ref = std::move(got);
  }

  // The lane-dispatch assertion: the scalar and SIMD kernels must produce
  // the identical survivor set (they are bit-for-bit the same arithmetic),
  // checked in every mode including --smoke so CTest guards the dispatch.
  std::vector<sketch::HoleAssignment> got_batch_scalar, got_batch, got_batch_par;
  std::size_t batch_parallel_threads = 1;
  sketch::set_active_lane_isa(sketch::LaneIsa::kScalar);
  const double full_batch_scalar =
      time_full_sync(1, before, reps, &got_batch_scalar);
  sketch::set_active_lane_isa(detected);
  const double full_batch = time_full_sync(1, before, reps, &got_batch);
  const double full_batch_par = time_full_sync(0, before, reps, &got_batch_par,
                                               &batch_parallel_threads);

  // The distributed row: the same full sync through a ShardCoordinator and
  // two in-process workers over loopback TCP. Included in --smoke so CTest
  // continuously proves the remote merge lands on the identical survivors.
  constexpr int kDistWorkers = 2;
  std::vector<sketch::HoleAssignment> got_dist;
  const double full_dist =
      time_full_sync_distributed(kDistWorkers, before, reps, &got_dist);
  if (full_dist < 0) {
    std::cerr << "FAIL: distributed sync fell back to the local scan\n";
    return 1;
  }

  if (got_batch_scalar != ref || got_batch != ref || got_batch_par != ref) {
    std::cerr << "FAIL: batched survivor sets differ from the seed tree "
                 "(lane ISA "
              << lane_isa << ")\n";
    return 1;
  }
  if (got_dist != ref) {
    std::cerr << "FAIL: distributed survivor set differs from local\n";
    return 1;
  }
  std::cout << "full sync       seed-tree " << baseline
            << " s, batched(scalar) " << full_batch_scalar << " s, batched("
            << lane_isa << ") " << full_batch << " s, batched+shards "
            << full_batch_par << " s, distributed(" << kDistWorkers << "w) "
            << full_dist << " s  (" << ref.size() << " survivors; speedup "
            << baseline / full_batch << "x vs seed)\n";

  // --- Incremental filter ---------------------------------------------------
  const std::vector<sketch::HoleAssignment> inc_ref = legacy_tree_sync(graph);
  std::vector<sketch::HoleAssignment> inc_batch_scalar, inc_batch, inc_batch_par;
  std::size_t inc_parallel_threads = 1;
  sketch::set_active_lane_isa(sketch::LaneIsa::kScalar);
  const double inc_batch_scalar_s =
      time_incremental_sync(1, before, graph, reps, &inc_batch_scalar);
  sketch::set_active_lane_isa(detected);
  const double inc_batch_s =
      time_incremental_sync(1, before, graph, reps, &inc_batch);
  const double inc_batch_par_s = time_incremental_sync(
      0, before, graph, reps, &inc_batch_par, &inc_parallel_threads);
  if (inc_batch_scalar != inc_ref || inc_batch != inc_ref ||
      inc_batch_par != inc_ref) {
    std::cerr << "FAIL: incremental survivor sets differ from the seed tree "
                 "(lane ISA "
              << lane_isa << ")\n";
    return 1;
  }
  std::cout << "incremental     batched(scalar) " << inc_batch_scalar_s
            << " s, batched(" << lane_isa << ") " << inc_batch_s
            << " s, batched+shards " << inc_batch_par_s << " s  ("
            << inc_ref.size() << " survivors)\n";

  if (smoke) {
    std::cout << "smoke: all configurations agree (lane ISA " << lane_isa
              << " vs scalar included)\n";
    return 0;
  }

  // --- Raw evaluator throughput --------------------------------------------
  const EvalThroughput throughput = measure_eval_throughput(
      /*n_candidates=*/64, /*n_scenarios=*/512, /*passes=*/8, reps);
  std::cout << "eval throughput tree " << throughput.tree / 1e6
            << " Me/s, lanes(scalar) " << throughput.lanes_scalar / 1e6
            << " Me/s, lanes(" << lane_isa << ") "
            << throughput.lanes_dispatch / 1e6 << " Me/s\n";

  const double sync_speedup = baseline / full_batch;
  std::ofstream json(out_path);
  if (!json) {
    std::cerr << "FAIL: cannot write " << out_path << "\n";
    return 1;
  }
  json << "{\n"
       << "  \"bench\": \"eval\",\n"
       << "  \"workload\": \"swan_table1\",\n"
       << "  \"compiler\": \"" << COMPSYNTH_BENCH_COMPILER << "\",\n"
       << "  \"build_type\": \"" << COMPSYNTH_BENCH_BUILD_TYPE << "\",\n"
       << "  \"candidates\": " << candidates << ",\n"
       << "  \"edges\": " << graph.edges().size() << ",\n"
       << "  \"ties\": " << graph.ties().size() << ",\n"
       << "  \"lane_isa\": \"" << lane_isa << "\",\n"
       << "  \"lane_width\": " << sketch::kBatchLaneWidth << ",\n"
       << "  \"threads_available\": " << util::ThreadPool::shared().size()
       << ",\n"
       << "  \"threads_used\": {\n"
       << "    \"batched_parallel\": " << batch_parallel_threads << ",\n"
       << "    \"incremental_parallel\": " << inc_parallel_threads << "\n"
       << "  },\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"eval_throughput_per_sec\": {\n"
       << "    \"tree\": " << throughput.tree << ",\n"
       << "    \"lanes_scalar\": " << throughput.lanes_scalar << ",\n"
       << "    \"lanes_dispatch\": " << throughput.lanes_dispatch << "\n"
       << "  },\n"
       << "  \"sync_full_seconds\": {\n"
       << "    \"tree_seed_baseline\": " << baseline << ",\n"
       << "    \"batched_scalar\": " << full_batch_scalar << ",\n"
       << "    \"batched\": " << full_batch << ",\n"
       << "    \"batched_parallel\": " << full_batch_par << ",\n"
       << "    \"distributed_2_workers\": " << full_dist << "\n"
       << "  },\n"
       << "  \"sync_incremental_seconds\": {\n"
       << "    \"batched_scalar\": " << inc_batch_scalar_s << ",\n"
       << "    \"batched\": " << inc_batch_s << ",\n"
       << "    \"batched_parallel\": " << inc_batch_par_s << "\n"
       << "  },\n"
       << "  \"sync_full_speedup_vs_seed_tree\": " << sync_speedup << ",\n"
       << "  \"survivor_sets_identical\": true\n}\n";
  std::cout << "wrote " << out_path << " (sync speedup " << sync_speedup
            << "x vs seed tree)\n";
  return 0;
}

}  // namespace
}  // namespace compsynth::bench

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_eval.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_eval [--smoke] [--out PATH]\n";
      return 2;
    }
  }
  return compsynth::bench::run(smoke, out_path);
}
