// The benchmark's workloads. Each runs in its own process as a fixed,
// seeded list of latent targets: the same (workload, seed, seconds) always
// does the same work and asks the same questions, however fast the host is.
//
//   grid_fine   grid back-end, fine-resolution SWAN sketch, 2-thread pool
//   z3_homenet  Z3 back-end, homenet sketch, single thread
//   serve_swan  many sessions on coarse SWAN in one in-process SessionHost
//   dist_swan   coarse SWAN whose full syncs go to two in-process workers
//
// perfbench/README.md says why each exists and what it should move.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Work budget: the number of objectives (sessions) a workload runs is a
  /// fixed function of this, never of the clock.
  int seconds = 10;
  bool trace = false;
  /// Tiny sizes for the benchmark's own tests.
  bool smoke = false;
  /// Directory holding swan_fine.sketch.
  std::string sketch_dir = "perfbench/sketches";
  /// Directory for session files and span logs.
  std::string state_dir = ".bench_build/perfbench";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  /// Why `correct` is false, one line each.
  std::vector<std::string> problems;
  long attempted = 0;
  long failed = 0;
  /// End-to-end metrics, every run.
  std::vector<Metric> metrics;
  /// Per-layer metrics, traced runs only.
  std::vector<Metric> layers;
  /// Sample count behind each timing metric.
  std::vector<std::pair<std::string, long>> samples;
  /// Counts that must repeat exactly in every run of a workload and seed.
  std::vector<std::pair<std::string, long long>> counts;
  /// Question-sequence digest of each objective (or session), in order.
  std::vector<std::string> digests;
  /// Where the traced run wrote its spans.
  std::string span_file;
  /// Wall seconds of each phase of the run (set-up, measured passes,
  /// correctness checks, traced pass) and of each measured pass and its
  /// wait p50, for sizing the benchmark and telling host drift within a
  /// run from drift between runs.
  std::vector<std::pair<std::string, double>> phases;
};

/// Runs one workload; throws std::invalid_argument on an unknown name.
RunReport run_workload(const Options& options);

/// Fixed memory-latency probe: a dependent random walk over 64 MiB.
/// Returns nanoseconds per step.
double memory_probe_ns();

}  // namespace perfbench
