// The coordinator side of distributed version-space sync
// (docs/DISTRIBUTED.md).
//
// ShardCoordinator implements solver::ShardSyncBackend: when a GridFinder
// performs a full rebuild, sync_shards() receives the machine-
// independent fixed-range shard list and farms it out to the configured
// compsynth_worker endpoints over the dist wire protocol (dist/wire.h),
// then returns the per-shard records in shard order — a sequence the
// finder merges into a survivor set byte-identical to the local scan's.
//
// The robustness model (docs/DISTRIBUTED.md §Failure model):
//
//  - Shards are pure functions of (sketch, graph, tie, range), so every
//    dispatch is idempotent and the first structurally valid response for a
//    shard wins; duplicates from retries or speculation are discarded.
//  - Each worker gets one connection thread with per-request kernel
//    deadlines (shard_deadline_s). A transport failure — refused, timeout,
//    EOF, torn line — or an invalid response (CRC mismatch, torn blob,
//    identity mismatch) is a strike; the shard is re-queued for any worker,
//    and a worker at max_worker_strikes is retired for the sync.
//  - Idle connection threads heartbeat their worker with `ping` so a
//    crashed worker is detected even when no shard is in flight on it.
//  - Stragglers are speculatively re-issued: once completed-shard timings
//    exist, a shard in flight longer than straggler_factor × the median
//    (floored at min_straggler_s) is dispatched a second time in parallel.
//  - A shard that exhausts max_shard_attempts, or the retirement of every
//    worker, aborts the sync: sync_shards returns nullopt and the finder
//    falls back to the local scan. Distribution can change where the work
//    runs, never whether it completes or what it produces.
//
// Observability (schema rev 1.6): "shard_dispatch" / "shard_reissue" /
// "worker_fail" trace events plus a "dist_sync" span; counters
// dist.{shards_dispatched,shards_completed,reissues,worker_failures,
// fallbacks} and the dist.shard.seconds histogram.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/run_context.h"
#include "solver/shard_sync.h"
#include "util/fault.h"

namespace compsynth::dist {

struct CoordinatorConfig {
  /// Worker endpoints ("unix:<path>" / "tcp:[host:]<port>"). Empty = the
  /// coordinator declines every sync (pure local fallback).
  std::vector<std::string> workers;
  /// Sketch DSL text shipped with every shard request; must describe the
  /// same sketch the GridFinder using this backend was built over.
  std::string sketch_text;
  /// FinderConfig::tie_tolerance of that finder.
  double tie_tolerance = 1e-4;
  /// Per-request kernel deadline: a worker that neither answers nor fails
  /// within this window counts as failed for the attempt.
  double shard_deadline_s = 30;
  /// Dispatches (primary + retries + speculative) allowed per shard before
  /// the sync aborts into local fallback.
  int max_shard_attempts = 3;
  /// Failures tolerated per worker per sync before it is retired.
  int max_worker_strikes = 2;
  /// Speculative re-issue threshold: in-flight longer than
  /// straggler_factor × median completed-shard time (floored at
  /// min_straggler_s). Before any shard completes the threshold is
  /// shard_deadline_s (no baseline to judge by).
  double straggler_factor = 4.0;
  double min_straggler_s = 0.25;
  /// Idle-connection heartbeat period.
  double heartbeat_interval_s = 0.25;
  /// Connect-time retry (rides out a worker that is still binding).
  util::RetryPolicy connect_retry;
  obs::RunContext obs;
};

class ShardCoordinator final : public solver::ShardSyncBackend {
 public:
  explicit ShardCoordinator(CoordinatorConfig config);

  /// See solver::ShardSyncBackend. Thread-compatible: one sync at a time
  /// per coordinator (the finder calls it from sync(), which is already
  /// single-threaded per finder).
  std::optional<std::vector<std::string>> sync_shards(
      const pref::PreferenceGraph& graph,
      const std::vector<solver::ShardRange>& ranges) override;

 private:
  struct Sync;
  void worker_loop(Sync& sync, std::size_t worker_index,
                   const std::vector<solver::ShardRange>& ranges,
                   const std::string& graph_text);

  CoordinatorConfig config_;
  std::atomic<long> job_counter_{0};
};

}  // namespace compsynth::dist
