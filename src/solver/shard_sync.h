// The distribution seam for GridFinder's sharded version-space sync.
//
// A full rebuild partitions the linear candidate space into
// machine-independent fixed ranges (GridFinder's shard_span geometry). Each
// shard is a pure function of (sketch, preference graph, [lo, hi)): the
// survivors it yields do not depend on which thread — or which *machine* —
// scans it. ShardSyncBackend exploits that purity: GridFinder hands the
// backend the graph and the shard ranges, and the backend returns one
// serialized shard record per range (the `shard <k> <lo> <hi> <count> <hex>`
// line of the `gridfinder 2` save-state format, docs/EVALUATOR.md §Shard
// state). GridFinder decodes and merges the records in shard order, which
// reproduces the exact survivor sequence of a local scan.
//
// The contract is all-or-nothing with graceful degradation: the backend
// either returns a complete, structurally valid record for every requested
// range, or nullopt — in which case GridFinder silently runs the local scan
// instead. A backend must never return partial results; recovery from
// individual worker failures (retry, re-dispatch, speculation) is its own
// responsibility. src/dist/coordinator.h is the remote multi-worker
// implementation; docs/DISTRIBUTED.md states the equivalence guarantee.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "pref/graph.h"

namespace compsynth::solver {

/// One fixed-range shard of the linear candidate space: candidates
/// [lo, hi), shard number `index` in the machine-independent geometry.
struct ShardRange {
  std::size_t index = 0;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};

/// Strategy interface for executing a full sharded sync somewhere else.
/// Implementations must be safe to call from the finder's thread (GridFinder
/// invokes it synchronously inside sync()) and must tolerate being called
/// repeatedly with different graphs.
class ShardSyncBackend {
 public:
  virtual ~ShardSyncBackend() = default;

  /// Computes every shard in `ranges` against `graph` and returns the
  /// serialized records in range order, or nullopt when the backend cannot
  /// complete the whole sync (no workers, all workers failed, ...). A
  /// returned vector has exactly ranges.size() entries; entry i is the
  /// `shard` record for ranges[i].
  virtual std::optional<std::vector<std::string>> sync_shards(
      const pref::PreferenceGraph& graph,
      const std::vector<ShardRange>& ranges) = 0;
};

}  // namespace compsynth::solver
