// The worker side of distributed version-space sync: a line-protocol server
// (serve/line_server.h) that computes fixed-range shards of a full
// grid sync on request (docs/DISTRIBUTED.md).
//
// A worker is stateless between requests in the sense that matters for
// recovery: every shard request is self-contained (sketch text, graph text,
// tie tolerance, range), so any worker can serve any shard and a lost worker
// forfeits nothing but time. The only state kept is a small MRU cache of
// compiled GridFinder engines keyed by (sketch text, tie) — compiling the
// lane tape once per sketch instead of once per shard — which is purely a
// throughput optimization and never observable in results.
//
// Fault injection for the robustness tests rides the same seeded
// util::FaultInjector the rest of the tree uses: worker_stall sleeps past
// the coordinator's deadline, worker_truncate returns a blob cut mid-bitmap
// (CRC valid, structure torn), worker_drop sends half the response bytes
// and kills the connection, worker_crash_after_ack downs the whole worker
// right after a successful response (see util/fault.h).
//
// Observability: dist.worker.requests / dist.worker.faults counters and one
// "worker_shard" trace event per shard request (schema rev 1.6).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dist/wire.h"
#include "obs/run_context.h"
#include "serve/line_server.h"
#include "solver/grid_finder.h"
#include "util/fault.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace compsynth::dist {

struct WorkerConfig {
  /// "unix:<path>" or "tcp:[host:]<port>"; tcp:0 binds an ephemeral port.
  std::string listen;
  int backlog = 64;
  /// Injected worker faults (all-zero = none).
  util::FaultPlan faults;
  /// Worker-level observability (typically run id "worker").
  obs::RunContext obs;
};

class Worker {
 public:
  /// Binds immediately; throws std::runtime_error on a bad endpoint.
  explicit Worker(WorkerConfig config);

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  void start();
  std::string endpoint() const;
  /// Blocks until a shutdown verb or stop(), then joins every thread.
  void wait();
  void stop();

 private:
  std::string handle_line(const std::string& line, serve::LineControl* ctl);
  std::string handle_shard(const ShardRequest& req, serve::LineControl* ctl);

  /// The compiled engine for (sketch text, tie), built on first use.
  /// GridFinder::sync_shard_blob is const and pure, so concurrent shard
  /// requests share one engine; only the cache structure needs the lock.
  std::shared_ptr<const solver::GridFinder> finder_for(
      const std::string& sketch_text, double tie) EXCLUDES(mu_);

  WorkerConfig config_;
  util::FaultInjector faults_;
  serve::LineServer server_;

  struct CacheEntry {
    std::string sketch_text;
    double tie = 0;
    std::shared_ptr<const solver::GridFinder> finder;
  };
  static constexpr std::size_t kMaxCachedEngines = 4;

  util::Mutex mu_;
  /// MRU order: front = most recent.
  std::vector<CacheEntry> engines_ GUARDED_BY(mu_);
};

}  // namespace compsynth::dist
