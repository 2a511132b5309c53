// Fixed-size worker pool with a parallel_for helper.
//
// Built for the solver's bulk scoring loops: GridFinder shards candidate
// enumeration and version-space filtering across the pool. The design is
// deliberately simple — one mutex-guarded task queue, workers that live for
// the pool's lifetime — because the units of work handed to it are coarse
// (thousands of evaluations per chunk), so queue overhead is irrelevant.
//
// parallel_for is the only entry point most callers need: it splits an index
// range into contiguous chunks, runs them on the workers *and* the calling
// thread, and rethrows the first exception a chunk threw once every chunk
// has finished. Chunks are contiguous and disjoint, so callers can write
// results into per-chunk slots without synchronization.
//
// Not supported (keep it simple until something needs it): nested
// parallel_for from inside a pool worker (it would deadlock on pools of
// size 1 and oversubscribe otherwise — bodies must not call back into the
// same pool), work stealing, task priorities.
#pragma once

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/sync.h"
#include "util/thread_annotations.h"

namespace compsynth::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 picks std::thread::hardware_concurrency()
  /// (overridable with the COMPSYNTH_THREADS environment variable, which
  /// also caps explicit requests — useful to serialize CI runs). A pool of
  /// size 1 spawns no threads at all: parallel_for runs inline.
  explicit ThreadPool(std::size_t threads = 0);

  /// Joins all workers; pending tasks are completed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of threads that execute work, including the caller during
  /// parallel_for (so a pool with 0 spawned workers has size 1).
  std::size_t size() const { return workers_.size() + 1; }

  /// Runs body(chunk_begin, chunk_end) over contiguous disjoint chunks
  /// covering [begin, end), on the workers plus the calling thread. Blocks
  /// until every chunk is done. If any chunk throws, the first exception is
  /// rethrown here (after all chunks finish). `min_chunk` bounds the
  /// scheduling overhead for cheap bodies; ranges no larger than it run
  /// inline on the caller.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t)>& body,
                    std::size_t min_chunk = 1);

  /// Enqueues one opaque task for a worker thread (SessionHost runs its
  /// session advances this way); keep using parallel_for for data-parallel
  /// loops. When the pool has no spawned workers (size 1) the task runs
  /// inline before submit returns — callers that need true concurrency must
  /// check size() first. Tasks must not call back into the same pool (see
  /// the nested-use note above).
  void submit(std::function<void()> task);

  /// Process-wide default pool, created on first use.
  static ThreadPool& shared();

 private:
  void worker_loop();

  Mutex mutex_;
  CondVar work_available_;
  std::queue<std::function<void()>> tasks_ GUARDED_BY(mutex_);
  /// Written only by the constructor; workers never touch it, and the
  /// destructor joins after stop_ — safe to read unlocked thereafter.
  std::vector<std::thread> workers_;
  bool stop_ GUARDED_BY(mutex_) = false;
};

}  // namespace compsynth::util
