#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <optional>

#include "util/number.h"

namespace compsynth::util {

namespace {

std::size_t env_thread_cap() {
  const char* env = std::getenv("COMPSYNTH_THREADS");
  const std::optional<int> v =
      env == nullptr ? std::nullopt : parse_number<int>(env, 1);
  return v ? static_cast<std::size_t>(*v) : 0;
}

std::size_t resolve_thread_count(std::size_t requested) {
  const std::size_t cap = env_thread_cap();
  if (requested == 0) {
    if (cap != 0) return cap;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }
  return cap == 0 ? requested : std::min(requested, cap);
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t total = std::max<std::size_t>(1, resolve_thread_count(threads));
  workers_.reserve(total - 1);  // the caller counts as one executor
  for (std::size_t i = 0; i + 1 < total; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  work_available_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      work_available_.wait(mutex_, [this]() REQUIRES(mutex_) {
        return stop_ || !tasks_.empty();
      });
      if (tasks_.empty()) return;  // stop_ set and queue drained
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t min_chunk) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  min_chunk = std::max<std::size_t>(1, min_chunk);
  if (workers_.empty() || n <= min_chunk) {
    body(begin, end);
    return;
  }

  // Shared claim counter: executors grab the next contiguous chunk until the
  // range is exhausted. Four chunks per executor balances load without
  // making chunks too small.
  const std::size_t chunk = std::max(min_chunk, n / (size() * 4));
  struct State {
    std::atomic<std::size_t> next;
    std::atomic<std::size_t> active{0};
    Mutex mutex;
    CondVar done;
    std::exception_ptr error GUARDED_BY(mutex);
  };
  auto state = std::make_shared<State>();
  state->next.store(begin);

  auto drain = [state, end, chunk, &body] {
    for (;;) {
      const std::size_t lo = state->next.fetch_add(chunk);
      if (lo >= end) return;
      const std::size_t hi = std::min(end, lo + chunk);
      try {
        body(lo, hi);
      } catch (...) {
        MutexLock lock(state->mutex);
        if (!state->error) state->error = std::current_exception();
      }
    }
  };

  // One task per worker; each loops on the claim counter so idle workers do
  // not wake for every chunk.
  const std::size_t helpers = std::min(workers_.size(), (n - 1) / min_chunk);
  state->active.store(helpers);
  {
    MutexLock lock(mutex_);
    for (std::size_t i = 0; i < helpers; ++i) {
      tasks_.push([state, drain] {
        drain();
        if (state->active.fetch_sub(1) == 1) {
          // Taking the mutex orders the notify after a concurrent waiter's
          // predicate check, so the wakeup cannot be lost.
          MutexLock lock(state->mutex);
          state->done.notify_all();
        }
      });
    }
  }
  work_available_.notify_all();

  drain();  // the caller participates

  MutexLock lock(state->mutex);
  state->done.wait(state->mutex,
                   [&] { return state->active.load() == 0; });
  if (state->error) std::rethrow_exception(state->error);
}

void ThreadPool::submit(std::function<void()> task) {
  if (workers_.empty()) {
    task();
    return;
  }
  {
    MutexLock lock(mutex_);
    tasks_.push(std::move(task));
  }
  work_available_.notify_one();
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(0);
  return pool;
}

}  // namespace compsynth::util
