// Seeded concurrency stress tests over the shared-state surfaces annotated
// in this tree (docs/CONCURRENCY.md): metrics instruments, the thread
// pool and the session host. Every
// test asserts an invariant that a lost update or a torn read would break
// (histogram count == bin sum, LRU residency bound, no lost answers), so
// the suite is meaningful both natively — where a race shows up as a wrong
// count — and under TSan (scripts/check_tsan.sh runs `ctest -R
// ConcurrencyStress` instrumented), where the same schedules surface the
// underlying data race directly.
//
// All workloads are seeded and fixed-size: thread counts, iteration counts
// and RNG streams are constants, so a failure reproduces.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "oracle/oracle.h"
#include "pref/graph.h"
#include "serve/protocol.h"
#include "serve/session_host.h"
#include "sketch/eval.h"
#include "sketch/parser.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace compsynth {
namespace {

/// Spin barrier: releases all waiters at once so racing threads actually
/// race instead of running serially on a 1-core machine's scheduler.
class SpinBarrier {
 public:
  explicit SpinBarrier(int parties) : remaining_(parties) {}
  void arrive_and_wait() {
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) return;
    while (remaining_.load(std::memory_order_acquire) > 0) {
      std::this_thread::yield();
    }
  }

 private:
  std::atomic<int> remaining_;
};

// --- MetricsRegistry / Histogram -------------------------------------------

TEST(ConcurrencyStressMetrics, HistogramCountMatchesBinSum) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  obs::Histogram h;
  SpinBarrier barrier(kThreads);
  std::vector<std::thread> threads;
  std::vector<double> mins(kThreads), maxes(kThreads), sums(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      util::Rng rng(1000u + static_cast<std::uint64_t>(t));
      double lo = 1e9, hi = -1e9, sum = 0;
      barrier.arrive_and_wait();
      for (int i = 0; i < kPerThread; ++i) {
        const double v = rng.uniform_real(1e-6, 10.0);
        h.record(v);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
        sum += v;
      }
      mins[static_cast<std::size_t>(t)] = lo;
      maxes[static_cast<std::size_t>(t)] = hi;
      sums[static_cast<std::size_t>(t)] = sum;
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(h.count(), static_cast<long>(kThreads) * kPerThread);
  // Every recorded sample landed in exactly one bin: quantile(1.0) walks
  // the bins to the last rank, which only exists if no bin increment was
  // lost. Cross-check through the exact aggregates.
  double expect_min = 1e9, expect_max = -1e9, expect_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    expect_min = std::min(expect_min, mins[static_cast<std::size_t>(t)]);
    expect_max = std::max(expect_max, maxes[static_cast<std::size_t>(t)]);
    expect_sum += sums[static_cast<std::size_t>(t)];
  }
  EXPECT_DOUBLE_EQ(h.min(), expect_min);
  EXPECT_DOUBLE_EQ(h.max(), expect_max);
  EXPECT_NEAR(h.sum(), expect_sum, 1e-6 * expect_sum);
  EXPECT_GE(h.quantile(1.0), h.quantile(0.0));
}

// Pins the first-record min/max fix (obs/metrics.cpp): before the
// +/-infinity seeds, a thread that observed count_ == 0 could CAS its own
// value over a legitimately recorded 0.0, because 0.0 was indistinguishable
// from the unrecorded sentinel. With 0.0 and -1.0 racing, a lost update
// shows up as max() == -1 (the 0.0 vanished).
TEST(ConcurrencyStressMetrics, FirstRecordRaceCannotLoseAValue) {
  constexpr int kRounds = 300;
  for (int round = 0; round < kRounds; ++round) {
    obs::Histogram h;
    SpinBarrier barrier(2);
    std::thread a([&] {
      barrier.arrive_and_wait();
      h.record(0.0);
    });
    std::thread b([&] {
      barrier.arrive_and_wait();
      h.record(-1.0);
    });
    a.join();
    b.join();
    ASSERT_EQ(h.count(), 2) << "round " << round;
    ASSERT_DOUBLE_EQ(h.min(), -1.0) << "round " << round;
    ASSERT_DOUBLE_EQ(h.max(), 0.0) << "round " << round;
  }
}

TEST(ConcurrencyStressMetrics, RegistryResolutionIsStableUnderContention) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  obs::MetricsRegistry reg;
  SpinBarrier barrier(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      util::Rng rng(2000u + static_cast<std::uint64_t>(t));
      barrier.arrive_and_wait();
      for (int i = 0; i < kPerThread; ++i) {
        // Mix fresh resolutions with held references: both must hit the
        // same instrument, or counts leak.
        reg.counter("stress.counter").add(1);
        reg.gauge("stress.gauge").set(static_cast<double>(i));
        reg.histogram("stress.hist").record(rng.uniform_real(0.0, 1.0));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(reg.counter("stress.counter").value(),
            static_cast<long>(kThreads) * kPerThread);
  EXPECT_EQ(reg.histogram("stress.hist").count(),
            static_cast<long>(kThreads) * kPerThread);
  EXPECT_EQ(reg.counters().size(), 1u);
  EXPECT_EQ(reg.gauges().size(), 1u);
  EXPECT_EQ(reg.histograms().size(), 1u);
}

// --- ThreadPool -------------------------------------------------------------

TEST(ConcurrencyStressThreadPool, SubmitRacesParallelFor) {
  constexpr int kSubmitters = 2;
  constexpr int kTasksPerSubmitter = 500;
  constexpr std::size_t kRange = 20000;
  std::atomic<long> submitted_done{0};
  std::atomic<long> chunked_done{0};
  {
    util::ThreadPool pool(3);
    SpinBarrier barrier(kSubmitters + 1);
    std::vector<std::thread> submitters;
    for (int t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&] {
        barrier.arrive_and_wait();
        for (int i = 0; i < kTasksPerSubmitter; ++i) {
          pool.submit([&submitted_done] {
            submitted_done.fetch_add(1, std::memory_order_relaxed);
          });
        }
      });
    }
    barrier.arrive_and_wait();
    for (int round = 0; round < 10; ++round) {
      pool.parallel_for(
          0, kRange,
          [&](std::size_t lo, std::size_t hi) {
            chunked_done.fetch_add(static_cast<long>(hi - lo),
                                   std::memory_order_relaxed);
          },
          64);
    }
    for (std::thread& th : submitters) th.join();
    // Pool destructor drains the queue: every submitted task completes.
  }
  EXPECT_EQ(submitted_done.load(),
            static_cast<long>(kSubmitters) * kTasksPerSubmitter);
  EXPECT_EQ(chunked_done.load(), static_cast<long>(kRange) * 10);
}

TEST(ConcurrencyStressThreadPool, ParallelForRethrowsWhileSubmitsInterleave) {
  util::ThreadPool pool(3);
  std::atomic<long> noise_done{0};
  std::atomic<bool> stop{false};
  std::thread noise([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      pool.submit(
          [&noise_done] { noise_done.fetch_add(1, std::memory_order_relaxed); });
      std::this_thread::yield();
    }
  });
  for (int round = 0; round < 20; ++round) {
    EXPECT_THROW(
        pool.parallel_for(
            0, 1000,
            [&](std::size_t lo, std::size_t) {
              if (lo == 0) throw std::runtime_error("chunk failure");
            },
            16),
        std::runtime_error);
  }
  stop.store(true);
  noise.join();
}

// --- SessionHost ------------------------------------------------------------

constexpr char kServeSketch[] = R"(
sketch serve(throughput in [0, 10], latency in [0, 100]) {
  hole weight in grid(0, 0.25, 5);
  hole bonus_thrsh in grid(0, 20, 5);
  if latency <= bonus_thrsh
  then throughput - weight*latency + 100
  else throughput - weight*latency
}
)";

struct StressTempRoot {
  std::filesystem::path path;
  StressTempRoot() {
    static std::atomic<int> counter{0};
    path = std::filesystem::temp_directory_path() /
           ("compsynth_stress_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1)));
    std::filesystem::create_directories(path);
  }
  ~StressTempRoot() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

/// Drives one session to completion through the host API, judging each pair
/// against a latent target assignment. Runs on a plain thread, so failures
/// are reported through the returned struct instead of gtest macros
/// (EXPECT_* is not safe off the main thread).
struct DriverOutcome {
  bool completed = false;
  long answers = 0;
  std::string error;
};

DriverOutcome drive_session(serve::SessionHost& host, const sketch::Sketch& sk,
                            const std::string& id,
                            const sketch::HoleAssignment& target,
                            int evict_every) {
  DriverOutcome out;
  for (int step = 0; step < 5000; ++step) {
    serve::SessionView view;
    const serve::HostResult r = host.next(id, 30000, &view);
    if (!r.ok) {
      out.error = "next: " + r.code + ": " + r.message;
      return out;
    }
    if (view.phase == serve::SessionPhase::kDone) {
      out.completed = true;
      return out;
    }
    if (view.phase != serve::SessionPhase::kWaiting) {
      out.error = std::string("unexpected phase ") + phase_name(view.phase) +
                  (view.phase == serve::SessionPhase::kFailed
                       ? ": " + view.error
                       : "");
      return out;
    }
    const double va = sketch::eval(sk, target, view.pending->a.metrics);
    const double vb = sketch::eval(sk, target, view.pending->b.metrics);
    const oracle::Preference pref = va > vb + 1e-4 ? oracle::Preference::kFirst
                                    : vb > va + 1e-4
                                        ? oracle::Preference::kSecond
                                        : oracle::Preference::kTie;
    const serve::HostResult ar = host.answer(id, view.pending->index, pref);
    if (!ar.ok) {
      out.error = "answer: " + ar.code + ": " + ar.message;
      return out;
    }
    ++out.answers;
    if (evict_every > 0 && out.answers % evict_every == 0) {
      const serve::HostResult er = host.evict(id);
      if (!er.ok) {
        out.error = "evict: " + er.code + ": " + er.message;
        return out;
      }
    }
  }
  out.error = "session did not complete within the step budget";
  return out;
}

long logged_answer_count(const std::filesystem::path& root,
                         const std::string& id) {
  std::ifstream in(root / id / "answers.log");
  long n = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) ++n;
  }
  return n;
}

TEST(ConcurrencyStressServe, ConcurrentSessionsLoseNoAnswers) {
  constexpr int kSessions = 4;
  const sketch::Sketch sk = sketch::parse_sketch(kServeSketch);
  StressTempRoot root;
  util::ThreadPool pool(3);
  serve::HostConfig config;
  config.root = root.path.string();
  config.max_active = 2;  // below kSessions: the LRU churns mid-drive
  config.pool = &pool;
  serve::SessionHost host(config);
  host.register_sketch(sk);

  std::vector<DriverOutcome> outcomes(kSessions);
  SpinBarrier barrier(kSessions);
  std::vector<std::thread> drivers;
  for (int i = 0; i < kSessions; ++i) {
    drivers.emplace_back([&, i] {
      const std::string id = "stress-" + std::to_string(i);
      serve::CreateParams params;
      params.id = id;
      params.seed = 100u + static_cast<std::uint64_t>(i);
      params.initial = 5;
      params.pairs = 1;
      params.max_iters = 200;
      barrier.arrive_and_wait();
      const serve::HostResult cr = host.create(params);
      if (!cr.ok) {
        outcomes[static_cast<std::size_t>(i)].error =
            "create: " + cr.code + ": " + cr.message;
        return;
      }
      const sketch::HoleAssignment target{
          {static_cast<std::int64_t>(i % 5),
           static_cast<std::int64_t>((static_cast<std::uint64_t>(i) * 3 + 1) %
                                     5)}};
      outcomes[static_cast<std::size_t>(i)] =
          drive_session(host, sk, id, target, /*evict_every=*/3);
    });
  }
  for (std::thread& th : drivers) th.join();

  for (int i = 0; i < kSessions; ++i) {
    const DriverOutcome& out = outcomes[static_cast<std::size_t>(i)];
    const std::string id = "stress-" + std::to_string(i);
    EXPECT_TRUE(out.completed) << id << ": " << out.error;
    // Durability-before-ack means every acked answer is a log line: a
    // mismatch here is a lost (or duplicated) answer under concurrency.
    EXPECT_EQ(logged_answer_count(root.path, id), out.answers) << id;
    serve::SessionView view;
    const serve::HostResult ir = host.inspect(id, &view);
    ASSERT_TRUE(ir.ok) << id << ": " << ir.code;
    EXPECT_EQ(view.phase == serve::SessionPhase::kDone ||
                  view.phase == serve::SessionPhase::kSwapped,
              true)
        << id << ": " << phase_name(view.phase);
  }
  const serve::HostStats stats = host.stats();
  EXPECT_EQ(stats.sessions_created, kSessions);
  EXPECT_LE(stats.sessions_resident, 2);
  host.drain();
}

}  // namespace
}  // namespace compsynth
