// Layer wrappers the benchmark owns: each one sits in front of a public
// interface of the system (a CandidateFinder, an Oracle, a ShardSyncBackend)
// and forwards to it, so every layer is timed from outside without changing
// code outside perfbench/.
//
// Measured runs (tracing off) record no spans: the finder and shard
// wrappers only forward and count, and the oracle wrapper reads the clock
// once per answer to measure the architect's waits. The traced run records
// one span per call at every layer boundary, kept in memory and written out
// when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "oracle/ground_truth.h"
#include "oracle/oracle.h"
#include "solver/finder.h"
#include "solver/grid_finder.h"
#include "solver/shard_sync.h"

namespace perfbench {

/// Seconds on the steady clock since the process's first call.
double now_s();

/// One timed call at a layer boundary. `parent` is the objective index (or
/// session number) the call worked for; the span names are fixed strings.
struct Span {
  const char* name = "";
  double start = 0;
  double end = 0;
  std::int64_t parent = -1;
};

/// In-memory span store. Disabled logs record nothing and never read the
/// clock on behalf of a span.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  bool enabled() const { return enabled_; }
  void set_parent(std::int64_t parent) { parent_ = parent; }
  void add(const char* name, double start, double end) {
    if (enabled_) spans_.push_back({name, start, end, parent_});
  }

  /// Busy seconds and call count of every span named `name`.
  double busy(const std::string& name) const;
  long calls(const std::string& name) const;
  /// Durations of the spans named `name`, in record order.
  std::vector<double> durations(const std::string& name) const;

  /// Writes one JSON object per span: {"name","start","end","parent"}.
  void write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::int64_t parent_ = -1;
  std::vector<Span> spans_;
};

/// 64-bit FNV-1a, fed field by field; the question-sequence digest.
class Digest {
 public:
  void bytes(const void* data, std::size_t n);
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void real(double v) { bytes(&v, sizeof v); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string hex64(std::uint64_t v);

/// Feeds one answered comparison into a question-sequence digest.
void digest_question(Digest& d, const compsynth::pref::Scenario& a,
                     const compsynth::pref::Scenario& b,
                     compsynth::oracle::Preference answer);

/// The simulated architect as seen by the synthesizer: forwards compare and
/// rank to a GroundTruthOracle through its public API. Always records the
/// question sequence (a digest per objective) and the architect's waits —
/// from returning answer k to being asked for answer k+1, or to the end of
/// the objective. When the span log is enabled it also records one "oracle"
/// span per call.
class TimedOracle final : public compsynth::oracle::Oracle {
 public:
  /// `forward_rank` = false leaves rank to the base class, which chains the
  /// scenarios through compare — the way a hosted session asks them.
  TimedOracle(compsynth::oracle::GroundTruthOracle& inner, SpanLog& log,
              std::vector<double>& waits, bool forward_rank = true);

  /// Starts a new objective: clears the digest and the pending wait.
  void begin_objective();
  /// Closes the objective's last wait and returns its question digest.
  std::uint64_t end_objective();

 protected:
  compsynth::oracle::Preference do_compare(
      const compsynth::pref::Scenario& a,
      const compsynth::pref::Scenario& b) override;
  compsynth::oracle::RankingResponse do_rank(
      std::span<const compsynth::pref::Scenario> scenarios) override;

 private:
  double enter();
  void leave(double entered);

  compsynth::oracle::GroundTruthOracle& inner_;
  SpanLog& log_;
  std::vector<double>& waits_;
  bool forward_rank_;
  Digest digest_;
  std::optional<double> answered_at_;
};

/// Per-run solver tallies that measured runs keep too (they need no clock).
struct SolverTally {
  long unknown = 0;            // finder results with status kUnknown
  long full_syncs = 0;         // traced runs only: first sync of a finder
  double survivors_after_full = 0;  // summed over full syncs
};

/// Forwards the CandidateFinder interface to `inner`. For a GridFinder
/// (`grid` non-null) the traced run first calls the public, idempotent
/// GridFinder::sync so sync and pair search are timed apart; the first
/// sync of each finder is the full one. Span names:
/// solver.sync_full / solver.sync_incr / solver.pair_search /
/// solver.find_consistent for the grid, solver.z3_distinguish /
/// solver.z3_consistent for Z3.
class TimedFinder final : public compsynth::solver::CandidateFinder {
 public:
  TimedFinder(std::unique_ptr<compsynth::solver::CandidateFinder> inner,
              compsynth::solver::GridFinder* grid, SpanLog& log,
              SolverTally& tally);

  compsynth::solver::FinderResult find_distinguishing(
      const compsynth::pref::PreferenceGraph& graph, int num_pairs) override;
  std::optional<compsynth::sketch::HoleAssignment> find_consistent(
      const compsynth::pref::PreferenceGraph& graph) override;
  void set_run_context(const compsynth::obs::RunContext* ctx) override;

 private:
  std::unique_ptr<compsynth::solver::CandidateFinder> inner_;
  compsynth::solver::GridFinder* grid_;
  SpanLog& log_;
  SolverTally& tally_;
  bool synced_ = false;
};

/// Forwards sync_shards to the real backend (a dist::ShardCoordinator),
/// counting calls and fallbacks (nullopt returns). While its span log is
/// enabled it records a "dist.sync_shards" span and the process CPU time
/// spent inside the call.
class TimedShardBackend final : public compsynth::solver::ShardSyncBackend {
 public:
  explicit TimedShardBackend(compsynth::solver::ShardSyncBackend& inner)
      : inner_(inner) {}

  /// Non-owning; must outlive every later sync_shards call.
  void set_log(SpanLog& log) { log_ = &log; }

  std::optional<std::vector<std::string>> sync_shards(
      const compsynth::pref::PreferenceGraph& graph,
      const std::vector<compsynth::solver::ShardRange>& ranges) override;

  long calls() const { return calls_; }
  long fallbacks() const { return fallbacks_; }
  double cpu_s() const { return cpu_s_; }

 private:
  compsynth::solver::ShardSyncBackend& inner_;
  SpanLog disabled_{false};
  SpanLog* log_ = &disabled_;
  long calls_ = 0;
  long fallbacks_ = 0;
  double cpu_s_ = 0;
};

/// Process CPU time (all threads), in seconds.
double process_cpu_s();

}  // namespace perfbench
