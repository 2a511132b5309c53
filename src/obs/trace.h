// Structured event tracing: one JSONL record per synthesis-loop event.
//
// A TraceEvent is a typed, flat key/value record ("iteration",
// "grid_sync", "z3_query", "oracle_query", "pref_edge", ...). Sinks decide
// what happens to it: NullTraceSink (the default everywhere) drops events
// before any field is even built — instrumented code checks enabled() first
// so tracing costs one pointer test when off — and FileTraceSink renders
// each event as one JSON line:
//
//   {"v":1,"ts":0.014072,"run":"cli","ev":"iteration","index":3,...}
//
// The envelope fields are fixed: "v" (schema version, see
// kTraceSchemaVersion), "ts" (seconds since the sink was created, steady
// clock), "run" (the RunContext's run id) and "ev" (event type); everything
// after them is event-specific. docs/OBSERVABILITY.md is the schema
// reference; tools/trace_report.cpp turns a trace file back into a
// human-readable Markdown report.
//
// obs::parse_flat_json (obs/json.h) is the matching reader, shared by
// trace_report and the golden-trace test.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "util/line_writer.h"
#include "util/timer.h"

namespace compsynth::obs {

/// Version stamped into every record as "v". Bump when an event type's
/// required keys change incompatibly; docs/OBSERVABILITY.md documents each
/// version's schema.
inline constexpr int kTraceSchemaVersion = 1;

/// Minor schema revision: additive changes (new event types, new optional
/// keys on existing events) that old consumers may safely ignore. Not
/// stamped into records — "v" stays the compatibility gate — but documented
/// in docs/OBSERVABILITY.md so tooling can state what it understands.
/// 1.1: "analysis" events (kind=lint|prune) + grid_sync's "pruned" key.
/// 1.2: durable sessions + fault tolerance — "fault", "retry",
///      "checkpoint", "checkpoint_write" events; run_start's "resumed_at";
///      z3_query's "attempt".
/// 1.3: solver acceleration — "solver_cache", "z3_incremental",
///      "portfolio" events and the interval pre-check's event; grid_sync's
///      "threads" key; counters solver.cache_{hits,misses,stores},
///      z3.incremental_{reuses,builds}, portfolio.{races,grid_wins,z3_wins}
///      and the pre-check's hit counter.
/// 1.4: synthesis service — "serve_request", "session_swap",
///      "session_rehydrate" events; counters serve.{requests,errors,
///      sessions_created,swaps,rehydrations,advances}, gauge
///      serve.sessions_active, histograms serve.latency.<verb>.seconds.
/// 1.5: batched lane evaluator — grid_sync's "lane_isa" (scalar|avx2) and
///      "lane_width" keys when the kBatch backend ran; counters
///      grid.lane_evals, grid.batch_groups.
/// 1.6: distributed shard sync — "shard_dispatch", "shard_reissue",
///      "worker_fail", "worker_shard", "dist_sync" events; grid_sync's
///      "distributed" key; counters dist.{shards_dispatched,
///      shards_completed,reissues,worker_failures,fallbacks},
///      dist.worker.{requests,faults}, histogram dist.shard.seconds.
/// 1.7: one grid sync engine, no solver cache — removes "analysis"
///      kind=prune events, grid_sync's "pruned" key, "solver_cache" events
///      and the counters analysis.pruned_{regions,candidates} and
///      solver.cache_{hits,misses,stores}; grid_sync's "lane_isa",
///      "lane_width" and "distributed" keys are now always present.
/// 1.8: sequential portfolio — removes "portfolio" events, the counters
///      portfolio.{races,grid_wins,z3_wins}, the portfolio.seconds
///      histogram and pair_search's status=cancelled.
/// 1.9: one Z3 query path — removes the interval pre-check's event and hit
///      counter (docs/OBSERVABILITY.md names both); "z3_incremental" now
///      fires on every Z3 query.
/// 1.10: the portfolio proves the grid's verdict on its survivors —
///      z3_query's kind=proof, which carries no "index".
/// 1.11: one finder query per served answer — "session_rehydrate" carries
///      "secs"; "session_advance" and "answer_append" spans (traced only);
///      checkpoint's "pending" key.
/// 1.12: "session_rehydrate" drops its "replayed" key; the
///      "session_advance" spans count the replayed answers.
inline constexpr int kTraceSchemaMinorVersion = 12;

/// One field value: integer, double, string or bool.
struct FieldValue {
  enum class Kind { kInt, kDouble, kString, kBool };
  Kind kind = Kind::kInt;
  long long i = 0;
  double d = 0;
  bool b = false;
  std::string s;
};

/// A typed event under construction. Field order is preserved in the
/// output; keys must be unique per event (not checked — instrumentation
/// sites are static).
class TraceEvent {
 public:
  explicit TraceEvent(std::string type) : type_(std::move(type)) {}

  TraceEvent& integer(std::string key, long long value);
  TraceEvent& num(std::string key, double value);
  TraceEvent& str(std::string key, std::string value);
  TraceEvent& boolean(std::string key, bool value);

  const std::string& type() const { return type_; }
  const std::vector<std::pair<std::string, FieldValue>>& fields() const {
    return fields_;
  }

 private:
  std::string type_;
  std::vector<std::pair<std::string, FieldValue>> fields_;
};

/// Where events go. Implementations must be safe to call from concurrent
/// threads (pool workers emit too).
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// False when events are dropped unseen; instrumented code skips building
  /// events entirely in that case.
  virtual bool enabled() const { return true; }

  virtual void emit(std::string_view run_id, const TraceEvent& event) = 0;

 protected:
  TraceSink() = default;
};

/// The default: tracing off, near-zero overhead.
class NullTraceSink final : public TraceSink {
 public:
  bool enabled() const override { return false; }
  void emit(std::string_view, const TraceEvent&) override {}
};

/// Appends one JSON line per event to a file. Timestamps ("ts") are seconds
/// since sink construction on the steady clock; lines go through a
/// mutex-guarded LineWriter (shared machinery with util::log_line's stderr
/// writer) so concurrent emitters never interleave mid-line.
class FileTraceSink final : public TraceSink {
 public:
  /// Opens (truncates) `path`; throws std::runtime_error on failure.
  explicit FileTraceSink(const std::string& path);

  void emit(std::string_view run_id, const TraceEvent& event) override;

  const std::string& path() const { return path_; }

 private:
  // No mutex here by design: path_/out_/epoch_ are written only in the
  // constructor, and all post-construction writes flow through writer_,
  // which serializes at line granularity (util/line_writer.h). The
  // Stopwatch read in emit() is a const steady_clock query — safe
  // concurrently.
  std::string path_;
  std::ofstream out_;
  util::LineWriter writer_;
  util::Stopwatch epoch_;
};

/// Renders one complete trace line (envelope + fields), exactly what
/// FileTraceSink writes. Exposed for tests and alternative sinks.
std::string render_trace_line(std::string_view run_id, double ts_seconds,
                              const TraceEvent& event);

}  // namespace compsynth::obs
