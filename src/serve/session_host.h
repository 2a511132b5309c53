// Multi-session synthesis hosting: many concurrent interaction loops in one
// process, each parked at zero cost while its architect thinks.
//
// The synthesizer's loop is written to *block* on the oracle
// (Oracle::compare). A daemon cannot afford a thread per thinking human, so
// the host inverts the control flow with a passive replay model:
//
//   * Every acked answer is appended to the session's answers.log (flushed
//     before the ack) — the log IS the session's oracle-query sequence.
//   * An "advance" reconstructs the synthesizer, resumes it from the newest
//     checkpoint, and drives it with a ReplayOracle that feeds answers from
//     the log. When the log runs dry the oracle throws PendingQuerySignal,
//     unwinding the loop; the host publishes the discovered (s1, s2) pair
//     as the session's pending query and the worker thread moves on.
//   * `answer` validates the index against the pending query, appends to
//     the log, and schedules the next advance. `next` just reads (or briefly
//     waits for) the published pending query.
//
// During replay the ReplayOracle verifies that each re-found query matches
// the logged pair byte-for-byte (protocol::scenario_key) — the
// identical-query-sequence invariant of Synthesizer::resume
// (docs/PERSISTENCE.md), enforced in production, not just in tests.
//
// Because durability (checkpoint + log) precedes every ack, eviction is
// trivially safe: dropping a session's in-memory entry loses nothing, and
// rehydration is session.json + newest valid snapshot + log replay. An LRU
// active-set bounded by HostConfig::max_active applies that eviction
// automatically, so memory stays bounded while session count grows.
//
// The price of passivity is small: the synthesizer checkpoints right after
// each finder query, with the pairs it found in the snapshot, so an advance
// resumed from that checkpoint asks the pending pair without querying
// again. A rehydrating advance re-publishes the pair straight from the
// snapshot; the advance after an answer runs exactly one finder query, as a
// blocking in-process run does. What remains per answer is a finder restore
// per advance and the checkpoint write; docs/SERVICE.md §Costs quantifies
// it.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/run_context.h"
#include "oracle/oracle.h"
#include "pref/scenario.h"
#include "serve/protocol.h"
#include "sketch/ast.h"
#include "util/fault.h"
#include "util/sync.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace compsynth::serve {

/// One acked comparison: the canonical renderings of the pair as presented
/// (first = the candidate-A-preferred scenario) plus the architect's answer.
/// The per-session answers.log is exactly this sequence, one per line.
struct AnswerRecord {
  oracle::Preference answer = oracle::Preference::kTie;
  std::string key_a;
  std::string key_b;
};

/// The distinguishing pair a session is currently waiting on. `index` is the
/// answer-log position the answer will occupy (== answers acked so far).
struct PendingQuery {
  long index = 0;
  pref::Scenario a;
  pref::Scenario b;
};

/// Where a session is in its life. kSwapped appears only in views of
/// non-resident sessions (on disk, not in memory).
enum class SessionPhase { kAdvancing, kWaiting, kDone, kFailed, kSwapped };
const char* phase_name(SessionPhase phase);

/// Outcome of a host call; `code`/`message` use the protocol error codes.
struct HostResult {
  bool ok = true;
  std::string code;
  std::string message;

  static HostResult success() { return {}; }
  static HostResult failure(std::string code, std::string message) {
    return {false, std::move(code), std::move(message)};
  }
};

struct CreateParams {
  std::string id;
  std::string sketch;  // registered name; empty = host default
  std::string backend = "grid";
  std::uint64_t seed = 1;
  int initial = 5;
  int pairs = 1;
  int max_iters = 500;
};

/// Read-only session status snapshot (the `next` / `inspect` payload).
struct SessionView {
  std::string id;
  SessionPhase phase = SessionPhase::kAdvancing;
  bool resident = false;
  long answers = 0;
  int iterations = 0;
  std::optional<PendingQuery> pending;  // set iff phase == kWaiting
  std::string status;                   // set iff phase == kDone
  std::string objective;                // set iff phase == kDone
  std::string error;                    // set iff phase == kFailed
};

struct HostStats {
  long sessions_created = 0;
  long sessions_resident = 0;
  long swaps = 0;
  long rehydrations = 0;
  long advances = 0;
};

struct HostConfig {
  /// Root directory; each session owns `<root>/<id>/` (session.json +
  /// answers.log + snapshots + done.json).
  std::string root;

  /// Resident-session bound: beyond it the least-recently-touched idle
  /// session is swapped to disk. <= 0 disables the bound.
  int max_active = 64;

  int keep_snapshots = 4;

  /// GridFinder parallelism per session (SynthesisConfig::grid_threads).
  /// Defaults to fully sequential: daemon parallelism comes from many
  /// concurrent sessions on the advance pool, and advance tasks must not
  /// fan out into the same pool (util::ThreadPool's nested-use rule).
  int grid_threads = 1;

  /// Checkpoint fault injection (torn_write_p only), for rehearsing
  /// torn-snapshot rehydration. Each session derives its own injector
  /// seeded by `seed ^ hash(id)` so the fault stream is per-session
  /// deterministic regardless of request interleaving.
  util::FaultPlan checkpoint_faults;

  /// Daemon-level observability (run id "serve"); per-session synthesis
  /// events reuse the same sinks under the session id.
  obs::RunContext obs;

  /// Advance workers; null runs advances inline on the calling thread.
  util::ThreadPool* pool = nullptr;
};

class SessionHost {
 public:
  explicit SessionHost(HostConfig config);

  /// Drains in-flight advances before tearing down.
  ~SessionHost();

  SessionHost(const SessionHost&) = delete;
  SessionHost& operator=(const SessionHost&) = delete;

  /// Registers a sketch under its own name; the first registration becomes
  /// the default for create requests that name none. Not thread-safe against
  /// serving — register everything before the first request.
  void register_sketch(sketch::Sketch sk);

  const HostConfig& config() const { return config_; }

  /// Registers the id, persists session.json, and schedules the first
  /// advance. Fails with E_EXISTS when the id is resident *or* already on
  /// disk (a restarted daemon still refuses double-creates).
  HostResult create(const CreateParams& params);

  /// Fills `view` with the session's current state, rehydrating it if
  /// swapped out. Waits up to `wait_ms` for an in-flight advance to publish
  /// a pending query (0 = return "advancing" immediately).
  HostResult next(const std::string& id, int wait_ms, SessionView* view);

  /// Accepts the answer for pending-query `index`. Re-sending an already
  /// acked index with the same preference succeeds idempotently; a
  /// contradictory re-delivery fails with E_ANSWER (the logged answer
  /// stands), and anything else out of step fails with E_INDEX / E_STATE.
  HostResult answer(const std::string& id, long index,
                    oracle::Preference answer);

  /// Swaps the session to disk now, waiting out any in-flight advance.
  /// Succeeds (as a no-op) when the session is already swapped.
  HostResult evict(const std::string& id);

  /// Cheap status read: never rehydrates, never schedules work.
  HostResult inspect(const std::string& id, SessionView* view);

  HostStats stats() const EXCLUDES(mu_);

  /// Blocks until no advance is in flight. New requests may schedule more;
  /// callers stop the request source first.
  void drain() EXCLUDES(mu_);

 private:
  struct SessionEntry;

  std::shared_ptr<SessionEntry> acquire(const std::string& id,
                                        HostResult* error) EXCLUDES(mu_);
  std::shared_ptr<SessionEntry> rehydrate_locked(const std::string& id,
                                                 HostResult* error)
      REQUIRES(mu_);
  void init_entry(SessionEntry& entry);
  static void write_session_json(const SessionEntry& entry);
  static void open_answer_log(SessionEntry& entry);
  void schedule_advance(const std::shared_ptr<SessionEntry>& entry)
      EXCLUDES(mu_);
  void run_advance(const std::shared_ptr<SessionEntry>& entry) EXCLUDES(mu_);
  void enforce_cap() EXCLUDES(mu_);
  /// Swaps `entry` to disk: detaches it under mu_ and its own mutex (so no
  /// new advance can start on it), wakes its waiters and publishes the swap
  /// (serve.swaps, the sessions_active gauge, a session_swap event). True
  /// once it is swapped out, by this call or an earlier one; false, with
  /// nothing changed, while it is advancing or when `picked_lru` is set and
  /// the pick went stale: the entry was touched since, or the resident set
  /// is no longer over the cap.
  bool swap_out(const std::shared_ptr<SessionEntry>& entry, const char* reason,
                std::optional<std::uint64_t> picked_lru) EXCLUDES(mu_);
  // view_of additionally requires the entry's own mutex; the REQUIRES
  // attribute lives on the definition (SessionEntry is incomplete here, so
  // `entry.mu` cannot be named in this header).
  SessionView view_of(SessionEntry& entry) const;
  const sketch::Sketch* find_sketch(const std::string& name) const;

  HostConfig config_;
  std::filesystem::path root_;
  std::vector<sketch::Sketch> sketches_;

  /// Host-level lock. When an entry's own mutex is also needed, mu_ is
  /// acquired FIRST (swap_out, enforce_cap, inspect); never the reverse — see
  /// docs/CONCURRENCY.md §Lock ordering.
  mutable util::Mutex mu_;
  /// Signaled whenever in_flight_ drops; drain() waits on it.
  util::CondVar drained_;
  std::map<std::string, std::shared_ptr<SessionEntry>> residents_
      GUARDED_BY(mu_);
  HostStats stats_ GUARDED_BY(mu_);
  int in_flight_ GUARDED_BY(mu_) = 0;
  std::uint64_t lru_clock_ GUARDED_BY(mu_) = 0;
};

}  // namespace compsynth::serve
