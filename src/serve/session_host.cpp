#include "serve/session_host.h"

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "obs/trace.h"
#include "session/checkpoint.h"
#include "session/snapshot.h"
#include "sketch/printer.h"
#include "synth/synthesizer.h"
#include "util/number.h"
#include "util/timer.h"

namespace compsynth::serve {

namespace {

// Thrown by ReplayOracle when the answer log is exhausted: the synthesizer
// has discovered the session's next distinguishing pair and must now wait
// for a human. Deliberately NOT a std::exception (and not a
// util::TransientError), so no retry wrapper or generic handler between the
// oracle and run_advance can swallow it.
struct PendingQuerySignal {
  PendingQuery query;
};

// The passive architect: replays acked answers from the session log,
// verifying that the resumed loop re-asks the identical queries, and
// signals the first unanswered query instead of blocking.
class ReplayOracle final : public oracle::Oracle {
 public:
  explicit ReplayOracle(const std::vector<AnswerRecord>& log) : log_(&log) {}

  /// Logged answers fed to the loop since construction or restore.
  long replayed() const { return static_cast<long>(consumed_ - restored_); }

 protected:
  oracle::Preference do_compare(const pref::Scenario& a,
                                const pref::Scenario& b) override {
    if (consumed_ < log_->size()) {
      const AnswerRecord& rec = (*log_)[consumed_];
      const std::string ka = scenario_key(a);
      const std::string kb = scenario_key(b);
      if (rec.key_a != ka || rec.key_b != kb) {
        throw std::runtime_error(
            "serve replay diverged at answers.log entry " +
            std::to_string(consumed_) + ": logged pair [" + rec.key_a +
            " | " + rec.key_b + "] but the resumed loop asked [" + ka +
            " | " + kb + "]");
      }
      return (*log_)[consumed_++].answer;
    }
    throw PendingQuerySignal{
        {static_cast<long>(consumed_), a, b}};
  }

  // The consumed-count is the session's real answer cursor: the base class
  // counts compare() calls, but the seed-phase ranking consumes answers
  // through do_compare directly, so we persist our own position.
  void do_save_state(std::ostream& out) const override {
    out << "serve " << consumed_ << "\n";
  }
  void do_restore_state(std::istream& in) override {
    std::string tag;
    std::size_t n = 0;
    if (!(in >> tag >> n) || tag != "serve") {
      throw std::invalid_argument("ReplayOracle: malformed state blob");
    }
    consumed_ = n;
    restored_ = n;
  }

 private:
  const std::vector<AnswerRecord>* log_;
  std::size_t consumed_ = 0;
  std::size_t restored_ = 0;
};

// Stable across processes (std::hash is not guaranteed to be), so a
// restarted daemon re-derives the same per-session fault stream.
std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

void atomic_write_file(const std::filesystem::path& path,
                       const std::string& content) {
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out << content;
    out.flush();
    if (!out) {
      throw std::runtime_error("cannot write " + tmp.string());
    }
  }
  std::filesystem::rename(tmp, path);
}

// The first line of `path` as one flat JSON object; nullopt when the file
// does not exist. Throws when it exists but holds no such object.
std::optional<obs::JsonObject> read_json_line(
    const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string line;
  std::getline(in, line);
  std::optional<obs::JsonObject> obj = obs::parse_flat_json(line);
  if (!obj) throw std::runtime_error("cannot parse " + path.string());
  return obj;
}

// Throws, naming the file and the field, when a read of `f` failed.
void check_fields(const obs::JsonFields& f, const std::filesystem::path& path) {
  if (!f.ok()) {
    throw std::runtime_error(path.filename().string() + ": " + f.error());
  }
}

// The newline-terminated records of answers.log, in order, and the bytes
// they span. A trailing fragment without its newline is a torn append (the
// answer was never acked) and is not a record.
struct AnswerLog {
  std::vector<AnswerRecord> records;
  std::size_t record_bytes = 0;
  std::size_t file_bytes = 0;
};

AnswerLog read_answer_log(const std::filesystem::path& path) {
  AnswerLog log;
  std::string content;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) return log;  // no answers yet
    content.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  }
  log.file_bytes = content.size();
  std::size_t pos = 0;
  for (;;) {
    const std::size_t nl = content.find('\n', pos);
    if (nl == std::string::npos) break;
    const std::string_view line(content.data() + pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    // <index>|<answer>|<key_a>|<key_b>
    const std::vector<std::string_view> fields = util::split(line, '|');
    if (fields.size() != 4) {
      throw std::runtime_error("answers.log corrupt: malformed line");
    }
    const std::optional<long long> index =
        util::parse_number<long long>(fields[0], 0, kMaxIndex);
    if (!index) throw std::runtime_error("answers.log corrupt: bad index");
    if (*index != static_cast<long long>(log.records.size())) {
      throw std::runtime_error("answers.log corrupt: index out of sequence");
    }
    const std::optional<oracle::Preference> answer =
        parse_preference(fields[1]);
    if (!answer) {
      throw std::runtime_error("answers.log corrupt: bad answer");
    }
    log.records.push_back(
        {*answer, std::string(fields[2]), std::string(fields[3])});
  }
  log.record_bytes = pos;
  return log;
}

// done.json: how a finished session ended. Its "answers" (the log length
// at completion) is checked but not kept.
struct DoneRecord {
  std::string status;
  std::string objective;
  int iterations = 0;
};

std::optional<DoneRecord> read_done_json(const std::filesystem::path& path) {
  const std::optional<obs::JsonObject> obj = read_json_line(path);
  if (!obj) return std::nullopt;
  obs::JsonFields f(*obj, obs::JsonFields::Absent::kError);
  DoneRecord done;
  f.integer("v", 1, 1);
  done.status = f.string("status").value_or("");
  done.objective = f.string("objective").value_or("");
  done.iterations =
      static_cast<int>(f.integer("iterations", 0, kMaxIters).value_or(0));
  f.integer("answers", 0, kMaxIndex);
  check_fields(f, path);
  return done;
}

}  // namespace

const char* phase_name(SessionPhase phase) {
  switch (phase) {
    case SessionPhase::kAdvancing: return "advancing";
    case SessionPhase::kWaiting: return "waiting";
    case SessionPhase::kDone: return "done";
    case SessionPhase::kFailed: return "failed";
    case SessionPhase::kSwapped: return "swapped";
  }
  return "?";
}

struct SessionHost::SessionEntry {
  util::Mutex mu;
  /// Signaled on every phase change and on detach; next/answer/evict wait.
  util::CondVar cv;

  // Immutable after construction (mirrors session.json).
  CreateParams params;
  std::filesystem::path dir;
  obs::RunContext run_obs;  // per-session context; address must stay stable
  std::unique_ptr<session::CheckpointManager> ckpt;

  std::ofstream log_out GUARDED_BY(mu);
  std::vector<AnswerRecord> log GUARDED_BY(mu);
  SessionPhase phase GUARDED_BY(mu) = SessionPhase::kAdvancing;
  /// An advance task is in flight.
  bool advancing GUARDED_BY(mu) = false;
  /// Dropped from the resident map (swapped out).
  bool detached GUARDED_BY(mu) = false;
  std::optional<PendingQuery> pending GUARDED_BY(mu);
  /// Newest checkpoint, in memory.
  std::optional<synth::SessionState> snap GUARDED_BY(mu);
  int iterations GUARDED_BY(mu) = 0;
  std::string done_status GUARDED_BY(mu);
  std::string objective GUARDED_BY(mu);
  std::string error GUARDED_BY(mu);

  // Guarded by the *host's* mu_, not this entry's mu (GUARDED_BY cannot
  // name another object's capability from here); only SessionHost code
  // holding mu_ may touch it.
  std::uint64_t lru = 0;
};

SessionHost::SessionHost(HostConfig config)
    : config_(std::move(config)), root_(config_.root) {
  if (root_.empty()) {
    throw std::invalid_argument("SessionHost: root directory is required");
  }
  std::filesystem::create_directories(root_);
}

SessionHost::~SessionHost() { drain(); }

void SessionHost::register_sketch(sketch::Sketch sk) {
  sketches_.push_back(std::move(sk));
}

const sketch::Sketch* SessionHost::find_sketch(const std::string& name) const {
  if (sketches_.empty()) return nullptr;
  if (name.empty()) return &sketches_.front();
  for (const sketch::Sketch& sk : sketches_) {
    if (sk.name() == name) return &sk;
  }
  return nullptr;
}

// --- per-entry plumbing ----------------------------------------------------

void SessionHost::write_session_json(const SessionEntry& e) {
  obs::JsonWriter w;
  w.integer("v", 1);
  w.str("id", e.params.id);
  w.str("sketch", e.params.sketch);
  w.str("backend", e.params.backend);
  w.integer("seed", static_cast<long long>(e.params.seed));
  w.integer("initial", e.params.initial);
  w.integer("pairs", e.params.pairs);
  w.integer("max_iters", e.params.max_iters);
  atomic_write_file(e.dir / "session.json", w.done() + "\n");
}

namespace {

CreateParams read_session_json(const std::filesystem::path& path) {
  const std::optional<obs::JsonObject> obj = read_json_line(path);
  if (!obj) throw std::runtime_error("cannot read " + path.string());
  obs::JsonFields f(*obj, obs::JsonFields::Absent::kError);
  CreateParams p;
  f.integer("v", 1, 1);
  p.id = f.string("id").value_or("");
  p.sketch = f.string("sketch").value_or("");
  p.backend = f.string("backend").value_or("");
  p.seed = f.integer("seed", 0, obs::kJsonMaxExactInt).value_or(0);
  p.initial = static_cast<int>(f.integer("initial", 0, kMaxInitial).value_or(0));
  p.pairs = static_cast<int>(f.integer("pairs", 1, kMaxPairs).value_or(0));
  p.max_iters =
      static_cast<int>(f.integer("max_iters", 1, kMaxIters).value_or(0));
  check_fields(f, path);
  return p;
}

}  // namespace

void SessionHost::drain() {
  const util::MutexLock lk(mu_);
  drained_.wait(mu_, [this]() REQUIRES(mu_) { return in_flight_ == 0; });
}

HostStats SessionHost::stats() const {
  const util::MutexLock lk(mu_);
  return stats_;
}

SessionView SessionHost::view_of(SessionEntry& e) const REQUIRES(e.mu) {
  SessionView v;
  v.id = e.params.id;
  v.phase = e.phase;
  v.resident = !e.detached;
  v.answers = static_cast<long>(e.log.size());
  v.iterations = e.iterations;
  if (e.phase == SessionPhase::kWaiting) v.pending = e.pending;
  v.status = e.done_status;
  v.objective = e.objective;
  v.error = e.error;
  return v;
}

// Builds the per-entry runtime pieces shared by create and rehydrate: the
// session's RunContext and its CheckpointManager (with a per-session
// deterministic fault injector when torn-write rehearsal is on). The
// answers.log append stream is opened separately (open_answer_log) because
// rehydration must truncate any torn tail from the log *before* an append
// stream exists.
void SessionHost::init_entry(SessionEntry& e) {
  e.run_obs.metrics = config_.obs.metrics;
  e.run_obs.tracer = config_.obs.tracer;
  e.run_obs.run_id = e.params.id;
  e.run_obs.seed = e.params.seed;
  session::CheckpointConfig ck;
  ck.directory = (e.dir).string();
  ck.keep = config_.keep_snapshots;
  ck.obs = &e.run_obs;
  if (config_.checkpoint_faults.torn_write_p > 0) {
    util::FaultPlan plan;
    plan.torn_write_p = config_.checkpoint_faults.torn_write_p;
    plan.seed = config_.checkpoint_faults.seed ^ fnv1a64(e.params.id);
    ck.injector = std::make_shared<util::FaultInjector>(plan);
  }
  e.ckpt = std::make_unique<session::CheckpointManager>(ck);
}

void SessionHost::open_answer_log(SessionEntry& e) REQUIRES(e.mu) {
  e.log_out.open(e.dir / "answers.log", std::ios::app | std::ios::binary);
  if (!e.log_out) {
    throw std::runtime_error("cannot open " + (e.dir / "answers.log").string());
  }
}

HostResult SessionHost::create(const CreateParams& params) {
  if (!valid_session_id(params.id)) {
    return HostResult::failure(kErrId, "malformed session id");
  }
  if (find_sketch(params.sketch) == nullptr) {
    return HostResult::failure(
        kErrSketch, sketches_.empty()
                        ? "no sketches registered with this daemon"
                        : "sketch '" + params.sketch + "' is not registered");
  }
  if (params.backend != "grid" && params.backend != "bisection" &&
      params.backend != "z3") {
    return HostResult::failure(kErrBackend,
                               "backend must be grid, bisection or z3");
  }
  if (params.seed > static_cast<std::uint64_t>(obs::kJsonMaxExactInt) ||
      params.initial < 0 || params.initial > kMaxInitial ||
      params.pairs < 1 || params.pairs > kMaxPairs || params.max_iters < 1 ||
      params.max_iters > kMaxIters) {
    return HostResult::failure(kErrField,
                               "seed/initial/pairs/max_iters out of range");
  }

  std::shared_ptr<SessionEntry> e;
  long resident = 0;
  {
    const util::MutexLock lk(mu_);
    if (residents_.count(params.id) != 0) {
      return HostResult::failure(
          kErrExists, "session '" + params.id + "' already exists");
    }
    const std::filesystem::path dir = root_ / params.id;
    std::error_code ec;
    if (std::filesystem::exists(dir, ec)) {
      return HostResult::failure(
          kErrExists, "session '" + params.id + "' already exists on disk");
    }
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      return HostResult::failure(
          kErrInternal, "cannot create " + dir.string() + ": " + ec.message());
    }
    e = std::make_shared<SessionEntry>();
    e->params = params;
    if (e->params.sketch.empty()) {
      e->params.sketch = sketches_.front().name();
    }
    e->dir = dir;
    // The entry is unpublished, so this lock is uncontended; it exists to
    // satisfy the guarded-field contract (log_out is GUARDED_BY(e->mu)).
    // mu_ -> entry mu matches the documented lock order.
    const util::MutexLock elk(e->mu);
    try {
      init_entry(*e);
      open_answer_log(*e);
      write_session_json(*e);
    } catch (const std::exception& ex) {
      // The entry never reached residents_; undo the directory so a
      // transient failure does not poison the id with E_EXISTS forever.
      e->log_out.close();
      std::error_code cleanup_ec;
      std::filesystem::remove_all(dir, cleanup_ec);
      return HostResult::failure(kErrInternal, ex.what());
    }
    e->lru = ++lru_clock_;
    residents_[params.id] = e;
    ++stats_.sessions_created;
    stats_.sessions_resident = static_cast<long>(residents_.size());
    resident = stats_.sessions_resident;
  }
  config_.obs.count("serve.sessions_created");
  config_.obs.gauge("serve.sessions_active", static_cast<double>(resident));
  schedule_advance(e);
  enforce_cap();
  return HostResult::success();
}

std::shared_ptr<SessionHost::SessionEntry> SessionHost::acquire(
    const std::string& id, HostResult* error) {
  std::shared_ptr<SessionEntry> e;
  bool rehydrated = false;
  int snapshot_iteration = -1;
  double rehydrate_secs = 0;
  {
    const util::MutexLock lk(mu_);
    const auto it = residents_.find(id);
    if (it != residents_.end()) {
      e = it->second;
      e->lru = ++lru_clock_;
    } else {
      // Timed only when tracing, like an obs::Span, but emitted below, after
      // mu_ is released.
      std::optional<util::Stopwatch> watch;
      if (config_.obs.tracing()) watch.emplace();
      e = rehydrate_locked(id, error);
      if (e == nullptr) return nullptr;
      if (watch) rehydrate_secs = watch->elapsed_seconds();
      rehydrated = true;
      const util::MutexLock elk(e->mu);
      snapshot_iteration = e->snap ? e->snap->iterations : 0;
    }
  }
  if (rehydrated) {
    config_.obs.count("serve.rehydrations");
    config_.obs.gauge("serve.sessions_active",
                      static_cast<double>(stats().sessions_resident));
    if (config_.obs.tracing()) {
      obs::TraceEvent ev("session_rehydrate");
      ev.str("session", id)
          .integer("snapshot_iteration", snapshot_iteration)
          .num("secs", rehydrate_secs);
      config_.obs.emit(ev);
    }
    schedule_advance(e);  // no-op when the session is already done/failed
    enforce_cap();
  }
  return e;
}

std::shared_ptr<SessionHost::SessionEntry> SessionHost::rehydrate_locked(
    const std::string& id, HostResult* error) {
  const std::filesystem::path dir = root_ / id;
  std::error_code ec;
  if (!std::filesystem::exists(dir / "session.json", ec)) {
    *error =
        HostResult::failure(kErrUnknownSession, "unknown session '" + id + "'");
    return nullptr;
  }
  auto e = std::make_shared<SessionEntry>();
  // Unpublished entry: uncontended, taken for the guarded-field contract
  // (the answer log fills e->log). mu_ is already held (mu_ -> entry mu).
  const util::MutexLock elk(e->mu);
  try {
    e->params = read_session_json(dir / "session.json");
    if (e->params.id != id) {
      throw std::runtime_error("session.json id mismatch");
    }
    e->dir = dir;
    init_entry(*e);
    AnswerLog log = read_answer_log(dir / "answers.log");
    e->log = std::move(log.records);
    // Dropping the torn tail in memory is not enough: the bytes must also
    // go from the file before the stream opens, or the next acked answer
    // would append onto the fragment and fuse into one corrupt line.
    if (log.record_bytes < log.file_bytes) {
      std::filesystem::resize_file(dir / "answers.log", log.record_bytes);
    }
    open_answer_log(*e);
    std::string snap_path;
    std::optional<session::Snapshot> snap =
        session::CheckpointManager::recover_latest(dir.string(), &snap_path);
    if (snap) {
      if (snap->meta.backend != e->params.backend ||
          snap->meta.seed != e->params.seed) {
        throw std::runtime_error(
            "snapshot identity (backend/seed) disagrees with session.json");
      }
      e->iterations = snap->state.iterations;
      e->snap = std::move(snap->state);
    }
    if (std::optional<DoneRecord> done = read_done_json(dir / "done.json")) {
      e->phase = SessionPhase::kDone;
      e->done_status = std::move(done->status);
      e->objective = std::move(done->objective);
      e->iterations = done->iterations;
    }
  } catch (const std::exception& ex) {
    *error = HostResult::failure(
        kErrInternal, "cannot rehydrate session '" + id + "': " + ex.what());
    return nullptr;
  }
  e->lru = ++lru_clock_;
  residents_[id] = e;
  ++stats_.rehydrations;
  stats_.sessions_resident = static_cast<long>(residents_.size());
  return e;
}

void SessionHost::schedule_advance(const std::shared_ptr<SessionEntry>& e) {
  {
    const util::MutexLock lk(e->mu);
    if (e->detached || e->advancing || e->phase == SessionPhase::kDone ||
        e->phase == SessionPhase::kFailed) {
      return;
    }
    e->advancing = true;
    e->phase = SessionPhase::kAdvancing;
    e->pending.reset();
  }
  {
    const util::MutexLock lk(mu_);
    ++in_flight_;
    ++stats_.advances;
  }
  config_.obs.count("serve.advances");
  SessionHost* self = this;
  auto task = [self, e] { self->run_advance(e); };
  if (config_.pool != nullptr) {
    config_.pool->submit(std::move(task));
  } else {
    task();
  }
}

void SessionHost::run_advance(const std::shared_ptr<SessionEntry>& e) {
  // Traced only: with tracing off the span reads no clock.
  obs::Span span(config_.obs.tracing() ? &config_.obs : nullptr,
                 "session_advance");
  std::vector<AnswerRecord> log;
  std::optional<synth::SessionState> snap;
  {
    const util::MutexLock lk(e->mu);
    log = e->log;
    snap = e->snap;
  }

  const sketch::Sketch* sk = find_sketch(e->params.sketch);
  std::optional<PendingQuery> pending;
  std::optional<synth::SynthesisResult> result;
  std::string error;
  if (sk == nullptr) {
    error = "sketch '" + e->params.sketch +
            "' is no longer registered with this daemon";
  } else {
    ReplayOracle oracle(log);
    std::optional<synth::Synthesizer> s;
    try {
      // A fresh synthesizer per advance: run()/resume() determinism assumes
      // a finder in construction state, and a previous advance that escaped
      // mid-iteration left the old one dirty.
      synth::SynthesisConfig cfg;
      cfg.initial_scenarios = e->params.initial;
      cfg.pairs_per_iteration = e->params.pairs;
      cfg.max_iterations = e->params.max_iters;
      cfg.seed = e->params.seed;
      cfg.grid_threads = config_.grid_threads;
      cfg.keep_transcript = false;
      cfg.obs = e->run_obs;
      session::SnapshotMeta meta;
      meta.sketch = sk->name();
      meta.backend = e->params.backend;
      meta.seed = e->params.seed;
      meta.run_id = e->params.id;
      const auto to_disk = session::checkpoint_hook(*e->ckpt, meta);
      cfg.checkpoint = [e, to_disk](const synth::SessionState& st) {
        to_disk(st);  // durable first, then the in-memory mirror
        const util::MutexLock lk(e->mu);
        e->snap = st;
        e->iterations = st.iterations;
      };
      s.emplace(e->params.backend == "z3"
                    ? synth::make_z3_synthesizer(*sk, cfg)
                    : e->params.backend == "bisection"
                          ? synth::make_bisection_synthesizer(*sk, cfg)
                          : synth::make_grid_synthesizer(*sk, cfg));
      result = snap ? s->resume(oracle, *snap) : s->run(oracle);
    } catch (const PendingQuerySignal& sig) {
      pending = sig.query;
    } catch (const std::exception& ex) {
      error = ex.what();
    }
    if (obs::TraceEvent* ev = span.event()) {
      ev->str("session", e->params.id)
          .integer("replayed", oracle.replayed())
          .integer("finder_queries", s ? s->finder_queries() : 0);
    }
  }

  std::string objective;
  if (result) {
    if (result->objective && sk != nullptr) {
      objective = sketch::print_instantiated(*sk, *result->objective);
    }
    // Completion is durable before it is visible: a restarted daemon reads
    // done.json instead of re-running the (already converged) loop.
    obs::JsonWriter w;
    w.integer("v", 1);
    w.str("status", synth::status_name(result->status));
    w.str("objective", objective);
    w.integer("iterations", result->iterations);
    w.integer("answers", static_cast<long long>(log.size()));
    try {
      atomic_write_file(e->dir / "done.json", w.done() + "\n");
    } catch (const std::exception& ex) {
      result.reset();
      error = ex.what();
    }
  }

  // Emitted before the session is published and in_flight_ drops: once it
  // does, the host (and config_.obs) may be destroyed.
  span.finish();
  {
    const util::MutexLock lk(e->mu);
    if (pending) {
      e->pending = *pending;
      e->phase = SessionPhase::kWaiting;
    } else if (result) {
      e->phase = SessionPhase::kDone;
      e->done_status = synth::status_name(result->status);
      e->objective = objective;
      e->iterations = result->iterations;
    } else {
      e->phase = SessionPhase::kFailed;
      e->error = error;
    }
    e->advancing = false;
  }
  e->cv.notify_all();
  {
    const util::MutexLock lk(mu_);
    --in_flight_;
  }
  drained_.notify_all();
}

HostResult SessionHost::next(const std::string& id, int wait_ms,
                             SessionView* view) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(wait_ms > 0 ? wait_ms : 0);
  for (;;) {
    HostResult error;
    const std::shared_ptr<SessionEntry> e = acquire(id, &error);
    if (e == nullptr) return error;
    const util::MutexLock lk(e->mu);
    while (!e->detached && e->phase == SessionPhase::kAdvancing &&
           wait_ms > 0) {
      if (e->cv.wait_until(e->mu, deadline) == std::cv_status::timeout) break;
    }
    if (e->detached) continue;  // swapped out while we looked; re-acquire
    *view = view_of(*e);
    return HostResult::success();
  }
}

HostResult SessionHost::answer(const std::string& id, long index,
                               oracle::Preference answer) {
  for (;;) {
    HostResult error;
    const std::shared_ptr<SessionEntry> e = acquire(id, &error);
    if (e == nullptr) return error;
    util::MutexLock lk(e->mu);
    if (e->detached) continue;
    if (index >= 0 && index < static_cast<long>(e->log.size())) {
      // Idempotent re-delivery of the acked answer succeeds; a contradictory
      // one is refused rather than silently acked-as-OK while the original
      // answer stands.
      const oracle::Preference acked =
          e->log[static_cast<std::size_t>(index)].answer;
      if (answer != acked) {
        return HostResult::failure(
            kErrAnswer, "index " + std::to_string(index) +
                            " was already acked as '" +
                            oracle::preference_name(acked) +
                            "'; contradictory re-delivery refused");
      }
      return HostResult::success();
    }
    switch (e->phase) {
      case SessionPhase::kDone:
        return HostResult::failure(kErrState,
                                   "session is done; no query pending");
      case SessionPhase::kFailed:
        return HostResult::failure(kErrState, "session failed: " + e->error);
      case SessionPhase::kAdvancing:
        // An advance is (re)discovering the pending pair — typically the
        // LRU swapped this session out between the client's `next` and its
        // `answer`, and rehydration is replaying. The answer is not wrong,
        // just early: wait for the pair to be re-published, then validate
        // against it.
        e->cv.wait(e->mu, [&]() REQUIRES(e->mu) {
          return e->detached || e->phase != SessionPhase::kAdvancing;
        });
        continue;
      case SessionPhase::kSwapped:
        continue;  // unreachable for resident entries
      case SessionPhase::kWaiting:
        break;
    }
    if (!e->pending || index != e->pending->index) {
      return HostResult::failure(
          kErrIndex,
          "expected index " +
              (e->pending ? std::to_string(e->pending->index) : "?"));
    }
    AnswerRecord rec;
    rec.answer = answer;
    rec.key_a = scenario_key(e->pending->a);
    rec.key_b = scenario_key(e->pending->b);
    {
      obs::Span append(config_.obs.tracing() ? &config_.obs : nullptr,
                       "answer_append");
      if (obs::TraceEvent* ev = append.event()) {
        ev->str("session", id).integer("index", index);
      }
      // The ack is durable before it is given: log line flushed first.
      e->log_out << e->log.size() << '|' << oracle::preference_name(answer)
                 << '|' << rec.key_a << '|' << rec.key_b << '\n';
      e->log_out.flush();
    }
    if (!e->log_out) {
      return HostResult::failure(kErrInternal, "cannot append to answers.log");
    }
    e->log.push_back(std::move(rec));
    // schedule_advance re-takes e->mu; drop it first (never held across).
    lk.release();
    schedule_advance(e);
    return HostResult::success();
  }
}

HostResult SessionHost::evict(const std::string& id) {
  std::shared_ptr<SessionEntry> e;
  {
    const util::MutexLock lk(mu_);
    const auto it = residents_.find(id);
    if (it == residents_.end()) {
      std::error_code ec;
      if (!std::filesystem::exists(root_ / id / "session.json", ec)) {
        return HostResult::failure(kErrUnknownSession,
                                   "unknown session '" + id + "'");
      }
      return HostResult::success();  // already swapped out
    }
    e = it->second;
  }
  // Waits out any in-flight advance: its checkpoint must land before the
  // memory goes away (belt-and-braces, since the answers.log alone can
  // rebuild the state).
  for (;;) {
    {
      const util::MutexLock lk(e->mu);
      e->cv.wait(e->mu, [&]() REQUIRES(e->mu) {
        return !e->advancing || e->detached;
      });
    }
    if (swap_out(e, "evict", std::nullopt)) return HostResult::success();
    // An answer slipped in and started an advance; wait again.
  }
}

bool SessionHost::swap_out(const std::shared_ptr<SessionEntry>& e,
                           const char* reason,
                           std::optional<std::uint64_t> picked_lru) {
  {
    // mu_ before e->mu: the documented lock order (docs/CONCURRENCY.md).
    const util::MutexLock host(mu_);
    const util::MutexLock lk(e->mu);
    if (e->detached) return true;  // someone else swapped it
    if (e->advancing) return false;
    if (picked_lru &&
        (e->lru != *picked_lru ||
         static_cast<int>(residents_.size()) <= config_.max_active)) {
      return false;  // the LRU pick went stale
    }
    e->detached = true;
    residents_.erase(e->params.id);
    ++stats_.swaps;
    stats_.sessions_resident = static_cast<long>(residents_.size());
  }
  e->cv.notify_all();
  config_.obs.count("serve.swaps");
  config_.obs.gauge("serve.sessions_active",
                    static_cast<double>(stats().sessions_resident));
  if (config_.obs.tracing()) {
    obs::TraceEvent ev("session_swap");
    ev.str("session", e->params.id).str("reason", reason);
    config_.obs.emit(ev);
  }
  return true;
}

// LRU bound: while too many sessions are resident, swap out the
// least-recently-touched one that is neither mid-advance nor the newest
// touch (evicting the entry the current request just pulled in would
// livelock a tiny --max-active against itself). A pick that goes stale
// before it is swapped out (it starts advancing, is touched again, or the
// cap is met meanwhile) is picked anew.
void SessionHost::enforce_cap() {
  if (config_.max_active <= 0) return;
  for (;;) {
    std::shared_ptr<SessionEntry> victim;
    std::uint64_t victim_lru = 0;
    {
      const util::MutexLock host(mu_);
      if (static_cast<int>(residents_.size()) <= config_.max_active) return;
      std::uint64_t oldest = UINT64_MAX;
      std::uint64_t newest = 0;
      for (const auto& [id, entry] : residents_) {
        newest = std::max(newest, entry->lru);
      }
      for (const auto& [id, entry] : residents_) {
        if (entry->lru == newest) continue;
        const util::MutexLock lk(entry->mu);
        if (entry->advancing) continue;
        if (entry->lru < oldest) {
          oldest = entry->lru;
          victim = entry;
        }
      }
      if (victim == nullptr) return;  // everything is computing; retry later
      victim_lru = victim->lru;
    }
    swap_out(victim, "lru", victim_lru);
  }
}

HostResult SessionHost::inspect(const std::string& id, SessionView* view) {
  {
    const util::MutexLock lk(mu_);
    const auto it = residents_.find(id);
    if (it != residents_.end()) {
      const util::MutexLock elk(it->second->mu);
      *view = view_of(*it->second);
      return HostResult::success();
    }
  }
  // Disk-only view: never rehydrates.
  const std::filesystem::path dir = root_ / id;
  std::error_code ec;
  if (!std::filesystem::exists(dir / "session.json", ec)) {
    return HostResult::failure(kErrUnknownSession,
                               "unknown session '" + id + "'");
  }
  view->id = id;
  view->resident = false;
  view->phase = SessionPhase::kSwapped;
  try {
    // The readers rehydration uses; nothing on disk is changed.
    view->answers =
        static_cast<long>(read_answer_log(dir / "answers.log").records.size());
    if (std::optional<DoneRecord> done = read_done_json(dir / "done.json")) {
      view->phase = SessionPhase::kDone;
      view->status = std::move(done->status);
      view->objective = std::move(done->objective);
      view->iterations = done->iterations;
    }
  } catch (const std::exception& ex) {
    return HostResult::failure(kErrInternal, ex.what());
  }
  return HostResult::success();
}

}  // namespace compsynth::serve
