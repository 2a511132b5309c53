// The synthesis service (src/serve/): wire-protocol parsing, the session
// host's passive replay model, and the eviction / rehydration edge cases.
//
// The central invariant under test everywhere: no matter how often a
// session is swapped out, rehydrated from a (possibly torn) snapshot, or
// carried across a host teardown, its oracle-query sequence and final
// objective are IDENTICAL to an uninterrupted in-process synthesis run
// with the same configuration.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "oracle/oracle.h"
#include "serve/line_client.h"
#include "serve/line_server.h"
#include "serve/protocol.h"
#include "serve/session_host.h"
#include "sketch/eval.h"
#include "sketch/parser.h"
#include "sketch/printer.h"
#include "synth/synthesizer.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace compsynth::serve {
namespace {

constexpr char kSketchSource[] = R"(
sketch serve(throughput in [0, 10], latency in [0, 100]) {
  hole weight in grid(0, 0.25, 5);
  hole bonus_thrsh in grid(0, 20, 5);
  if latency <= bonus_thrsh
  then throughput - weight*latency + 100
  else throughput - weight*latency
}
)";

sketch::Sketch test_sketch() { return sketch::parse_sketch(kSketchSource); }

/// A temporary host root, removed on destruction.
struct TempRoot {
  std::filesystem::path path;
  TempRoot() {
    path = std::filesystem::temp_directory_path() /
           ("compsynth_serve_test_" +
            std::to_string(::getpid()) + "_" +
            std::to_string(counter()++));
    std::filesystem::create_directories(path);
  }
  ~TempRoot() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  static int& counter() {
    static int n = 0;
    return n;
  }
};

/// The scripted architect: judges a pair by evaluating both scenarios under
/// a latent target assignment, exactly like tools/compsynth_load.cpp. As an
/// Oracle it deliberately does NOT override do_rank, so a direct
/// Synthesizer::run with it asks the same comparison sequence the service's
/// ReplayOracle replays.
class ScriptedArchitect final : public oracle::Oracle {
 public:
  ScriptedArchitect(const sketch::Sketch& sk,
                    const sketch::HoleAssignment& target)
      : sketch_(sk), target_(target) {}

  oracle::Preference judge(const pref::Scenario& a,
                           const pref::Scenario& b) const {
    const double va = sketch::eval(sketch_, target_, a.metrics);
    const double vb = sketch::eval(sketch_, target_, b.metrics);
    if (va > vb + 1e-4) return oracle::Preference::kFirst;
    if (vb > va + 1e-4) return oracle::Preference::kSecond;
    return oracle::Preference::kTie;
  }

  /// One canonical line per comparison asked, for sequence differencing.
  mutable std::vector<std::string> log;

 protected:
  oracle::Preference do_compare(const pref::Scenario& a,
                                const pref::Scenario& b) override {
    log.push_back(scenario_key(a) + "|" + scenario_key(b));
    return judge(a, b);
  }

 private:
  const sketch::Sketch& sketch_;
  sketch::HoleAssignment target_;
};

CreateParams params_for(const std::string& id, std::uint64_t seed) {
  CreateParams p;
  p.id = id;
  p.seed = seed;
  p.initial = 5;
  p.pairs = 1;
  p.max_iters = 200;
  return p;
}

struct DriveOutcome {
  std::string status;
  std::string objective;
  long answers = 0;
  bool completed = false;
};

/// Drives one session to completion through the host API, answering with
/// the architect; optionally evicts after every `evict_every`-th answer.
DriveOutcome drive(SessionHost& host, const std::string& id,
                   const ScriptedArchitect& architect, int evict_every = 0) {
  DriveOutcome out;
  for (int step = 0; step < 5000; ++step) {
    SessionView view;
    const HostResult r = host.next(id, 30000, &view);
    EXPECT_TRUE(r.ok) << r.code << ": " << r.message;
    if (!r.ok) return out;
    if (view.phase == SessionPhase::kDone) {
      out.status = view.status;
      out.objective = view.objective;
      out.completed = true;
      return out;
    }
    EXPECT_EQ(view.phase, SessionPhase::kWaiting)
        << "unexpected phase " << phase_name(view.phase)
        << (view.phase == SessionPhase::kFailed ? ": " + view.error : "");
    if (view.phase != SessionPhase::kWaiting) return out;
    const HostResult ar = host.answer(
        id, view.pending->index, architect.judge(view.pending->a,
                                                 view.pending->b));
    EXPECT_TRUE(ar.ok) << ar.code << ": " << ar.message;
    if (!ar.ok) return out;
    ++out.answers;
    if (evict_every > 0 && out.answers % evict_every == 0) {
      const HostResult er = host.evict(id);
      EXPECT_TRUE(er.ok) << er.code << ": " << er.message;
    }
  }
  ADD_FAILURE() << "session " << id << " did not complete";
  return out;
}

/// The "key_a|key_b" sequence of a session's on-disk answers.log.
std::vector<std::string> logged_sequence(const std::filesystem::path& root,
                                         const std::string& id) {
  std::vector<std::string> out;
  std::ifstream in(root / id / "answers.log");
  std::string line;
  while (std::getline(in, line)) {
    // <index>|<answer>|<key_a>|<key_b>
    const std::size_t p1 = line.find('|');
    const std::size_t p2 = line.find('|', p1 + 1);
    out.push_back(line.substr(p2 + 1));
  }
  return out;
}

sketch::HoleAssignment target_for(std::uint64_t i) {
  // Any fixed in-grid assignment works; spread across the 5x5 grid.
  return sketch::HoleAssignment{{static_cast<std::int64_t>(i % 5),
                                 static_cast<std::int64_t>((i * 3 + 1) % 5)}};
}

// --- Protocol ---------------------------------------------------------------

TEST(ServeProtocol, RequestRoundTrip) {
  Request req;
  req.verb = Verb::kCreate;
  req.session = "alpha-1";
  req.sketch = "serve";
  req.backend = "grid";
  req.seed = 42;
  req.initial = 7;
  req.pairs = 2;
  req.max_iters = 99;
  const auto parsed = parse_request(render_request(req));
  const Request* round = std::get_if<Request>(&parsed);
  ASSERT_NE(round, nullptr);
  EXPECT_EQ(round->verb, Verb::kCreate);
  EXPECT_EQ(round->session, "alpha-1");
  EXPECT_EQ(round->sketch, "serve");
  EXPECT_EQ(round->seed, 42u);
  EXPECT_EQ(round->initial, 7);
  EXPECT_EQ(round->pairs, 2);
  EXPECT_EQ(round->max_iters, 99);

  Request ans;
  ans.verb = Verb::kAnswer;
  ans.session = "alpha-1";
  ans.index = 3;
  ans.answer = oracle::Preference::kSecond;
  const auto parsed2 = parse_request(render_request(ans));
  const Request* round2 = std::get_if<Request>(&parsed2);
  ASSERT_NE(round2, nullptr);
  EXPECT_EQ(round2->index, 3);
  EXPECT_EQ(round2->answer, oracle::Preference::kSecond);
}

TEST(ServeProtocol, ErrorCodes) {
  auto code_of = [](std::string_view line) {
    const auto parsed = parse_request(line);
    const ParseError* err = std::get_if<ParseError>(&parsed);
    return err ? err->code : std::string("(ok)");
  };
  EXPECT_EQ(code_of("not json"), kErrParse);
  EXPECT_EQ(code_of("{\"session\":\"x\"}"), kErrVerb);
  EXPECT_EQ(code_of("{\"verb\":\"frobnicate\"}"), kErrVerb);
  EXPECT_EQ(code_of("{\"verb\":\"next\"}"), kErrId);
  EXPECT_EQ(code_of("{\"verb\":\"create\",\"session\":\"a/b\"}"), kErrId);
  EXPECT_EQ(code_of("{\"verb\":\"create\",\"session\":\".hidden\"}"), kErrId);
  EXPECT_EQ(code_of("{\"verb\":\"answer\",\"session\":\"s\",\"index\":0,"
                    "\"answer\":\"maybe\"}"),
            kErrAnswer);
  EXPECT_EQ(code_of("{\"verb\":\"answer\",\"session\":\"s\","
                    "\"answer\":\"tie\"}"),
            kErrIndex);  // missing index
  EXPECT_EQ(code_of("{\"verb\":\"create\",\"session\":\"s\",\"pairs\":0}"),
            kErrField);
}

TEST(ServeProtocol, ScenarioKeyRoundTrip) {
  const std::vector<double> metrics = {2.5, 1.0 / 3.0, 1e-17, -0.0};
  const auto decoded = decode_metrics(encode_metrics(metrics));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, metrics);
  EXPECT_FALSE(decode_metrics("1.0 fish").has_value());
}

// --- Host lifecycle ---------------------------------------------------------

TEST(ServeHost, LifecycleMatchesDirectRun) {
  const sketch::Sketch sk = test_sketch();
  const sketch::HoleAssignment target = target_for(2);

  // Reference: a plain in-process run with the identical configuration.
  ScriptedArchitect reference(sk, target);
  synth::SynthesisConfig cfg;
  cfg.seed = 11;
  cfg.max_iterations = 200;
  cfg.grid_threads = 1;
  cfg.keep_transcript = false;
  synth::Synthesizer direct = synth::make_grid_synthesizer(sk, cfg);
  const synth::SynthesisResult expected = direct.run(reference);
  ASSERT_EQ(expected.status, synth::SynthesisStatus::kConverged);
  ASSERT_TRUE(expected.objective.has_value());

  // Service: the same session driven through the host API.
  TempRoot root;
  HostConfig hc;
  hc.root = root.path.string();
  SessionHost host(hc);
  host.register_sketch(test_sketch());
  ScriptedArchitect architect(sk, target);
  ASSERT_TRUE(host.create(params_for("s", 11)).ok);
  const DriveOutcome out = drive(host, "s", architect);
  ASSERT_TRUE(out.completed);

  EXPECT_EQ(out.status, "converged");
  EXPECT_EQ(out.objective, sketch::print_instantiated(sk, *expected.objective));

  // Identical oracle-query sequence: the host's durable answers.log must be
  // exactly the comparisons the reference oracle was asked.
  EXPECT_EQ(logged_sequence(root.path, "s"), reference.log);
  EXPECT_EQ(out.answers, static_cast<long>(reference.log.size()));

  // A completed session survives inspect and refuses further answers.
  SessionView view;
  ASSERT_TRUE(host.inspect("s", &view).ok);
  EXPECT_EQ(view.phase, SessionPhase::kDone);
  const HostResult r = host.answer("s", out.answers, oracle::Preference::kTie);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, kErrState);
}

TEST(ServeHost, EvictAfterEveryAnswerPreservesSequence) {
  const sketch::Sketch sk = test_sketch();
  const sketch::HoleAssignment target = target_for(4);

  TempRoot plain_root;
  HostConfig plain_cfg;
  plain_cfg.root = plain_root.path.string();
  SessionHost plain(plain_cfg);
  plain.register_sketch(test_sketch());
  ScriptedArchitect architect(sk, target);
  ASSERT_TRUE(plain.create(params_for("s", 21)).ok);
  const DriveOutcome undisturbed = drive(plain, "s", architect);
  ASSERT_TRUE(undisturbed.completed);

  TempRoot evict_root;
  HostConfig evict_cfg;
  evict_cfg.root = evict_root.path.string();
  SessionHost evicting(evict_cfg);
  evicting.register_sketch(test_sketch());
  ASSERT_TRUE(evicting.create(params_for("s", 21)).ok);
  const DriveOutcome evicted = drive(evicting, "s", architect, /*evict_every=*/1);
  ASSERT_TRUE(evicted.completed);

  EXPECT_EQ(evicted.objective, undisturbed.objective);
  EXPECT_EQ(evicted.answers, undisturbed.answers);
  EXPECT_EQ(logged_sequence(evict_root.path, "s"),
            logged_sequence(plain_root.path, "s"));
  EXPECT_GT(evicting.stats().swaps, 0);
  EXPECT_GT(evicting.stats().rehydrations, 0);
}

TEST(ServeHost, EvictWhileAnswerInFlight) {
  // Real worker threads: every answer schedules an advance on the pool, and
  // the evict lands while that advance is (usually) still running. evict
  // must wait it out, and the session must keep converging identically.
  const sketch::Sketch sk = test_sketch();
  const sketch::HoleAssignment target = target_for(1);

  TempRoot ref_root;
  HostConfig ref_cfg;
  ref_cfg.root = ref_root.path.string();
  SessionHost ref_host(ref_cfg);
  ref_host.register_sketch(test_sketch());
  ScriptedArchitect architect(sk, target);
  ASSERT_TRUE(ref_host.create(params_for("s", 31)).ok);
  const DriveOutcome expected = drive(ref_host, "s", architect);
  ASSERT_TRUE(expected.completed);

  util::ThreadPool pool(3);
  TempRoot root;
  HostConfig hc;
  hc.root = root.path.string();
  hc.pool = &pool;
  SessionHost host(hc);
  host.register_sketch(test_sketch());
  ASSERT_TRUE(host.create(params_for("s", 31)).ok);

  DriveOutcome out;
  for (int step = 0; step < 5000 && !out.completed; ++step) {
    SessionView view;
    ASSERT_TRUE(host.next("s", 30000, &view).ok);
    if (view.phase == SessionPhase::kDone) {
      out.status = view.status;
      out.objective = view.objective;
      out.completed = true;
      break;
    }
    ASSERT_EQ(view.phase, SessionPhase::kWaiting) << view.error;
    ASSERT_TRUE(host.answer("s", view.pending->index,
                            architect.judge(view.pending->a, view.pending->b))
                    .ok);
    ++out.answers;
    // Immediately after the answer an advance is in flight on the pool.
    ASSERT_TRUE(host.evict("s").ok);
  }
  ASSERT_TRUE(out.completed);
  EXPECT_EQ(out.objective, expected.objective);
  EXPECT_EQ(logged_sequence(root.path, "s"),
            logged_sequence(ref_root.path, "s"));
}

TEST(ServeHost, TornSnapshotsFallBackToFullReplay) {
  // Every checkpoint write torn: rehydration never finds a valid snapshot
  // and must replay the whole answers.log from scratch — slower, but the
  // query sequence and objective are unchanged.
  const sketch::Sketch sk = test_sketch();
  const sketch::HoleAssignment target = target_for(3);

  TempRoot ref_root;
  HostConfig ref_cfg;
  ref_cfg.root = ref_root.path.string();
  SessionHost ref_host(ref_cfg);
  ref_host.register_sketch(test_sketch());
  ScriptedArchitect architect(sk, target);
  ASSERT_TRUE(ref_host.create(params_for("s", 41)).ok);
  const DriveOutcome expected = drive(ref_host, "s", architect);
  ASSERT_TRUE(expected.completed);

  TempRoot root;
  HostConfig hc;
  hc.root = root.path.string();
  hc.checkpoint_faults.torn_write_p = 1.0;
  hc.checkpoint_faults.seed = 99;
  SessionHost host(hc);
  host.register_sketch(test_sketch());
  ASSERT_TRUE(host.create(params_for("s", 41)).ok);
  const DriveOutcome out = drive(host, "s", architect, /*evict_every=*/2);
  ASSERT_TRUE(out.completed);
  EXPECT_EQ(out.objective, expected.objective);
  EXPECT_EQ(logged_sequence(root.path, "s"),
            logged_sequence(ref_root.path, "s"));
}

TEST(ServeHost, TruncatedNewestSnapshotRehydrates) {
  // Partially drive a session, evict it, then tear its newest snapshot by
  // hand (a half-written file, as a crash would leave). Rehydration must
  // fall back to an older snapshot (or scratch) and continue identically.
  const sketch::Sketch sk = test_sketch();
  const sketch::HoleAssignment target = target_for(0);

  // initial=0 skips the seed-ranking phase, so every answer completes one
  // iteration and writes one checkpoint — snapshots exist well before
  // convergence.
  CreateParams params = params_for("s", 51);
  params.initial = 0;

  TempRoot ref_root;
  HostConfig ref_cfg;
  ref_cfg.root = ref_root.path.string();
  SessionHost ref_host(ref_cfg);
  ref_host.register_sketch(test_sketch());
  ScriptedArchitect architect(sk, target);
  ASSERT_TRUE(ref_host.create(params).ok);
  const DriveOutcome expected = drive(ref_host, "s", architect);
  ASSERT_TRUE(expected.completed);
  ASSERT_GE(expected.answers, 4) << "sketch too easy to exercise truncation";

  TempRoot root;
  HostConfig hc;
  hc.root = root.path.string();
  SessionHost host(hc);
  host.register_sketch(test_sketch());
  ASSERT_TRUE(host.create(params).ok);
  // Answer until at least one snapshot exists, but stop well short of
  // completion.
  auto newest_snapshot = [&]() {
    std::filesystem::path newest;
    for (const auto& entry :
         std::filesystem::directory_iterator(root.path / "s")) {
      if (entry.path().extension() == ".csnap" &&
          (newest.empty() || entry.path().filename() > newest.filename())) {
        newest = entry.path();
      }
    }
    return newest;
  };
  for (int i = 0; i < expected.answers - 1 && newest_snapshot().empty(); ++i) {
    SessionView view;
    ASSERT_TRUE(host.next("s", 30000, &view).ok);
    ASSERT_EQ(view.phase, SessionPhase::kWaiting);
    ASSERT_TRUE(host.answer("s", view.pending->index,
                            architect.judge(view.pending->a, view.pending->b))
                    .ok);
  }
  ASSERT_TRUE(host.evict("s").ok);

  // Tear the newest snapshot: truncate it to half its size.
  const std::filesystem::path newest = newest_snapshot();
  ASSERT_FALSE(newest.empty()) << "no snapshot written before completion";
  const auto size = std::filesystem::file_size(newest);
  std::filesystem::resize_file(newest, size / 2);

  const DriveOutcome out = drive(host, "s", architect);
  ASSERT_TRUE(out.completed);
  EXPECT_EQ(out.objective, expected.objective);
  EXPECT_EQ(logged_sequence(root.path, "s"),
            logged_sequence(ref_root.path, "s"));
}

TEST(ServeHost, TornAnswerLogTailTruncatedOnRehydrate) {
  // A crash can cut an answers.log append short, leaving a trailing
  // fragment with no newline. That answer was never acked: rehydration must
  // truncate the fragment from the file (not fuse the next append onto it
  // into one corrupt line) and re-present the interrupted query.
  const sketch::Sketch sk = test_sketch();
  const sketch::HoleAssignment target = target_for(5);

  TempRoot ref_root;
  HostConfig ref_cfg;
  ref_cfg.root = ref_root.path.string();
  SessionHost ref_host(ref_cfg);
  ref_host.register_sketch(test_sketch());
  ScriptedArchitect architect(sk, target);
  ASSERT_TRUE(ref_host.create(params_for("s", 81)).ok);
  const DriveOutcome expected = drive(ref_host, "s", architect);
  ASSERT_TRUE(expected.completed);
  ASSERT_GE(expected.answers, 3) << "sketch too easy to exercise the tear";

  TempRoot root;
  HostConfig hc;
  hc.root = root.path.string();
  SessionHost host(hc);
  host.register_sketch(test_sketch());
  ASSERT_TRUE(host.create(params_for("s", 81)).ok);
  for (int i = 0; i < 2; ++i) {
    SessionView view;
    ASSERT_TRUE(host.next("s", 30000, &view).ok);
    ASSERT_EQ(view.phase, SessionPhase::kWaiting);
    ASSERT_TRUE(host.answer("s", view.pending->index,
                            architect.judge(view.pending->a, view.pending->b))
                    .ok);
  }
  ASSERT_TRUE(host.evict("s").ok);

  // Simulate the torn append: a fragment of the next record, no newline.
  {
    std::ofstream out(root.path / "s" / "answers.log",
                      std::ios::app | std::ios::binary);
    out << "2|first|m=0.5";
  }

  // The disk-only inspect must not count the unacked fragment.
  SessionView swapped;
  ASSERT_TRUE(host.inspect("s", &swapped).ok);
  EXPECT_EQ(swapped.phase, SessionPhase::kSwapped);
  EXPECT_EQ(swapped.answers, 2);

  // Rehydration truncates the fragment and the session converges
  // identically; evicting after every answer proves the log stays
  // parseable across repeated rehydrations of the repaired file.
  const DriveOutcome out = drive(host, "s", architect, /*evict_every=*/1);
  ASSERT_TRUE(out.completed);
  EXPECT_EQ(out.objective, expected.objective);
  EXPECT_EQ(logged_sequence(root.path, "s"),
            logged_sequence(ref_root.path, "s"));
}

TEST(ServeHost, DoubleCreateRefusedEverywhere) {
  TempRoot root;
  HostConfig hc;
  hc.root = root.path.string();
  {
    SessionHost host(hc);
    host.register_sketch(test_sketch());
    ASSERT_TRUE(host.create(params_for("dup", 1)).ok);
    // Resident duplicate.
    HostResult r = host.create(params_for("dup", 1));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.code, kErrExists);
    // Swapped-out duplicate.
    ASSERT_TRUE(host.evict("dup").ok);
    r = host.create(params_for("dup", 1));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.code, kErrExists);
  }
  // Across a restart: a fresh host on the same root still refuses.
  SessionHost host2(hc);
  host2.register_sketch(test_sketch());
  const HostResult r = host2.create(params_for("dup", 1));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, kErrExists);
}

TEST(ServeHost, AnswerValidation) {
  TempRoot root;
  HostConfig hc;
  hc.root = root.path.string();
  SessionHost host(hc);
  host.register_sketch(test_sketch());
  const sketch::Sketch sk = test_sketch();
  ScriptedArchitect architect(sk, target_for(2));

  EXPECT_EQ(host.answer("ghost", 0, oracle::Preference::kTie).code,
            kErrUnknownSession);
  EXPECT_EQ(host.evict("ghost").code, kErrUnknownSession);
  SessionView view;
  EXPECT_EQ(host.inspect("ghost", &view).code, kErrUnknownSession);

  ASSERT_TRUE(host.create(params_for("s", 61)).ok);
  ASSERT_TRUE(host.next("s", 30000, &view).ok);
  ASSERT_EQ(view.phase, SessionPhase::kWaiting);
  ASSERT_EQ(view.pending->index, 0);

  // Future index: refused with the expected one named.
  HostResult r = host.answer("s", 7, oracle::Preference::kFirst);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, kErrIndex);

  const oracle::Preference answer =
      architect.judge(view.pending->a, view.pending->b);
  ASSERT_TRUE(host.answer("s", 0, answer).ok);
  // Duplicate delivery of an acked index: idempotent success, no state change.
  EXPECT_TRUE(host.answer("s", 0, answer).ok);
  // A contradictory re-delivery of an acked index is refused; the logged
  // answer stands.
  const oracle::Preference other = answer == oracle::Preference::kFirst
                                       ? oracle::Preference::kSecond
                                       : oracle::Preference::kFirst;
  r = host.answer("s", 0, other);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, kErrAnswer);
  ASSERT_TRUE(host.next("s", 30000, &view).ok);
  if (view.phase == SessionPhase::kWaiting) {
    EXPECT_EQ(view.pending->index, 1);
  }
  EXPECT_EQ(logged_sequence(root.path, "s").size(), 1u);
}

TEST(ServeHost, LruBoundsResidencyWithoutChangingResults) {
  const sketch::Sketch sk = test_sketch();
  constexpr int kSessions = 6;

  // Unbounded reference host.
  TempRoot ref_root;
  HostConfig ref_cfg;
  ref_cfg.root = ref_root.path.string();
  ref_cfg.max_active = 0;
  SessionHost ref_host(ref_cfg);
  ref_host.register_sketch(test_sketch());
  std::vector<DriveOutcome> expected;
  for (int i = 0; i < kSessions; ++i) {
    const std::string id = "lru" + std::to_string(i);
    ASSERT_TRUE(ref_host.create(params_for(id, 70 + i)).ok);
    ScriptedArchitect architect(sk, target_for(i));
    expected.push_back(drive(ref_host, id, architect));
    ASSERT_TRUE(expected.back().completed);
  }

  // Two resident slots for six sessions, driven interleaved.
  TempRoot root;
  HostConfig hc;
  hc.root = root.path.string();
  hc.max_active = 2;
  SessionHost host(hc);
  host.register_sketch(test_sketch());
  std::vector<std::unique_ptr<ScriptedArchitect>> architects;
  architects.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    const std::string id = "lru" + std::to_string(i);
    ASSERT_TRUE(host.create(params_for(id, 70 + i)).ok);
    architects.push_back(std::make_unique<ScriptedArchitect>(sk, target_for(i)));
  }
  std::vector<DriveOutcome> out(kSessions);
  bool live = true;
  for (int pass = 0; pass < 5000 && live; ++pass) {
    live = false;
    for (int i = 0; i < kSessions; ++i) {
      if (out[i].completed) continue;
      live = true;
      const std::string id = "lru" + std::to_string(i);
      SessionView view;
      ASSERT_TRUE(host.next(id, 30000, &view).ok);
      if (view.phase == SessionPhase::kDone) {
        out[i].objective = view.objective;
        out[i].completed = true;
        continue;
      }
      ASSERT_EQ(view.phase, SessionPhase::kWaiting) << view.error;
      ASSERT_TRUE(
          host.answer(id, view.pending->index,
                      architects[i]->judge(view.pending->a, view.pending->b))
              .ok);
    }
  }
  for (int i = 0; i < kSessions; ++i) {
    ASSERT_TRUE(out[i].completed) << "lru" << i;
    EXPECT_EQ(out[i].objective, expected[i].objective) << "lru" << i;
  }
  EXPECT_LE(host.stats().sessions_resident, 2);
  EXPECT_GT(host.stats().swaps, 0);
  EXPECT_GT(host.stats().rehydrations, 0);
}

// The in-process run a served session with `params` must reproduce, with
// `user` as the blocking oracle.
synth::SynthesisResult direct_run(const sketch::Sketch& sk,
                                  const CreateParams& params,
                                  ScriptedArchitect& user,
                                  obs::MetricsRegistry* metrics = nullptr) {
  synth::SynthesisConfig cfg;
  cfg.seed = params.seed;
  cfg.initial_scenarios = params.initial;
  cfg.pairs_per_iteration = params.pairs;
  cfg.max_iterations = params.max_iters;
  cfg.grid_threads = 1;
  cfg.obs.metrics = metrics;
  synth::Synthesizer direct = synth::make_grid_synthesizer(sk, cfg);
  return direct.run(user);
}

// An answer costs the host one finder query, as in the direct run: each
// checkpoint is taken after a query and carries the pairs it found, so
// neither a rehydrating advance nor the answering one repeats that query.
// With two pairs per iteration, evicting after every answer also swaps the
// session out between the two pairs of one checkpoint, and the rehydrated
// advance must ask the second pair from the snapshot.
TEST(ServeHost, OneFinderQueryPerAnswer) {
  const sketch::Sketch sk = test_sketch();
  const sketch::HoleAssignment target = target_for(3);
  for (const int pairs : {1, 2}) {
    CreateParams params = params_for("s", 31);
    params.pairs = pairs;
    obs::MetricsRegistry direct_metrics;
    ScriptedArchitect reference(sk, target);
    const synth::SynthesisResult expected =
        direct_run(sk, params, reference, &direct_metrics);
    ASSERT_EQ(expected.status, synth::SynthesisStatus::kConverged);
    ASSERT_TRUE(std::any_of(expected.transcript.begin(),
                            expected.transcript.end(),
                            [&](const synth::IterationRecord& r) {
                              return r.pairs_presented == pairs;
                            }));
    const long direct_searches =
        direct_metrics.counter("grid.pair_searches").value();
    ASSERT_GE(direct_searches, 3);

    for (const int evict_every : {0, 1}) {
      obs::MetricsRegistry metrics;
      TempRoot root;
      HostConfig hc;
      hc.root = root.path.string();
      hc.obs.metrics = &metrics;
      SessionHost host(hc);
      host.register_sketch(test_sketch());
      ScriptedArchitect architect(sk, target);
      ASSERT_TRUE(host.create(params).ok);
      const DriveOutcome out = drive(host, "s", architect, evict_every);
      ASSERT_TRUE(out.completed);
      EXPECT_EQ(out.objective,
                sketch::print_instantiated(sk, *expected.objective));
      EXPECT_EQ(logged_sequence(root.path, "s"), reference.log);
      EXPECT_EQ(metrics.counter("grid.pair_searches").value(), direct_searches)
          << "pairs " << pairs << ", evict_every " << evict_every;
      EXPECT_EQ(host.stats().rehydrations, evict_every > 0 ? out.answers : 0);
    }
  }
}

TEST(ServeHost, KillResumeAcrossHosts) {
  // Host teardown mid-interaction (the in-process equivalent of kill-9 +
  // restart): a second host on the same root resumes every session to the
  // identical sequence and objective.
  const sketch::Sketch sk = test_sketch();
  constexpr int kSessions = 3;

  TempRoot ref_root;
  HostConfig ref_cfg;
  ref_cfg.root = ref_root.path.string();
  SessionHost ref_host(ref_cfg);
  ref_host.register_sketch(test_sketch());
  std::vector<DriveOutcome> expected;
  for (int i = 0; i < kSessions; ++i) {
    const std::string id = "kr" + std::to_string(i);
    ASSERT_TRUE(ref_host.create(params_for(id, 80 + i)).ok);
    ScriptedArchitect architect(sk, target_for(i + 1));
    expected.push_back(drive(ref_host, id, architect));
    ASSERT_TRUE(expected.back().completed);
  }

  TempRoot root;
  HostConfig hc;
  hc.root = root.path.string();
  {
    SessionHost host1(hc);
    host1.register_sketch(test_sketch());
    for (int i = 0; i < kSessions; ++i) {
      const std::string id = "kr" + std::to_string(i);
      ASSERT_TRUE(host1.create(params_for(id, 80 + i)).ok);
      ScriptedArchitect architect(sk, target_for(i + 1));
      for (int a = 0; a < 2; ++a) {
        SessionView view;
        ASSERT_TRUE(host1.next(id, 30000, &view).ok);
        ASSERT_EQ(view.phase, SessionPhase::kWaiting);
        ASSERT_TRUE(
            host1
                .answer(id, view.pending->index,
                        architect.judge(view.pending->a, view.pending->b))
                .ok);
      }
    }
  }  // host1 drains and dies with sessions parked mid-interaction

  SessionHost host2(hc);
  host2.register_sketch(test_sketch());
  for (int i = 0; i < kSessions; ++i) {
    const std::string id = "kr" + std::to_string(i);
    ScriptedArchitect architect(sk, target_for(i + 1));
    const DriveOutcome out = drive(host2, id, architect);
    ASSERT_TRUE(out.completed);
    EXPECT_EQ(out.objective, expected[i].objective);
    EXPECT_EQ(logged_sequence(root.path, id),
              logged_sequence(ref_root.path, id));
  }
}

// LineServer and LineClient read endpoints with one parser: a port must be
// the whole rest of the text and in [0, 65535], and both refuse a bad one
// with the same message. tcp:0 still binds an ephemeral port.
TEST(LineEndpoints, ServerAndClientRefuseMalformedPortsAlike) {
  const auto echo = [](const std::string& line, LineControl*) { return line; };
  for (const std::string endpoint :
       {"tcp:0abc", "tcp:", "tcp:127.0.0.1:", "tcp:70000"}) {
    std::string server_error;
    std::string client_error;
    try {
      LineServer server(LineServerConfig{endpoint}, echo);
      ADD_FAILURE() << "server bound " << endpoint;
    } catch (const std::runtime_error& e) {
      server_error = e.what();
    }
    try {
      LineClientConfig cc;
      cc.endpoint = endpoint;
      LineClient client(cc);
      ADD_FAILURE() << "client connected to " << endpoint;
    } catch (const std::runtime_error& e) {
      client_error = e.what();
    }
    EXPECT_EQ(server_error, client_error) << endpoint;
    EXPECT_NE(server_error.find("'" + endpoint + "'"), std::string::npos)
        << server_error;
  }
  LineServer ephemeral(LineServerConfig{"tcp:0"}, echo);
  const std::string bound = ephemeral.endpoint();
  ASSERT_EQ(bound.rfind("tcp:127.0.0.1:", 0), 0u) << bound;
  EXPECT_NE(bound, "tcp:127.0.0.1:0");
}

TEST(LineServerTcp, RoundTripsDoNotStall) {
  // Request/response over loopback TCP, one at a time, as the dist
  // coordinator and compsynth_serve clients use it. A response that leaves
  // in two sends (body, then newline) without TCP_NODELAY waits for the
  // peer's delayed ACK, about 40 ms per round trip — 20 round trips then take
  // 800 ms or more. Without the stall each takes well under a millisecond.
  LineServer server(LineServerConfig{"tcp:127.0.0.1:0"},
                    [](const std::string& line, LineControl*) {
                      return "echo " + line;
                    });
  server.start();
  {
    LineClientConfig cc;
    cc.endpoint = server.endpoint();
    cc.io_timeout_s = 10;
    LineClient client(cc);
    util::Stopwatch watch;
    for (int i = 0; i < 20; ++i) {
      const std::string body = "ping " + std::to_string(i);
      ASSERT_EQ(client.request(body), "echo " + body);
    }
    EXPECT_LT(watch.elapsed_seconds(), 0.4);
  }
  server.stop();
  server.wait();
}

}  // namespace
}  // namespace compsynth::serve
