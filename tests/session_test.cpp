// Durable sessions: snapshot round trips, torn-file rejection, recovery
// ordering, and the central differential guarantee — a run that is killed
// and resumed from ANY of its checkpoints produces the same objective and
// the same oracle query sequence as a run that was never interrupted.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "oracle/ground_truth.h"
#include "oracle/variants.h"
#include "pref/serialize.h"
#include "session/checkpoint.h"
#include "session/snapshot.h"
#include "sketch/library.h"
#include "synth/synthesizer.h"
#include "util/checksum.h"

namespace compsynth::session {
namespace {

// ---------------------------------------------------------------------------
// Query-sequence logging oracle: wraps a ground-truth oracle and records a
// canonical line per do_compare / do_rank call. The log is NOT part of the
// persisted state — the differential tests compare a resumed run's log
// against the reference run's suffix.

std::string scenario_key(const pref::Scenario& s) {
  std::string out;
  char buf[40];
  for (double m : s.metrics) {
    std::snprintf(buf, sizeof(buf), " %.17g", m);
    out += buf;
  }
  return out;
}

class LoggingOracle final : public oracle::Oracle {
 public:
  LoggingOracle(const sketch::Sketch& sk, const sketch::HoleAssignment& target,
                double tie_tolerance)
      : inner_(std::make_unique<oracle::GroundTruthOracle>(sk, target,
                                                           tie_tolerance)) {}
  explicit LoggingOracle(std::unique_ptr<oracle::Oracle> inner)
      : inner_(std::move(inner)) {}

  std::vector<std::string> log;

 protected:
  oracle::Preference do_compare(const pref::Scenario& a,
                                const pref::Scenario& b) override {
    log.push_back("cmp" + scenario_key(a) + " |" + scenario_key(b));
    return inner_->compare(a, b);
  }
  oracle::RankingResponse do_rank(
      std::span<const pref::Scenario> scenarios) override {
    std::string entry = "rank";
    for (const auto& s : scenarios) entry += scenario_key(s);
    log.push_back(entry);
    return inner_->rank(scenarios);
  }
  void do_save_state(std::ostream& out) const override {
    inner_->save_state(out);
  }
  void do_restore_state(std::istream& in) override {
    inner_->restore_state(in);
  }

 private:
  std::unique_ptr<oracle::Oracle> inner_;
};

// ---------------------------------------------------------------------------
// The differential kill/resume harness.

struct DifferentialCase {
  const sketch::Sketch& sketch;
  sketch::HoleAssignment target;
  std::uint64_t seed = 1;
  int pairs_per_iteration = 1;
  /// > 0: the user flips strict answers with this probability, and the run
  /// tolerates (and repairs) the contradictions.
  double noise = 0;
};

LoggingOracle make_user(const DifferentialCase& c, double tie_tolerance) {
  if (c.noise == 0) return LoggingOracle(c.sketch, c.target, tie_tolerance);
  return LoggingOracle(std::make_unique<oracle::NoisyOracle>(
      std::make_unique<oracle::GroundTruthOracle>(c.sketch, c.target,
                                                  tie_tolerance),
      c.noise, c.seed + 99));
}

enum class Backend { kGrid, kZ3, kPortfolio };

synth::Synthesizer make_synth(const DifferentialCase& c, Backend backend,
                              synth::SynthesisConfig config) {
  switch (backend) {
    case Backend::kZ3:
      return synth::make_z3_synthesizer(c.sketch, std::move(config));
    case Backend::kPortfolio:
      return synth::make_portfolio_synthesizer(c.sketch, std::move(config));
    case Backend::kGrid:
      break;
  }
  return synth::make_grid_synthesizer(c.sketch, std::move(config));
}

// `captured`, when given, receives every checkpointed state.
void run_differential(const DifferentialCase& c,
                      Backend backend = Backend::kGrid,
                      std::vector<synth::SessionState>* captured = nullptr) {
  synth::SynthesisConfig config;
  config.seed = c.seed;
  config.max_iterations = 300;
  config.pairs_per_iteration = c.pairs_per_iteration;
  config.tolerate_inconsistency = c.noise > 0;

  // Reference: an uninterrupted run.
  LoggingOracle ref_user = make_user(c, config.finder.tie_tolerance);
  synth::Synthesizer ref_synth = make_synth(c, backend, config);
  const synth::SynthesisResult ref = ref_synth.run(ref_user);
  ASSERT_EQ(ref.status, synth::SynthesisStatus::kConverged);
  ASSERT_TRUE(ref.objective.has_value());

  // Capture: the same run with a checkpoint hook recording every
  // SessionState (and the query-log length at capture time). Checkpointing
  // must not perturb the run.
  std::vector<std::pair<synth::SessionState, std::size_t>> checkpoints;
  LoggingOracle cap_user = make_user(c, config.finder.tie_tolerance);
  synth::SynthesisConfig cap_config = config;
  cap_config.checkpoint = [&](const synth::SessionState& st) {
    checkpoints.emplace_back(st, cap_user.log.size());
  };
  synth::Synthesizer cap_synth = make_synth(c, backend, cap_config);
  const synth::SynthesisResult cap = cap_synth.run(cap_user);
  ASSERT_EQ(cap.status, synth::SynthesisStatus::kConverged);
  EXPECT_EQ(cap.objective->index, ref.objective->index);
  EXPECT_EQ(cap_user.log, ref_user.log);
  ASSERT_GE(checkpoints.size(), 2u);  // at least one mid-run + the final one
  if (captured != nullptr) {
    for (const auto& checkpoint : checkpoints) {
      captured->push_back(checkpoint.first);
    }
  }

  // Kill at every mid-run checkpoint, resume with a FRESH
  // synthesizer and a FRESH oracle, and demand the identical continuation.
  for (const auto& [state, log_len] : checkpoints) {
    if (state.iterations >= ref.iterations) continue;  // final checkpoint
    LoggingOracle user = make_user(c, config.finder.tie_tolerance);
    synth::Synthesizer s = make_synth(c, backend, config);
    const synth::SynthesisResult r = s.resume(user, state);
    ASSERT_EQ(r.status, synth::SynthesisStatus::kConverged)
        << "resume at iteration " << state.iterations;
    ASSERT_TRUE(r.objective.has_value());
    EXPECT_EQ(r.objective->index, ref.objective->index)
        << "resume at iteration " << state.iterations;
    EXPECT_EQ(r.iterations, ref.iterations);
    EXPECT_EQ(r.oracle_comparisons, ref.oracle_comparisons);
    const std::vector<std::string> expected(ref_user.log.begin() + log_len,
                                            ref_user.log.end());
    EXPECT_EQ(user.log, expected)
        << "resumed query sequence diverged at iteration "
        << state.iterations;
  }
}

TEST(SessionDifferential, SwanKillResumeAtEveryIteration) {
  const auto& sk = sketch::swan_sketch();
  run_differential({sk, sketch::swan_target(), 11});
}

TEST(SessionDifferential, AbrQoeKillResumeAtEveryIteration) {
  const auto& sk = sketch::abr_qoe_sketch();
  sketch::HoleAssignment target;
  target.index = {sk.holes()[0].nearest_index(2),
                  sk.holes()[1].nearest_index(2),
                  sk.holes()[2].nearest_index(0.5),
                  sk.holes()[3].nearest_index(1)};
  run_differential({sk, target, 606});
}

TEST(SessionDifferential, HomenetKillResumeAtEveryIteration) {
  const auto& sk = sketch::homenet_sketch();
  sketch::HoleAssignment target;
  target.index = {sk.holes()[0].nearest_index(20),
                  sk.holes()[1].nearest_index(1),
                  sk.holes()[2].nearest_index(1)};
  run_differential({sk, target, 77});
}

TEST(SessionDifferential, Z3BackendKillResumeSmoke) {
  const auto& sk = sketch::swan_sketch();
  run_differential({sk, sketch::swan_target(), 5}, Backend::kZ3);
}

// The portfolio runs its grid and Z3 legs one after the other, so it is
// replay-deterministic like either back-end alone; its snapshot carries
// both legs' states.
TEST(SessionDifferential, HomenetPortfolioKillResumeAtEveryIteration) {
  const auto& sk = sketch::homenet_sketch();
  sketch::HoleAssignment target;
  target.index = {sk.holes()[0].nearest_index(20),
                  sk.holes()[1].nearest_index(1),
                  sk.holes()[2].nearest_index(1)};
  run_differential({sk, target, 77}, Backend::kPortfolio);
}

// On this coarse-SWAN target the portfolio's proof finds a pair the grid's
// sampling missed (tests/accel_differential_test.cpp), so the resumes land
// before, at and after proof queries.
TEST(SessionDifferential, SwanPortfolioProofKillResumeAtEveryIteration) {
  run_differential({sketch::swan_sketch(), sketch::HoleAssignment{{0, 5, 1, 7}},
                    422261347474ULL},
                   Backend::kPortfolio);
}

// Each mid-run checkpoint carries both pairs of its iteration; a resume asks
// the two before its first query.
TEST(SessionDifferential, SwanTwoPairsKillResumeAtEveryCheckpoint) {
  run_differential({sketch::swan_sketch(), sketch::swan_target(), 11,
                    /*pairs_per_iteration=*/2});
}

// A noisy architect under tolerate_inconsistency. With two pairs per
// iteration a flipped answer can contradict its sibling, so some mid-run
// iterations are repair rounds: the finder finds no candidate, the graph is
// repaired, and no checkpoint is taken. Resuming from the checkpoint before
// such a round must replay the repair and the identical queries after it.
TEST(SessionDifferential, NoisyRepairKillResumeAtEveryCheckpoint) {
  std::vector<synth::SessionState> checkpoints;
  run_differential({sketch::swan_sketch(), sketch::swan_target(), 2,
                    /*pairs_per_iteration=*/2, /*noise=*/0.1},
                   Backend::kGrid, &checkpoints);
  bool repair_between = false;
  for (std::size_t i = 0; i + 1 < checkpoints.size(); ++i) {
    const synth::SessionState& a = checkpoints[i];
    const synth::SessionState& b = checkpoints[i + 1];
    repair_between |= !b.pending.pairs.empty() &&
                      b.repair_rounds > a.repair_rounds;
  }
  EXPECT_TRUE(repair_between) << "no repair round between two checkpoints";
}

// ---------------------------------------------------------------------------
// Snapshot format.

Snapshot sample_snapshot() {
  Snapshot snap;
  snap.meta.sketch = "swan";
  snap.meta.backend = "grid";
  snap.meta.seed = 42;
  snap.meta.run_id = "test-run";
  snap.meta.iteration = 7;
  snap.state.iterations = 7;
  snap.state.interactions = 6;
  snap.state.repair_rounds = 1;
  snap.state.total_solver_seconds = 0.125;
  snap.state.oracle_comparisons = 19;
  snap.state.transcript.push_back({1, 0.5, 1, 1, 0});
  snap.state.transcript.push_back({2, 0.25, 1, 0, 1});
  pref::PreferenceGraph g;
  const auto a = g.intern(pref::Scenario{{5, 10}});
  const auto b = g.intern(pref::Scenario{{2, 100}});
  g.add_preference(a, b, 2.5);
  g.set_label(a, "peak-hour");
  snap.state.graph = std::move(g);
  snap.state.finder_state = "finder-blob\nwith @lines\nand no trailing nl";
  snap.state.oracle_state = "oracle 19 1\n";
  return snap;
}

TEST(Snapshot, EncodeDecodeRoundTrip) {
  const Snapshot snap = sample_snapshot();
  const std::string bytes = encode(snap);
  const Snapshot back = decode(bytes);
  EXPECT_EQ(back.meta.version, kSnapshotFormatVersion);
  EXPECT_EQ(back.meta.sketch, snap.meta.sketch);
  EXPECT_EQ(back.meta.backend, snap.meta.backend);
  EXPECT_EQ(back.meta.seed, snap.meta.seed);
  EXPECT_EQ(back.meta.run_id, snap.meta.run_id);
  EXPECT_EQ(back.meta.iteration, snap.meta.iteration);
  EXPECT_EQ(back.state.iterations, snap.state.iterations);
  EXPECT_EQ(back.state.interactions, snap.state.interactions);
  EXPECT_EQ(back.state.repair_rounds, snap.state.repair_rounds);
  EXPECT_EQ(back.state.total_solver_seconds, snap.state.total_solver_seconds);
  EXPECT_EQ(back.state.oracle_comparisons, snap.state.oracle_comparisons);
  ASSERT_EQ(back.state.transcript.size(), snap.state.transcript.size());
  EXPECT_EQ(back.state.transcript[1].solver_seconds,
            snap.state.transcript[1].solver_seconds);
  EXPECT_EQ(pref::serialize(back.state.graph),
            pref::serialize(snap.state.graph));
  EXPECT_EQ(back.state.finder_state, snap.state.finder_state);
  EXPECT_EQ(back.state.oracle_state, snap.state.oracle_state);
  // Encoding is deterministic.
  EXPECT_EQ(encode(back), bytes);
}

TEST(Snapshot, RejectsTornAndTamperedBytes) {
  const std::string bytes = encode(sample_snapshot());
  // Truncation at any point after the manifest must be detected.
  EXPECT_THROW(decode(bytes.substr(0, bytes.size() / 2)), SnapshotError);
  EXPECT_THROW(decode(bytes.substr(0, bytes.size() - 1)), SnapshotError);
  // A flipped payload byte fails the CRC.
  std::string flipped = bytes;
  flipped[bytes.size() - 2] ^= 0x20;
  EXPECT_THROW(decode(flipped), SnapshotError);
  // Garbage and empty input.
  EXPECT_THROW(decode(""), SnapshotError);
  EXPECT_THROW(decode("not a snapshot\n"), SnapshotError);
}

TEST(Snapshot, RejectsNewerFormatVersion) {
  std::string bytes = encode(sample_snapshot());
  const std::string current =
      "COMPSYNTH-SNAPSHOT " + std::to_string(kSnapshotFormatVersion) + "\n";
  ASSERT_EQ(bytes.rfind(current, 0), 0u);
  bytes.replace(0, current.size(),
                "COMPSYNTH-SNAPSHOT " +
                    std::to_string(kSnapshotFormatVersion + 1) + "\n");
  try {
    decode(bytes);
    FAIL() << "a newer format version must be rejected";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("newer"), std::string::npos);
  }
}

// Version-1 files predate the @cache section; decode must still accept them.
// The v1 bytes are reconstructed from a v2 encoding by stripping the
// trailing (always empty) @cache section and rewriting the envelope exactly
// as the v1 writer produced it.
TEST(Snapshot, DecodesVersion1FilesWithoutCacheSection) {
  const Snapshot snap = sample_snapshot();
  const std::string bytes = encode(snap);
  const std::string cache_section = "@cache 0\n\n";
  ASSERT_TRUE(bytes.size() >= cache_section.size() &&
              bytes.compare(bytes.size() - cache_section.size(),
                            cache_section.size(), cache_section) == 0)
      << "expected the empty @cache section to close a v2 snapshot";
  const std::size_t manifest_begin = bytes.find('\n') + 1;
  const std::size_t payload_begin = bytes.find('\n', manifest_begin) + 1;
  std::string manifest =
      bytes.substr(manifest_begin, payload_begin - manifest_begin - 1);
  std::string payload = bytes.substr(payload_begin);
  payload.resize(payload.size() - cache_section.size());

  const auto rewrite = [&manifest](const std::string& from,
                                   const std::string& to) {
    const std::size_t at = manifest.find(from);
    ASSERT_NE(at, std::string::npos) << "manifest lacks '" << from << "'";
    manifest.replace(at, from.size(), to);
  };
  rewrite("\"v\":" + std::to_string(kSnapshotFormatVersion), "\"v\":1");
  rewrite("\"payload_bytes\":" +
              std::to_string(payload.size() + cache_section.size()),
          "\"payload_bytes\":" + std::to_string(payload.size()));
  rewrite(util::crc32_hex(
              util::crc32(bytes.substr(payload_begin))),
          util::crc32_hex(util::crc32(payload)));

  const std::string v1 = "COMPSYNTH-SNAPSHOT 1\n" + manifest + "\n" + payload;
  const Snapshot back = decode(v1);
  EXPECT_EQ(back.meta.version, 1);
  EXPECT_EQ(back.state.finder_state, snap.state.finder_state);
  EXPECT_EQ(back.state.oracle_state, snap.state.oracle_state);
  EXPECT_EQ(pref::serialize(back.state.graph),
            pref::serialize(snap.state.graph));
}

// A pending record whose doubles only survive a %.17g round trip.
synth::PendingPairs sample_pending() {
  synth::PendingPairs p;
  p.solver_seconds = 0.1 + 0.2;
  p.pairs.push_back({pref::Scenario{{1.0 / 3, 1e-300}},
                     pref::Scenario{{-0.0, 99.99999999999999}}});
  p.pairs.push_back({pref::Scenario{{5, 10}}, pref::Scenario{{2.5e7, 0.1}}});
  return p;
}

// Encodes `snap`, replaces its @synth section from its pending line on with
// `tail`, and reseals the envelope (section length, payload length and
// CRC), so decode reaches the @synth parser with exactly those bytes.
std::string with_pending_tail(const Snapshot& snap, const std::string& tail) {
  const std::string bytes = encode(snap);
  const std::size_t manifest_begin = bytes.find('\n') + 1;
  const std::size_t payload_begin = bytes.find('\n', manifest_begin) + 1;
  const std::string manifest =
      bytes.substr(manifest_begin, payload_begin - manifest_begin - 1);
  const std::string payload = bytes.substr(payload_begin);
  const std::size_t body_begin = payload.find('\n') + 1;  // "@synth <n>\n"
  const std::size_t body_size =
      std::stoul(payload.substr(7, body_begin - 8));
  std::string body = payload.substr(body_begin, body_size);
  body = body.substr(0, body.find("pending ")) + tail;
  const std::string resealed_payload = "@synth " + std::to_string(body.size()) +
                                       "\n" + body +
                                       payload.substr(body_begin + body_size);
  const std::string resealed_manifest =
      manifest.substr(0, manifest.find("\"payload_bytes\"")) +
      "\"payload_bytes\":" + std::to_string(resealed_payload.size()) +
      ",\"payload_crc32\":\"" +
      util::crc32_hex(util::crc32(resealed_payload)) + "\"}";
  return bytes.substr(0, manifest_begin) + resealed_manifest + "\n" +
         resealed_payload;
}

TEST(Snapshot, PendingPairsRoundTripByteIdentically) {
  Snapshot snap = sample_snapshot();
  snap.state.pending = sample_pending();
  const std::string bytes = encode(snap);
  ASSERT_NE(bytes.find("\npending "), std::string::npos);
  const Snapshot back = decode(bytes);
  EXPECT_EQ(back.state.pending.solver_seconds, snap.state.pending.solver_seconds);
  ASSERT_EQ(back.state.pending.pairs.size(), snap.state.pending.pairs.size());
  for (std::size_t i = 0; i < snap.state.pending.pairs.size(); ++i) {
    const solver::DistinguishingPair& want = snap.state.pending.pairs[i];
    const solver::DistinguishingPair& got = back.state.pending.pairs[i];
    EXPECT_EQ(got.preferred_by_a.metrics, want.preferred_by_a.metrics);
    EXPECT_EQ(got.preferred_by_b.metrics, want.preferred_by_b.metrics);
  }
  EXPECT_TRUE(std::signbit(back.state.pending.pairs[0].preferred_by_b.metrics[0]));
  EXPECT_EQ(encode(back), bytes);
  // The resealing helper reproduces a valid encoding byte for byte.
  const std::size_t line = bytes.find("pending ");
  EXPECT_EQ(with_pending_tail(snap, bytes.substr(line, bytes.find('\n', line) -
                                                           line + 1)),
            bytes);

  // No pending pairs: no line is written and none is read back.
  const std::string plain = encode(sample_snapshot());
  EXPECT_EQ(plain.find("pending"), std::string::npos);
  EXPECT_TRUE(decode(plain).state.pending.pairs.empty());
}

TEST(Snapshot, RejectsMalformedPendingLines) {
  Snapshot snap = sample_snapshot();
  snap.state.pending = sample_pending();
  // Each declares (or should declare) 1 pair of 2 metrics.
  const std::vector<std::string> tails = {
      "pending\n",
      "pending 0.5 1 2\n",
      "pending 0.5 1 2 1 2 3\n",
      "pending 0.5 1 2 1 2 3 4 5\n",
      "pending 0.5 -1 2 1 2 3 4\n",
      "pending 0.5 1 -2 1 2 3 4\n",
      "pending 0.5 0 2\n",
      "pending 0.5 4611686018427387904 2 1 2 3 4\n",
      "pending 0.5 99999999999999999999 2 1 2 3 4\n",
      "pending 0.5 1 2 1 x 3 4\n",
      "pending 0.5 1 2 1 2 3 nan\n",
      "pending 0.5 1 2 1 2 3 inf\n",
      "pending -0.5 1 2 1 2 3 4\n",
      "pending 1e-1 1 2 1 2 3 4\n",
      "pending 0.5 1 2 1  2 3 4\n",
      "pending 0.5 1 2 1 2 3 4",
      "pending 0.5 1 2 1 2 3 4\npending 0.5 1 2 1 2 3 4\n",
      "pending 0.5 1 2 1 2 3 4\nextra\n",
      "bogus 1\n",
  };
  for (const std::string& tail : tails) {
    EXPECT_THROW(decode(with_pending_tail(snap, tail)), SnapshotError)
        << "tail: " << tail;
  }
  EXPECT_NO_THROW(decode(with_pending_tail(snap, "pending 0.5 1 2 1 2 3 4\n")));
}

// The seeded mutator of the pending line: every truncation and a set of
// single-byte substitutions, each resealed so the CRC passes. Each must
// either fail with SnapshotError or decode to a state that re-encodes to
// exactly the mutated bytes.
TEST(Snapshot, PendingLineMutationsFailTypedOrReencodeIdentically) {
  Snapshot snap = sample_snapshot();
  snap.state.pending = sample_pending();
  const std::string bytes = encode(snap);
  const std::size_t at = bytes.find("pending ");
  const std::string line = bytes.substr(at, bytes.find('\n', at) - at + 1);

  std::vector<std::string> tails;
  for (std::size_t cut = 0; cut < line.size(); ++cut) {
    tails.push_back(line.substr(0, cut));
  }
  for (std::size_t i = 0; i < line.size(); ++i) {
    for (const char c : std::string("09-.+ex \n")) {
      if (line[i] == c) continue;
      std::string mutated = line;
      mutated[i] = c;
      tails.push_back(mutated);
    }
  }
  int decoded = 0;
  for (const std::string& tail : tails) {
    const std::string mutated = with_pending_tail(snap, tail);
    try {
      const Snapshot back = decode(mutated);
      ++decoded;
      EXPECT_EQ(encode(back), mutated) << "tail: " << tail;
    } catch (const SnapshotError&) {
    }
  }
  EXPECT_GT(decoded, 0);  // digit substitutions are valid, different values
  // Truncating the whole file anywhere fails the envelope checks.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW(decode(bytes.substr(0, cut)), SnapshotError) << "cut " << cut;
  }
}

// Pending pairs must fit the resuming run: another arity than the sketch's
// metrics, or more pairs than pairs_per_iteration, is refused before the
// loop asks anything.
TEST(SessionResume, RejectsPendingPairsThatDoNotFitTheRun) {
  const auto& sk = sketch::swan_sketch();
  synth::SynthesisConfig config;
  config.seed = 11;
  std::optional<synth::SessionState> first;
  config.checkpoint = [&](const synth::SessionState& st) {
    if (!first) first = st;
  };
  LoggingOracle capture(sk, sketch::swan_target(), config.finder.tie_tolerance);
  synth::make_grid_synthesizer(sk, config).run(capture);
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->pending.pairs.size(), 1u);
  config.checkpoint = nullptr;

  const auto resume = [&](synth::SessionState st, bool refused) {
    LoggingOracle user(sk, sketch::swan_target(), config.finder.tie_tolerance);
    synth::Synthesizer s = synth::make_grid_synthesizer(sk, config);
    if (refused) {
      EXPECT_THROW(s.resume(user, std::move(st)), std::invalid_argument);
      EXPECT_TRUE(user.log.empty());
    } else {
      EXPECT_EQ(s.resume(user, std::move(st)).status,
                synth::SynthesisStatus::kConverged);
    }
  };
  synth::SessionState wide = *first;
  wide.pending.pairs[0].preferred_by_b.metrics.push_back(1);
  resume(wide, true);
  synth::SessionState narrow = *first;
  narrow.pending.pairs[0].preferred_by_a.metrics.pop_back();
  resume(narrow, true);
  synth::SessionState extra = *first;
  extra.pending.pairs.push_back(extra.pending.pairs[0]);
  resume(extra, true);

  // Through the bytes: the reader does not know the sketch, so a 3-metric
  // pending line decodes, and resume refuses it.
  Snapshot snap;
  snap.state = *first;
  resume(decode(with_pending_tail(snap, "pending 0.5 1 3 1 2 3 4 5 6\n")).state,
         true);
  resume(decode(encode(snap)).state, false);
}

TEST(Snapshot, WriteReadFileRoundTrip) {
  const std::string dir = testing::TempDir() + "compsynth_snapshot_rt";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/one" + kSnapshotExtension;
  const Snapshot snap = sample_snapshot();
  write_file(snap, path);
  const Snapshot back = read_file(path);
  EXPECT_EQ(encode(back), encode(snap));
  EXPECT_THROW(read_file(dir + "/missing.csnap"), SnapshotError);
}

// ---------------------------------------------------------------------------
// Checkpoint manager: retention and recovery ordering.

TEST(CheckpointManager, RecoversLatestValidSnapshotOverCorrupt) {
  const std::string dir = testing::TempDir() + "compsynth_recover";
  std::filesystem::remove_all(dir);
  CheckpointConfig config;
  config.directory = dir;
  CheckpointManager manager(config);

  Snapshot snap = sample_snapshot();
  snap.meta.iteration = snap.state.iterations = 1;
  manager.write(snap);
  snap.meta.iteration = snap.state.iterations = 2;
  const std::string good = manager.write(snap);
  snap.meta.iteration = snap.state.iterations = 3;
  const std::string newest = manager.write(snap);

  // Corrupt the newest file (simulated torn write at the final path).
  {
    std::ifstream in(newest, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream out(newest, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
  }

  std::string recovered_path;
  std::vector<std::string> corrupt;
  const auto recovered =
      CheckpointManager::recover_latest(dir, &recovered_path, &corrupt);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->meta.iteration, 2);
  EXPECT_EQ(recovered_path, good);
  ASSERT_EQ(corrupt.size(), 1u);
  EXPECT_EQ(corrupt[0], newest);
}

TEST(CheckpointManager, RetentionKeepsNewest) {
  const std::string dir = testing::TempDir() + "compsynth_retention";
  std::filesystem::remove_all(dir);
  CheckpointConfig config;
  config.directory = dir;
  config.keep = 2;
  CheckpointManager manager(config);
  Snapshot snap = sample_snapshot();
  for (int i = 1; i <= 5; ++i) {
    snap.meta.iteration = snap.state.iterations = i;
    manager.write(snap);
  }
  const auto files = manager.list();
  ASSERT_EQ(files.size(), 2u);
  EXPECT_NE(files[0].find("-000004"), std::string::npos);
  EXPECT_NE(files[1].find("-000005"), std::string::npos);
}

TEST(CheckpointManager, EndToEndCheckpointHookAndResume) {
  // Wire the real hook: run with a manager writing every snapshot, recover
  // the latest from disk, resume, and demand the reference objective.
  const std::string dir = testing::TempDir() + "compsynth_hook_resume";
  std::filesystem::remove_all(dir);
  const auto& sk = sketch::swan_sketch();
  const auto target = sketch::swan_target();

  synth::SynthesisConfig config;
  config.seed = 29;
  config.max_iterations = 300;

  oracle::GroundTruthOracle ref_user(sk, target, config.finder.tie_tolerance);
  synth::Synthesizer ref_synth = synth::make_grid_synthesizer(sk, config);
  const synth::SynthesisResult ref = ref_synth.run(ref_user);
  ASSERT_EQ(ref.status, synth::SynthesisStatus::kConverged);

  CheckpointConfig ck;
  ck.directory = dir;
  ck.keep = 3;
  CheckpointManager manager(ck);
  SnapshotMeta meta;
  meta.sketch = sk.name();
  meta.backend = "grid";
  meta.seed = config.seed;

  // "Crash" by iteration budget: stop after 3 iterations, leaving
  // checkpoints on disk.
  synth::SynthesisConfig crash_config = config;
  crash_config.max_iterations = 3;
  crash_config.checkpoint = checkpoint_hook(manager, meta);
  oracle::GroundTruthOracle crash_user(sk, target, config.finder.tie_tolerance);
  synth::Synthesizer crash_synth =
      synth::make_grid_synthesizer(sk, crash_config);
  (void)crash_synth.run(crash_user);
  ASSERT_FALSE(manager.list().empty());

  const auto recovered = CheckpointManager::recover_latest(dir);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->meta.sketch, sk.name());

  oracle::GroundTruthOracle user(sk, target, config.finder.tie_tolerance);
  synth::Synthesizer s = synth::make_grid_synthesizer(sk, config);
  const synth::SynthesisResult r = s.resume(user, recovered->state);
  ASSERT_EQ(r.status, synth::SynthesisStatus::kConverged);
  EXPECT_EQ(r.objective->index, ref.objective->index);
}

}  // namespace
}  // namespace compsynth::session
