// Durable sessions: snapshot round trips, torn-file rejection, recovery
// ordering, and the central differential guarantee — a run that is
// checkpointed, killed and resumed at ANY iteration boundary produces the
// same objective and the same oracle query sequence as a run that was never
// interrupted.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "oracle/ground_truth.h"
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
      : inner_(sk, target, tie_tolerance) {}

  std::vector<std::string> log;

 protected:
  oracle::Preference do_compare(const pref::Scenario& a,
                                const pref::Scenario& b) override {
    log.push_back("cmp" + scenario_key(a) + " |" + scenario_key(b));
    return inner_.compare(a, b);
  }
  oracle::RankingResponse do_rank(
      std::span<const pref::Scenario> scenarios) override {
    std::string entry = "rank";
    for (const auto& s : scenarios) entry += scenario_key(s);
    log.push_back(entry);
    return inner_.rank(scenarios);
  }
  void do_save_state(std::ostream& out) const override {
    inner_.save_state(out);
  }
  void do_restore_state(std::istream& in) override { inner_.restore_state(in); }

 private:
  oracle::GroundTruthOracle inner_;
};

// ---------------------------------------------------------------------------
// The differential kill/resume harness.

struct DifferentialCase {
  const sketch::Sketch& sketch;
  sketch::HoleAssignment target;
  std::uint64_t seed = 1;
};

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

void run_differential(const DifferentialCase& c,
                      Backend backend = Backend::kGrid) {
  synth::SynthesisConfig config;
  config.seed = c.seed;
  config.max_iterations = 300;

  // Reference: an uninterrupted run.
  LoggingOracle ref_user(c.sketch, c.target, config.finder.tie_tolerance);
  synth::Synthesizer ref_synth = make_synth(c, backend, config);
  const synth::SynthesisResult ref = ref_synth.run(ref_user);
  ASSERT_EQ(ref.status, synth::SynthesisStatus::kConverged);
  ASSERT_TRUE(ref.objective.has_value());

  // Capture: the same run with a checkpoint hook recording every
  // SessionState (and the query-log length at capture time). Checkpointing
  // must not perturb the run.
  std::vector<std::pair<synth::SessionState, std::size_t>> checkpoints;
  LoggingOracle cap_user(c.sketch, c.target, config.finder.tie_tolerance);
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

  // Kill at every mid-run iteration boundary, resume with a FRESH
  // synthesizer and a FRESH oracle, and demand the identical continuation.
  for (const auto& [state, log_len] : checkpoints) {
    if (state.iterations >= ref.iterations) continue;  // final checkpoint
    LoggingOracle user(c.sketch, c.target, config.finder.tie_tolerance);
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
