// Reader mutations: every record this program writes and later reads back —
// the snapshot manifest and @synth section, a served session's session.json
// and done.json, protocol create/next/answer requests, and wire shard
// requests and responses — gets each integer field replaced by -1, 1.5,
// 1e300, 2^53+1, a string, and nothing. Each case must fail with that
// reader's typed error naming the field (an absent optional protocol field
// keeps its default instead), and every record a reader accepts must render
// back to the same bytes. Behaviour is asserted directly: no cast of an
// out-of-range double is left for a sanitizer to catch.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "dist/wire.h"
#include "obs/json.h"
#include "serve/protocol.h"
#include "serve/session_host.h"
#include "session/checkpoint.h"
#include "session/snapshot.h"
#include "sketch/library.h"
#include "util/checksum.h"

namespace compsynth {
namespace {

// The integer mutations; nullopt removes the key.
const std::vector<std::optional<std::string>> kBadIntegers = {
    "-1", "1.5", "1e300", "9007199254740993", "\"7\"", std::nullopt};

// `line` (one flat JSON object whose `key` holds a number) with that value
// replaced by the raw JSON text `value`, or the key removed when nullopt.
std::string mutate(const std::string& line, const std::string& key,
                   const std::optional<std::string>& value) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  EXPECT_NE(at, std::string::npos) << key << " not in " << line;
  const std::size_t begin = at + needle.size();
  const std::size_t end = line.find_first_of(",}", begin);
  std::string out = line;
  if (value) return out.replace(begin, end - begin, *value);
  if (line[at - 1] == ',') return out.erase(at - 1, end - at + 1);
  return out.erase(at, end - at + 1);  // first key: drop its trailing comma
}

std::string describe(const std::optional<std::string>& value) {
  return value ? *value : "(absent)";
}

bool names(const std::string& message, const std::string& key) {
  return message.find("'" + key + "'") != std::string::npos;
}

std::string read_all(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_all(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

// --- snapshot --------------------------------------------------------------

session::Snapshot sample_snapshot() {
  session::Snapshot snap;
  snap.meta.sketch = "swan";
  snap.meta.backend = "grid";
  snap.meta.seed = 42;
  snap.meta.run_id = "r";
  snap.meta.iteration = 2;
  snap.state.iterations = 2;
  snap.state.transcript.push_back({1, 0.5, 1, 1, 0});
  snap.state.transcript.push_back({2, 0.25, 1, 0, 1});
  snap.state.finder_state = "finder";
  snap.state.oracle_state = "oracle";
  return snap;
}

// Snapshot bytes with the given @synth body and a manifest that matches it.
std::string sealed(const std::string& synth_body) {
  const std::string payload = "@synth " + std::to_string(synth_body.size()) +
                              "\n" + synth_body +
                              "\n@graph 32\n# compsynth preference graph v1\n"
                              "\n@finder 1\nf\n@oracle 1\no\n@cache 0\n\n";
  obs::JsonWriter m;
  m.integer("v", 2).str("sketch", "swan").str("backend", "grid");
  m.integer("seed", 1).integer("iteration", 0).str("run", "r");
  m.integer("payload_bytes", static_cast<long long>(payload.size()));
  m.str("payload_crc32", util::crc32_hex(util::crc32(payload)));
  return "COMPSYNTH-SNAPSHOT 2\n" + m.done() + "\n" + payload;
}

const char kEmptySynth[] =
    "tolerant 0\niterations 0\ninteractions 0\nrepair_rounds 0\n"
    "total_solver_seconds 0\noracle_comparisons 0\ntranscript 0\n";

TEST(ReaderMutation, ManifestIntegersFailNamingTheField) {
  const std::string bytes = session::encode(sample_snapshot());
  // Byte-identical to what the hand-written manifest encoder wrote before
  // JsonWriter took over (the same payload, so the same length and CRC).
  const std::size_t eol = bytes.find('\n', bytes.find('\n') + 1);
  const std::string manifest = bytes.substr(0, eol);
  EXPECT_EQ(manifest,
            "COMPSYNTH-SNAPSHOT 2\n{\"v\":2,\"sketch\":\"swan\",\"backend\":"
            "\"grid\",\"seed\":42,\"iteration\":2,\"run\":\"r\","
            "\"payload_bytes\":242,\"payload_crc32\":\"fe37993c\"}");
  EXPECT_EQ(session::encode(session::decode(bytes)), bytes);

  for (const char* key : {"v", "seed", "iteration", "payload_bytes"}) {
    for (const auto& value : kBadIntegers) {
      const std::string bad = mutate(manifest, key, value) + bytes.substr(eol);
      try {
        session::decode(bad);
        ADD_FAILURE() << key << "=" << describe(value) << " was accepted";
      } catch (const session::SnapshotError& e) {
        EXPECT_TRUE(names(e.what(), key))
            << key << "=" << describe(value) << ": " << e.what();
      }
    }
  }
  // In range for the field but not for this file: v must match line 1.
  EXPECT_THROW(session::decode(mutate(manifest, "v", "1") + bytes.substr(eol)),
               session::SnapshotError);
  // The largest manifest seed round-trips; encode refuses anything above it.
  session::Snapshot big = sample_snapshot();
  big.meta.seed = 1ULL << 53;
  const std::string big_bytes = session::encode(big);
  EXPECT_EQ(session::decode(big_bytes).meta.seed, 1ULL << 53);
  EXPECT_EQ(session::encode(session::decode(big_bytes)), big_bytes);
  big.meta.seed = (1ULL << 53) + 1;
  EXPECT_THROW(session::encode(big), session::SnapshotError);
}

TEST(ReaderMutation, AbsurdTranscriptCountIsASnapshotErrorAndRecoveryFallsBack) {
  const std::string good = sealed(kEmptySynth);
  EXPECT_EQ(session::encode(session::decode(good)), good);
  std::string synth = kEmptySynth;
  synth.replace(synth.find("transcript 0"), 12, "transcript 99999999999999");
  const std::string bad = sealed(synth);
  EXPECT_THROW(session::decode(bad), session::SnapshotError);

  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "reader_mutation_recover";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  write_all(dir / "session-000001.csnap", good);
  write_all(dir / "session-000002.csnap", bad);
  std::string path;
  std::vector<std::string> corrupt;
  const std::optional<session::Snapshot> snap =
      session::CheckpointManager::recover_latest(dir.string(), &path, &corrupt);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(std::filesystem::path(path).filename(), "session-000001.csnap");
  ASSERT_EQ(corrupt.size(), 1u);
  EXPECT_EQ(std::filesystem::path(corrupt[0]).filename(),
            "session-000002.csnap");
  std::filesystem::remove_all(dir);
}

// --- session.json / done.json ----------------------------------------------

class HostFiles : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::path(::testing::TempDir()) /
            ("reader_mutation_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    std::filesystem::remove_all(root_);
    serve::HostConfig hc;
    hc.root = root_.string();
    host_.emplace(hc);
    host_->register_sketch(sketch::swan_sketch());
    serve::CreateParams params;
    params.id = "m";
    params.seed = 7;
    ASSERT_TRUE(host_->create(params).ok);
    serve::SessionView view;
    ASSERT_TRUE(host_->next("m", 30000, &view).ok);
    ASSERT_EQ(view.phase, serve::SessionPhase::kWaiting) << view.error;
    ASSERT_TRUE(host_->evict("m").ok);
  }
  void TearDown() override {
    host_.reset();
    std::filesystem::remove_all(root_);
  }

  std::filesystem::path root_;
  std::optional<serve::SessionHost> host_;
};

TEST_F(HostFiles, SessionJsonIntegersFailNamingTheField) {
  const std::filesystem::path file = root_ / "m" / "session.json";
  const std::string original = read_all(file);
  // Byte-identical to what earlier builds wrote for this create.
  EXPECT_EQ(original,
            "{\"v\":1,\"id\":\"m\",\"sketch\":\"swan\",\"backend\":\"grid\","
            "\"seed\":7,\"initial\":5,\"pairs\":1,\"max_iters\":500}\n");
  const std::string line = original.substr(0, original.size() - 1);
  for (const char* key : {"v", "seed", "initial", "pairs", "max_iters"}) {
    for (const auto& value : kBadIntegers) {
      write_all(file, mutate(line, key, value) + "\n");
      serve::SessionView view;
      const serve::HostResult r = host_->next("m", 0, &view);
      EXPECT_FALSE(r.ok) << key << "=" << describe(value);
      EXPECT_EQ(r.code, serve::kErrInternal);
      EXPECT_TRUE(names(r.message, key))
          << key << "=" << describe(value) << ": " << r.message;
    }
  }
  write_all(file, original);
  serve::SessionView view;
  EXPECT_TRUE(host_->next("m", 30000, &view).ok);
  EXPECT_EQ(read_all(file), original);
}

TEST_F(HostFiles, DoneJsonIntegersFailNamingTheField) {
  const std::filesystem::path file = root_ / "m" / "done.json";
  obs::JsonWriter w;
  w.integer("v", 1).str("status", "converged").str("objective", "x");
  const std::string line = w.integer("iterations", 3).integer("answers", 4).done();
  write_all(file, line + "\n");
  serve::SessionView view;
  ASSERT_TRUE(host_->inspect("m", &view).ok) << line;
  EXPECT_EQ(view.phase, serve::SessionPhase::kDone);
  EXPECT_EQ(view.status, "converged");
  EXPECT_EQ(view.iterations, 3);
  EXPECT_EQ(view.answers, 0);
  for (const char* key : {"v", "iterations", "answers"}) {
    for (const auto& value : kBadIntegers) {
      write_all(file, mutate(line, key, value) + "\n");
      const serve::HostResult r = host_->inspect("m", &view);
      EXPECT_FALSE(r.ok) << key << "=" << describe(value);
      EXPECT_EQ(r.code, serve::kErrInternal);
      EXPECT_TRUE(names(r.message, key))
          << key << "=" << describe(value) << ": " << r.message;
      // Rehydration reads it with the same reader.
      const serve::HostResult n = host_->next("m", 0, &view);
      EXPECT_FALSE(n.ok);
      EXPECT_TRUE(names(n.message, key)) << n.message;
    }
  }
}

// --- protocol --------------------------------------------------------------

TEST(ReaderMutation, ProtocolIntegersFailNamingTheFieldOrKeepTheirDefault) {
  serve::Request create;
  create.verb = serve::Verb::kCreate;
  create.session = "s";
  create.seed = 7;
  const std::string create_line = serve::render_request(create);
  serve::Request next;
  next.verb = serve::Verb::kNext;
  next.session = "s";
  next.wait_ms = 100;
  const std::string next_line = serve::render_request(next);
  serve::Request answer;
  answer.verb = serve::Verb::kAnswer;
  answer.session = "s";
  answer.index = 3;
  answer.answer = oracle::Preference::kFirst;
  const std::string answer_line = serve::render_request(answer);
  for (const std::string* line : {&create_line, &next_line, &answer_line}) {
    const auto parsed = serve::parse_request(*line);
    ASSERT_TRUE(std::holds_alternative<serve::Request>(parsed)) << *line;
    EXPECT_EQ(serve::render_request(std::get<serve::Request>(parsed)), *line);
  }

  const serve::Request defaults;
  const struct {
    const std::string* line;
    const char* key;
    const char* code;
    long long fallback;  // the default an absent optional field keeps
  } cases[] = {
      {&create_line, "seed", serve::kErrField, static_cast<long long>(defaults.seed)},
      {&create_line, "initial", serve::kErrField, defaults.initial},
      {&create_line, "pairs", serve::kErrField, defaults.pairs},
      {&create_line, "max_iters", serve::kErrField, defaults.max_iters},
      {&next_line, "wait_ms", serve::kErrField, defaults.wait_ms},
      {&answer_line, "index", serve::kErrIndex, -1},
  };
  for (const auto& c : cases) {
    for (const auto& value : kBadIntegers) {
      const auto parsed = serve::parse_request(mutate(*c.line, c.key, value));
      if (!value && c.fallback >= 0) {
        ASSERT_TRUE(std::holds_alternative<serve::Request>(parsed)) << c.key;
        const serve::Request& r = std::get<serve::Request>(parsed);
        const long long kept = std::string(c.key) == "seed"
                                   ? static_cast<long long>(r.seed)
                               : std::string(c.key) == "initial" ? r.initial
                               : std::string(c.key) == "pairs"   ? r.pairs
                               : std::string(c.key) == "max_iters"
                                   ? r.max_iters
                                   : r.wait_ms;
        EXPECT_EQ(kept, c.fallback) << c.key;
        continue;
      }
      ASSERT_TRUE(std::holds_alternative<serve::ParseError>(parsed))
          << c.key << "=" << describe(value);
      const serve::ParseError& e = std::get<serve::ParseError>(parsed);
      EXPECT_EQ(e.code, c.code) << c.key << "=" << describe(value);
      EXPECT_TRUE(names(e.message, c.key))
          << c.key << "=" << describe(value) << ": " << e.message;
    }
  }
}

// --- wire ------------------------------------------------------------------

TEST(ReaderMutation, WireShardIntegersFailNamingTheField) {
  dist::ShardRequest req;
  req.job = "j";
  req.shard = 2;
  req.lo = 10;
  req.hi = 20;
  req.sketch = "sketch text";
  req.graph = "graph text";
  const std::string request = dist::render_shard_request(req);
  const auto ok = dist::parse_wire_request(request);
  ASSERT_TRUE(std::holds_alternative<dist::WireRequest>(ok));
  EXPECT_EQ(dist::render_shard_request(std::get<dist::WireRequest>(ok).shard),
            request);

  const std::string blob = "shard 2 10 20 0 ";
  const auto response_line = [&](long long count) {
    obs::JsonWriter w;
    w.integer("v", dist::kWireVersion).boolean("ok", true).str("verb", "shard");
    w.str("job", "j").integer("shard", 2).integer("lo", 10).integer("hi", 20);
    w.integer("count", count).str("crc", util::crc32_hex(util::crc32(blob)));
    return w.str("blob", blob).num("secs", 0.5).done();
  };
  const std::string response = response_line(0);
  std::string why;
  const std::optional<dist::ShardResponse> parsed =
      dist::parse_shard_response(response, &why);
  ASSERT_TRUE(parsed.has_value()) << why;
  EXPECT_EQ(response_line(parsed->count), response);

  for (const char* key : {"shard", "lo", "hi"}) {
    for (const auto& value : kBadIntegers) {
      const auto r = dist::parse_wire_request(mutate(request, key, value));
      ASSERT_TRUE(std::holds_alternative<serve::ParseError>(r))
          << key << "=" << describe(value);
      const serve::ParseError& e = std::get<serve::ParseError>(r);
      EXPECT_EQ(e.code, serve::kErrField);
      EXPECT_TRUE(names(e.message, key))
          << key << "=" << describe(value) << ": " << e.message;
    }
  }
  for (const char* key : {"shard", "lo", "hi", "count"}) {
    for (const auto& value : kBadIntegers) {
      why.clear();
      EXPECT_FALSE(
          dist::parse_shard_response(mutate(response, key, value), &why))
          << key << "=" << describe(value);
      EXPECT_TRUE(names(why, key)) << key << "=" << describe(value) << ": "
                                   << why;
    }
  }
}

}  // namespace
}  // namespace compsynth
