// Golden-trace test: run a tiny grid-backend synthesis with a file sink and
// validate the JSONL trace end to end against the v1 schema
// (docs/OBSERVABILITY.md) — event sequence, required keys per event type,
// monotone timestamps, and cross-checks against the metrics registry and
// the SynthesisResult — plus a served session's answer spans (rehydrate,
// advance, answers.log append) and trace_report's rendering of them.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/run_context.h"
#include "obs/trace.h"
#include "oracle/ground_truth.h"
#include "serve/session_host.h"
#include "sketch/library.h"
#include "synth/synthesizer.h"

namespace compsynth {
namespace {

using obs::JsonObject;
using obs::JsonValue;

void require_key(const JsonObject& obj, const std::string& key,
                 JsonValue::Kind kind, const std::string& context) {
  const auto it = obj.find(key);
  ASSERT_NE(it, obj.end()) << context << ": missing key '" << key << "'";
  ASSERT_EQ(static_cast<int>(it->second.kind), static_cast<int>(kind))
      << context << ": key '" << key << "' has wrong type";
}

double num(const JsonObject& obj, const std::string& key) {
  return obj.at(key).num;
}

class TraceGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest -j runs each TEST_F as its own process, and a
    // shared filename would let one test's TearDown delete the file another
    // is still reading.
    path_ = ::testing::TempDir() + "/golden_trace_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".jsonl";

    obs::FileTraceSink sink(path_);
    synth::SynthesisConfig config;
    config.seed = 11;
    config.obs.metrics = &metrics_;
    config.obs.tracer = &sink;
    config.obs.run_id = "golden";
    config.obs.seed = config.seed;

    const auto& sk = sketch::swan_sketch();
    synth::Synthesizer synthesizer = synth::make_grid_synthesizer(sk, config);
    oracle::GroundTruthOracle user(sk, sketch::swan_target(),
                                   config.finder.tie_tolerance);
    result_ = synthesizer.run(user);
    ASSERT_EQ(result_.status, synth::SynthesisStatus::kConverged);

    // Sink is destroyed here; read the finished file back.
    std::ifstream in(path_);
    ASSERT_TRUE(in.good());
    std::string line;
    while (std::getline(in, line)) {
      const auto obj = obs::parse_flat_json(line);
      ASSERT_TRUE(obj.has_value()) << "unparseable trace line: " << line;
      records_.push_back(*obj);
    }
    ASSERT_GE(records_.size(), 3u);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
  obs::MetricsRegistry metrics_;
  synth::SynthesisResult result_;
  std::vector<JsonObject> records_;
};

TEST_F(TraceGoldenTest, EnvelopeOnEveryRecord) {
  double last_ts = -1;
  for (const JsonObject& r : records_) {
    require_key(r, "v", JsonValue::Kind::kNumber, "envelope");
    require_key(r, "ts", JsonValue::Kind::kNumber, "envelope");
    require_key(r, "run", JsonValue::Kind::kString, "envelope");
    require_key(r, "ev", JsonValue::Kind::kString, "envelope");
    EXPECT_EQ(num(r, "v"), obs::kTraceSchemaVersion);
    EXPECT_EQ(r.at("run").str, "golden");
    EXPECT_FALSE(r.at("ev").str.empty());
    EXPECT_GE(num(r, "ts"), last_ts) << "timestamps must be monotone";
    last_ts = num(r, "ts");
  }
}

TEST_F(TraceGoldenTest, RunStartOpensAndRunEndCloses) {
  const JsonObject& start = records_.front();
  ASSERT_EQ(start.at("ev").str, "run_start");
  require_key(start, "sketch", JsonValue::Kind::kString, "run_start");
  require_key(start, "seed", JsonValue::Kind::kNumber, "run_start");
  require_key(start, "initial_scenarios", JsonValue::Kind::kNumber, "run_start");
  require_key(start, "pairs_per_iteration", JsonValue::Kind::kNumber, "run_start");
  require_key(start, "max_iterations", JsonValue::Kind::kNumber, "run_start");
  EXPECT_EQ(num(start, "seed"), 11);

  const JsonObject& end = records_.back();
  ASSERT_EQ(end.at("ev").str, "run_end");
  require_key(end, "status", JsonValue::Kind::kString, "run_end");
  require_key(end, "iterations", JsonValue::Kind::kNumber, "run_end");
  require_key(end, "interactions", JsonValue::Kind::kNumber, "run_end");
  require_key(end, "oracle_comparisons", JsonValue::Kind::kNumber, "run_end");
  require_key(end, "total_solver_seconds", JsonValue::Kind::kNumber, "run_end");
  EXPECT_EQ(end.at("status").str, "converged");
  EXPECT_EQ(num(end, "iterations"), result_.iterations);
  EXPECT_EQ(num(end, "interactions"), result_.interactions);
  EXPECT_EQ(num(end, "oracle_comparisons"), result_.oracle_comparisons);

  // run_start / run_end appear exactly once each.
  int starts = 0, ends = 0;
  for (const JsonObject& r : records_) {
    if (r.at("ev").str == "run_start") ++starts;
    if (r.at("ev").str == "run_end") ++ends;
  }
  EXPECT_EQ(starts, 1);
  EXPECT_EQ(ends, 1);
}

TEST_F(TraceGoldenTest, IterationEventsAreContiguousAndComplete) {
  long long expected_index = 1;
  for (const JsonObject& r : records_) {
    if (r.at("ev").str != "iteration") continue;
    require_key(r, "index", JsonValue::Kind::kNumber, "iteration");
    require_key(r, "secs", JsonValue::Kind::kNumber, "iteration");
    require_key(r, "status", JsonValue::Kind::kString, "iteration");
    require_key(r, "pairs_presented", JsonValue::Kind::kNumber, "iteration");
    require_key(r, "edges_added", JsonValue::Kind::kNumber, "iteration");
    require_key(r, "ties_added", JsonValue::Kind::kNumber, "iteration");
    require_key(r, "vertices", JsonValue::Kind::kNumber, "iteration");
    require_key(r, "edges", JsonValue::Kind::kNumber, "iteration");
    require_key(r, "ties", JsonValue::Kind::kNumber, "iteration");
    EXPECT_EQ(num(r, "index"), expected_index);
    ++expected_index;
  }
  EXPECT_EQ(expected_index - 1, result_.iterations);
}

TEST_F(TraceGoldenTest, GridSyncSurvivorsNeverGrow) {
  double last_survivors = -1;
  int syncs = 0;
  for (const JsonObject& r : records_) {
    if (r.at("ev").str != "grid_sync") continue;
    ++syncs;
    require_key(r, "mode", JsonValue::Kind::kString, "grid_sync");
    require_key(r, "survivors", JsonValue::Kind::kNumber, "grid_sync");
    require_key(r, "secs", JsonValue::Kind::kNumber, "grid_sync");
    const double survivors = num(r, "survivors");
    if (last_survivors >= 0) {
      EXPECT_LE(survivors, last_survivors)
          << "version space must only shrink as constraints accumulate";
    }
    last_survivors = survivors;
  }
  EXPECT_GT(syncs, 0);
  // Convergence means the surviving candidates all rank identically; the
  // final sync must have at least one survivor left.
  EXPECT_GE(last_survivors, 1);
}

TEST_F(TraceGoldenTest, PairSearchAndOracleAndPrefEventsCarryTheirKeys) {
  int pair_searches = 0, compares = 0, pref_edges = 0;
  for (const JsonObject& r : records_) {
    const std::string& ev = r.at("ev").str;
    if (ev == "pair_search") {
      ++pair_searches;
      require_key(r, "status", JsonValue::Kind::kString, "pair_search");
      require_key(r, "survivors", JsonValue::Kind::kNumber, "pair_search");
      require_key(r, "strategy", JsonValue::Kind::kString, "pair_search");
      require_key(r, "secs", JsonValue::Kind::kNumber, "pair_search");
    } else if (ev == "oracle_query") {
      require_key(r, "kind", JsonValue::Kind::kString, "oracle_query");
      require_key(r, "index", JsonValue::Kind::kNumber, "oracle_query");
      if (r.at("kind").str == "compare") {
        ++compares;
        require_key(r, "answer", JsonValue::Kind::kString, "oracle_query");
      } else {
        require_key(r, "batch", JsonValue::Kind::kNumber, "oracle_query");
      }
    } else if (ev == "pref_edge") {
      ++pref_edges;
      require_key(r, "kind", JsonValue::Kind::kString, "pref_edge");
      require_key(r, "result", JsonValue::Kind::kString, "pref_edge");
    }
  }
  // One pair_search per iteration (the grid finder's query path).
  EXPECT_EQ(pair_searches, result_.iterations);
  // Pairwise answers during the loop (the seed ranking counts separately).
  EXPECT_GT(compares, 0);
  EXPECT_GT(pref_edges, 0);
}

TEST_F(TraceGoldenTest, MetricsAgreeWithTrace) {
  int compares = 0, syncs = 0, iterations = 0;
  for (const JsonObject& r : records_) {
    const std::string& ev = r.at("ev").str;
    if (ev == "oracle_query" && r.at("kind").str == "compare") ++compares;
    if (ev == "grid_sync") ++syncs;
    if (ev == "iteration") ++iterations;
  }
  EXPECT_EQ(metrics_.counter("oracle.comparisons").value(), compares);
  EXPECT_EQ(metrics_.counter("grid.syncs").value(), syncs);
  EXPECT_EQ(metrics_.counter("synth.iterations").value(), iterations);
  EXPECT_EQ(metrics_.histogram("grid_sync.seconds").count(), syncs);
  EXPECT_EQ(metrics_.histogram("iteration.solver_seconds").count(), iterations);
  EXPECT_GT(metrics_.counter("pref.edges.added").value(), 0);
}

// A served session, swapped out after every answer, traced through the
// host's sink. The spans that split an answer (schema 1.11) carry their
// keys, and the advances run one finder query per iteration in total: a
// rehydrating advance asks the pending pair from the snapshot. Since 1.12
// the rehydrate event counts no replays; trace_report's rehydration line
// reports the ones the advance spans count.
TEST(TraceGoldenServe, AnswerSpansSplitAServedAnswer) {
  const std::string path = ::testing::TempDir() + "/golden_trace_serve.jsonl";
  const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) / "golden_trace_serve_root";
  std::filesystem::remove_all(root);
  const auto& sk = sketch::swan_sketch();
  long answers = 0;
  serve::SessionView done;
  {
    obs::FileTraceSink sink(path);
    serve::HostConfig hc;
    hc.root = root.string();
    hc.obs.tracer = &sink;
    hc.obs.run_id = "serve";
    serve::SessionHost host(hc);
    host.register_sketch(sk);
    serve::CreateParams params;
    params.id = "g";
    params.seed = 11;
    ASSERT_TRUE(host.create(params).ok);
    oracle::GroundTruthOracle judge(sk, sketch::swan_target(),
                                    solver::FinderConfig{}.tie_tolerance);
    for (int step = 0; step < 2000; ++step) {
      serve::SessionView view;
      ASSERT_TRUE(host.next("g", 30000, &view).ok);
      if (view.phase == serve::SessionPhase::kDone) {
        done = view;
        break;
      }
      ASSERT_EQ(view.phase, serve::SessionPhase::kWaiting) << view.error;
      ASSERT_TRUE(host.answer("g", view.pending->index,
                              judge.compare(view.pending->a, view.pending->b))
                      .ok);
      ++answers;
      ASSERT_TRUE(host.evict("g").ok);
    }
  }
  std::filesystem::remove_all(root);
  ASSERT_EQ(done.status, "converged");

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  long rehydrates = 0, appends = 0, finder_queries = 0, iterations = 0;
  long advance_replayed = 0;
  for (std::string line; std::getline(in, line);) {
    const auto obj = obs::parse_flat_json(line);
    ASSERT_TRUE(obj.has_value()) << "unparseable trace line: " << line;
    const JsonObject& r = *obj;
    const std::string& ev = r.at("ev").str;
    if (ev == "session_rehydrate") {
      ++rehydrates;
      require_key(r, "session", JsonValue::Kind::kString, ev);
      require_key(r, "snapshot_iteration", JsonValue::Kind::kNumber, ev);
      EXPECT_EQ(r.count("replayed"), 0u) << "rehydrate counts no replays";
      require_key(r, "secs", JsonValue::Kind::kNumber, ev);
      EXPECT_GE(num(r, "secs"), 0);
    } else if (ev == "session_advance") {
      require_key(r, "session", JsonValue::Kind::kString, ev);
      require_key(r, "replayed", JsonValue::Kind::kNumber, ev);
      require_key(r, "finder_queries", JsonValue::Kind::kNumber, ev);
      require_key(r, "secs", JsonValue::Kind::kNumber, ev);
      EXPECT_EQ(r.at("run").str, "serve");
      finder_queries += static_cast<long>(num(r, "finder_queries"));
      advance_replayed += static_cast<long>(num(r, "replayed"));
    } else if (ev == "answer_append") {
      ++appends;
      require_key(r, "session", JsonValue::Kind::kString, ev);
      require_key(r, "index", JsonValue::Kind::kNumber, ev);
      require_key(r, "secs", JsonValue::Kind::kNumber, ev);
    } else if (ev == "checkpoint") {
      require_key(r, "pending", JsonValue::Kind::kNumber, ev);
      EXPECT_EQ(num(r, "pending") > 0, !r.at("final").b);
    } else if (ev == "iteration") {
      EXPECT_EQ(r.at("run").str, "g");
      ++iterations;
    }
  }
  const std::string report_path = path + ".md";
  ASSERT_EQ(std::system((std::string(COMPSYNTH_TRACE_REPORT) + " " + path +
                         " -o " + report_path + " > /dev/null")
                            .c_str()),
            0);
  std::ifstream report_in(report_path);
  std::stringstream report;
  report << report_in.rdbuf();
  std::remove(report_path.c_str());
  std::remove(path.c_str());
  const std::string rehydration_line =
      "rehydrated " + std::to_string(rehydrates) + " time(s) (" +
      std::to_string(advance_replayed) + " answer(s) replayed)";
  EXPECT_NE(report.str().find(rehydration_line), std::string::npos)
      << "expected '" << rehydration_line << "' in\n" << report.str();
  EXPECT_EQ(appends, answers);
  EXPECT_EQ(rehydrates, answers);
  EXPECT_EQ(iterations, done.iterations);
  EXPECT_EQ(finder_queries, iterations);
}

}  // namespace
}  // namespace compsynth
