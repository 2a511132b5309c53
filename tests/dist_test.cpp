// Distributed version-space sync: the coordinator/worker path of
// docs/DISTRIBUTED.md must be a pure placement decision. Every test here
// compares GridFinder::save_state() bytes between a plain local sync and a
// sync whose full rebuild went through dist::ShardCoordinator against real
// in-process dist::Worker servers on ephemeral TCP ports — with and without
// injected worker faults (truncated blobs, stalls past the deadline, crashes
// right after an ack, connections dropped mid-response). Fault or no fault,
// worker or no worker, the serialized survivor state must be byte-identical.
//
// Also covered at the unit level: the wire protocol round-trip, transport
// CRC rejection, and the torn-shard-record contract — a `gridfinder 2` shard
// line truncated mid-bitmap is rejected by parse_shard_blob / restore_state
// with a specific error, never silently merged.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "dist/coordinator.h"
#include "dist/wire.h"
#include "dist/worker.h"
#include "obs/metrics.h"
#include "obs/run_context.h"
#include "pref/graph.h"
#include "serve/protocol.h"
#include "sketch/eval.h"
#include "sketch/library.h"
#include "sketch/printer.h"
#include "solver/grid_finder.h"
#include "util/checksum.h"
#include "util/fault.h"
#include "util/rng.h"

namespace compsynth::dist {
namespace {

// A preference graph a ground-truth user would produce: random scenarios in
// the sketch's metric box, pairwise-ranked by the target assignment.
pref::PreferenceGraph ground_truth_graph(const sketch::Sketch& sk,
                                         const sketch::HoleAssignment& target,
                                         int scenarios, std::uint64_t seed,
                                         double tie_tolerance) {
  util::Rng rng(seed);
  const std::vector<double> target_values = sk.hole_values(target);
  pref::PreferenceGraph graph;
  std::vector<pref::VertexId> ids;
  std::vector<double> scores;
  for (int i = 0; i < scenarios; ++i) {
    pref::Scenario s;
    for (const auto& m : sk.metrics()) {
      s.metrics.push_back(rng.uniform_real(m.lo, m.hi));
    }
    ids.push_back(graph.intern(s));
    scores.push_back(sketch::eval_with_values(sk, target_values, s.metrics));
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    for (std::size_t j = i + 1; j < ids.size(); ++j) {
      if (std::abs(scores[i] - scores[j]) <= tie_tolerance) {
        graph.add_tie(ids[i], ids[j]);
      } else if (scores[i] > scores[j]) {
        graph.add_preference(ids[i], ids[j]);
      } else {
        graph.add_preference(ids[j], ids[i]);
      }
    }
  }
  return graph;
}

sketch::HoleAssignment middle_assignment(const sketch::Sketch& sk) {
  sketch::HoleAssignment a;
  for (const auto& h : sk.holes()) a.index.push_back(h.count / 2);
  return a;
}

solver::GridFinderConfig base_config() {
  solver::GridFinderConfig c;
  c.threads = 1;  // determinism is free either way; keep the test lean
  return c;
}

// The single-process reference: plain local kBatch sync.
std::string local_state(const sketch::Sketch& sk,
                        const pref::PreferenceGraph& graph,
                        std::size_t* n_shards = nullptr) {
  solver::GridFinder finder(sk, base_config());
  finder.sync(graph);
  if (n_shards != nullptr) *n_shards = finder.shard_ranges().size();
  return finder.save_state();
}

struct DistOutcome {
  std::string state;
  long shards_completed = 0;
  long fallbacks = 0;
  long reissues = 0;
  long worker_failures = 0;
};

// One distributed sync: spin up a dist::Worker per fault plan on tcp:0,
// point a ShardCoordinator at them, and run a GridFinder sync through it.
DistOutcome dist_state(
    const sketch::Sketch& sk, const pref::PreferenceGraph& graph,
    const std::vector<util::FaultPlan>& worker_faults,
    const std::function<void(CoordinatorConfig&)>& tweak = {}) {
  obs::MetricsRegistry metrics;
  obs::RunContext obs;
  obs.metrics = &metrics;

  std::vector<std::unique_ptr<Worker>> workers;
  CoordinatorConfig cc;
  for (const util::FaultPlan& plan : worker_faults) {
    WorkerConfig wc;
    wc.listen = "tcp:0";
    wc.faults = plan;
    workers.push_back(std::make_unique<Worker>(wc));
    workers.back()->start();
    cc.workers.push_back(workers.back()->endpoint());
  }
  cc.sketch_text = sketch::print_sketch(sk);
  cc.tie_tolerance = base_config().base.tie_tolerance;
  cc.connect_retry.initial_backoff_s = 0;  // tests never benefit from sleeping
  cc.obs = obs;
  if (tweak) tweak(cc);
  ShardCoordinator coordinator(std::move(cc));

  solver::GridFinderConfig fc = base_config();
  fc.shard_backend = &coordinator;
  solver::GridFinder finder(sk, fc);
  finder.sync(graph);

  for (auto& w : workers) {
    w->stop();
    w->wait();
  }

  DistOutcome out;
  out.state = finder.save_state();
  out.shards_completed = metrics.counter("dist.shards_completed").value();
  out.fallbacks = metrics.counter("dist.fallbacks").value();
  out.reissues = metrics.counter("dist.reissues").value();
  out.worker_failures = metrics.counter("dist.worker_failures").value();
  return out;
}

util::FaultPlan clean_worker() { return {}; }

// ---------------------------------------------------------------------------
// Differential: distributed == local, byte for byte, across all three
// evaluation sketches, with 2 healthy workers.
// ---------------------------------------------------------------------------

void expect_distributed_equals_local(const sketch::Sketch& sk,
                                     std::uint64_t seed) {
  const pref::PreferenceGraph graph = ground_truth_graph(
      sk, middle_assignment(sk), 6, seed, base_config().base.tie_tolerance);
  std::size_t n_shards = 0;
  const std::string local = local_state(sk, graph, &n_shards);

  const DistOutcome dist =
      dist_state(sk, graph, {clean_worker(), clean_worker()});
  EXPECT_EQ(dist.state, local);
  // The comparison must not pass vacuously through the local fallback: every
  // shard has to have come over the wire.
  EXPECT_EQ(dist.fallbacks, 0);
  EXPECT_EQ(dist.shards_completed, static_cast<long>(n_shards));
}

TEST(DistDifferential, SwanMatchesLocal) {
  expect_distributed_equals_local(sketch::swan_sketch(), 11);
}

TEST(DistDifferential, AbrQoeMatchesLocal) {
  expect_distributed_equals_local(sketch::abr_qoe_sketch(), 12);
}

TEST(DistDifferential, HomenetMatchesLocal) {
  expect_distributed_equals_local(sketch::homenet_sketch(), 13);
}

// ---------------------------------------------------------------------------
// Differential under injected worker faults: one worker misbehaves
// deterministically (p = 1), its healthy peer carries the sync, and the
// merged state is still byte-identical — the faulty worker is detected,
// struck out and its shards re-dispatched.
// ---------------------------------------------------------------------------

void expect_survives_fault(const sketch::Sketch& sk,
                           const util::FaultPlan& bad_plan,
                           std::uint64_t seed,
                           const std::function<void(CoordinatorConfig&)>&
                               tweak = {}) {
  const pref::PreferenceGraph graph = ground_truth_graph(
      sk, middle_assignment(sk), 6, seed, base_config().base.tie_tolerance);
  const std::string local = local_state(sk, graph);

  const DistOutcome dist =
      dist_state(sk, graph, {bad_plan, clean_worker()}, tweak);
  EXPECT_EQ(dist.state, local);
  EXPECT_EQ(dist.fallbacks, 0) << "fault should be absorbed, not punted";
  EXPECT_GE(dist.worker_failures, 1);
}

TEST(DistFaults, TruncatedBlobIsRejectedAndRedispatched) {
  util::FaultPlan bad;
  bad.worker_truncate_p = 1.0;  // every blob torn mid-bitmap, CRC "valid"
  expect_survives_fault(sketch::swan_sketch(), bad, 21);
}

TEST(DistFaults, DroppedConnectionMidBlob) {
  util::FaultPlan bad;
  bad.worker_drop_p = 1.0;  // half the response bytes, then hang up
  expect_survives_fault(sketch::swan_sketch(), bad, 22);
}

TEST(DistFaults, StallPastDeadlineTimesOutAndRetires) {
  util::FaultPlan bad;
  bad.worker_stall_p = 1.0;
  bad.worker_stall_s = 0.6;  // far past the test deadline below
  expect_survives_fault(sketch::swan_sketch(), bad, 23,
                        [](CoordinatorConfig& cc) {
                          cc.shard_deadline_s = 0.15;
                          cc.min_straggler_s = 0.1;
                        });
}

TEST(DistFaults, CrashAfterAckIsDetectedByLaterDispatch) {
  util::FaultPlan bad;
  bad.worker_crash_after_ack_p = 1.0;  // one good answer, then the worker dies
  // Swan has ~14 shards, so the crashed worker's absence is always noticed.
  expect_survives_fault(sketch::swan_sketch(), bad, 24);
}

TEST(DistFaults, TruncateOnAbrQoe) {
  util::FaultPlan bad;
  bad.worker_truncate_p = 1.0;
  expect_survives_fault(sketch::abr_qoe_sketch(), bad, 25);
}

TEST(DistFaults, CrashAfterAckOnHomenet) {
  // Homenet is a single shard: the crash-after-ack worker either answers it
  // (valid response wins before the crash lands) or its peer does.
  util::FaultPlan bad;
  bad.worker_crash_after_ack_p = 1.0;
  const sketch::Sketch& sk = sketch::homenet_sketch();
  const pref::PreferenceGraph graph = ground_truth_graph(
      sk, middle_assignment(sk), 6, 26, base_config().base.tie_tolerance);
  const std::string local = local_state(sk, graph);
  const DistOutcome dist = dist_state(sk, graph, {bad, clean_worker()});
  EXPECT_EQ(dist.state, local);
  EXPECT_EQ(dist.fallbacks, 0);
}

// ---------------------------------------------------------------------------
// Graceful local fallback: no workers, dead workers, or workers so broken
// every attempt fails. The sync must still complete with the identical
// result — distribution can never change *whether* the answer appears.
// ---------------------------------------------------------------------------

TEST(DistFallback, NoWorkersConfiguredFallsBackLocally) {
  const sketch::Sketch& sk = sketch::homenet_sketch();
  const pref::PreferenceGraph graph = ground_truth_graph(
      sk, middle_assignment(sk), 6, 31, base_config().base.tie_tolerance);
  const std::string local = local_state(sk, graph);

  const DistOutcome dist = dist_state(sk, graph, /*worker_faults=*/{});
  EXPECT_EQ(dist.state, local);
  EXPECT_EQ(dist.fallbacks, 1);
  EXPECT_EQ(dist.shards_completed, 0);
}

TEST(DistFallback, AllWorkersDeadFallsBackLocally) {
  const sketch::Sketch& sk = sketch::homenet_sketch();
  const pref::PreferenceGraph graph = ground_truth_graph(
      sk, middle_assignment(sk), 6, 32, base_config().base.tie_tolerance);
  const std::string local = local_state(sk, graph);

  // Bind a real worker to learn a port, then kill it so the endpoint points
  // at nothing. One connect attempt, no backoff: fail fast into fallback.
  std::string dead_endpoint;
  {
    WorkerConfig wc;
    wc.listen = "tcp:0";
    Worker w(wc);
    w.start();
    dead_endpoint = w.endpoint();
    w.stop();
    w.wait();
  }

  obs::MetricsRegistry metrics;
  obs::RunContext obs;
  obs.metrics = &metrics;
  CoordinatorConfig cc;
  cc.workers = {dead_endpoint};
  cc.sketch_text = sketch::print_sketch(sk);
  cc.connect_retry.max_attempts = 1;
  cc.connect_retry.initial_backoff_s = 0;
  cc.obs = obs;
  ShardCoordinator coordinator(std::move(cc));

  solver::GridFinderConfig fc = base_config();
  fc.shard_backend = &coordinator;
  solver::GridFinder finder(sk, fc);
  finder.sync(graph);

  EXPECT_EQ(finder.save_state(), local);
  EXPECT_EQ(metrics.counter("dist.fallbacks").value(), 1);
}

TEST(DistFallback, EveryWorkerFaultyFallsBackLocally) {
  // Both workers tear every blob: every attempt fails structurally, the
  // attempt budget empties, and the finder must complete locally anyway.
  util::FaultPlan bad;
  bad.worker_truncate_p = 1.0;
  const sketch::Sketch& sk = sketch::homenet_sketch();
  const pref::PreferenceGraph graph = ground_truth_graph(
      sk, middle_assignment(sk), 6, 33, base_config().base.tie_tolerance);
  const std::string local = local_state(sk, graph);

  const DistOutcome dist = dist_state(sk, graph, {bad, bad});
  EXPECT_EQ(dist.state, local);
  EXPECT_EQ(dist.fallbacks, 1);
  EXPECT_GE(dist.worker_failures, 1);
}

// ---------------------------------------------------------------------------
// Torn shard records are rejected with a specific error at every layer.
// ---------------------------------------------------------------------------

using solver::GridFinder;

TEST(TornBlob, ParseRoundTrip) {
  const std::string record =
      GridFinder::encode_shard_blob(3, 64, 128, {64, 71, 100, 127});
  const GridFinder::ParsedShardBlob parsed =
      GridFinder::parse_shard_blob(record);
  EXPECT_EQ(parsed.index, 3u);
  EXPECT_EQ(parsed.lo, 64);
  EXPECT_EQ(parsed.hi, 128);
  EXPECT_EQ(parsed.linears, (std::vector<std::int64_t>{64, 71, 100, 127}));
}

TEST(TornBlob, TruncatedMidBitmapIsRejected) {
  const std::string record =
      GridFinder::encode_shard_blob(0, 0, 4096, {1, 5, 9, 4000});
  // Cut the record mid-bitmap — the classic torn write / torn response.
  const std::string torn = record.substr(0, record.size() - 7);
  try {
    GridFinder::parse_shard_blob(torn);
    FAIL() << "torn shard record must not parse";
  } catch (const std::invalid_argument& ex) {
    EXPECT_NE(std::string(ex.what()).find("shard record"), std::string::npos)
        << ex.what();
  }
}

TEST(TornBlob, TruncatedHeaderIsRejected) {
  EXPECT_THROW(GridFinder::parse_shard_blob("shard 0 0"),
               std::invalid_argument);
  EXPECT_THROW(GridFinder::parse_shard_blob(""), std::invalid_argument);
}

TEST(TornBlob, CountMismatchIsRejected) {
  std::string record = GridFinder::encode_shard_blob(0, 0, 64, {1, 5, 9});
  // Flip the count field (third survivor claimed as fourth).
  const std::size_t pos = record.find(" 3 ");
  ASSERT_NE(pos, std::string::npos);
  record.replace(pos, 3, " 4 ");
  EXPECT_THROW(GridFinder::parse_shard_blob(record), std::invalid_argument);
}

TEST(TornBlob, NonHexBytesAreRejected) {
  std::string record = GridFinder::encode_shard_blob(0, 0, 64, {1, 5, 9});
  record.back() = 'z';
  EXPECT_THROW(GridFinder::parse_shard_blob(record), std::invalid_argument);
}

TEST(TornBlob, RestoreStateRejectsTornShardLine) {
  const sketch::Sketch& sk = sketch::homenet_sketch();
  const pref::PreferenceGraph graph = ground_truth_graph(
      sk, middle_assignment(sk), 5, 41, base_config().base.tie_tolerance);
  solver::GridFinder finder(sk, base_config());
  finder.sync(graph);
  const std::string state = finder.save_state();

  // Damage the first shard line: drop a few trailing bitmap characters.
  const std::size_t shard_at = state.find("\nshard ");
  ASSERT_NE(shard_at, std::string::npos) << "v2 state must carry shard lines";
  const std::size_t eol = state.find('\n', shard_at + 1);
  ASSERT_NE(eol, std::string::npos);
  std::string damaged = state;
  damaged.erase(eol - 4, 4);

  solver::GridFinder fresh(sk, base_config());
  try {
    fresh.restore_state(damaged);
    FAIL() << "torn shard line must not restore";
  } catch (const std::invalid_argument& ex) {
    EXPECT_NE(std::string(ex.what()).find("shard record"), std::string::npos)
        << ex.what();
  }
}

// ---------------------------------------------------------------------------
// Wire protocol units: request round-trip and transport CRC rejection.
// ---------------------------------------------------------------------------

TEST(Wire, ShardRequestRoundTrip) {
  ShardRequest req;
  req.job = "sync-7";
  req.shard = 4;
  req.lo = 16384;
  req.hi = 20480;
  req.tie = 1e-4;
  req.sketch = "sketch s(x in [0, 1]) {\n  x\n}";
  req.graph = "prefgraph 1\nvertices 0\nedges 0\nties 0\n";

  const std::string line = render_shard_request(req);
  const auto parsed = parse_wire_request(line);
  ASSERT_TRUE(std::holds_alternative<WireRequest>(parsed));
  const WireRequest& wire = std::get<WireRequest>(parsed);
  EXPECT_EQ(wire.verb, WireVerb::kShard);
  EXPECT_EQ(wire.shard.job, req.job);
  EXPECT_EQ(wire.shard.shard, req.shard);
  EXPECT_EQ(wire.shard.lo, req.lo);
  EXPECT_EQ(wire.shard.hi, req.hi);
  EXPECT_EQ(wire.shard.tie, req.tie);
  EXPECT_EQ(wire.shard.sketch, req.sketch);
  EXPECT_EQ(wire.shard.graph, req.graph);
}

TEST(Wire, SimpleVerbsRoundTrip) {
  for (const WireVerb verb :
       {WireVerb::kHello, WireVerb::kPing, WireVerb::kShutdown}) {
    const auto parsed = parse_wire_request(render_simple_request(verb));
    ASSERT_TRUE(std::holds_alternative<WireRequest>(parsed));
    EXPECT_EQ(std::get<WireRequest>(parsed).verb, verb);
  }
}

TEST(Wire, GarbageRequestYieldsErrorResponse) {
  const auto parsed = parse_wire_request("not json at all");
  ASSERT_TRUE(std::holds_alternative<serve::ParseError>(parsed));
}

std::string shard_response_line(const std::string& blob,
                                const std::string& crc) {
  obs::JsonWriter w;
  w.integer("v", kWireVersion)
      .boolean("ok", true)
      .str("verb", "shard")
      .str("job", "sync-1")
      .integer("shard", 0)
      .integer("lo", 0)
      .integer("hi", 64)
      .integer("count", 3)
      .str("crc", crc)
      .str("blob", blob)
      .num("secs", 0.01);
  return w.done();
}

TEST(Wire, ShardResponseAcceptsMatchingCrc) {
  const std::string blob = GridFinder::encode_shard_blob(0, 0, 64, {1, 5, 9});
  std::string why;
  const std::optional<ShardResponse> resp = parse_shard_response(
      shard_response_line(blob, util::crc32_hex(util::crc32(blob))), &why);
  ASSERT_TRUE(resp.has_value()) << why;
  EXPECT_TRUE(resp->ok);
  EXPECT_EQ(resp->blob, blob);
  EXPECT_EQ(resp->count, 3);
}

TEST(Wire, ShardResponseRejectsCrcMismatch) {
  const std::string blob = GridFinder::encode_shard_blob(0, 0, 64, {1, 5, 9});
  std::string why;
  const std::optional<ShardResponse> resp =
      parse_shard_response(shard_response_line(blob, "deadbeef"), &why);
  EXPECT_FALSE(resp.has_value());
  EXPECT_NE(why.find("CRC"), std::string::npos) << why;
}

}  // namespace
}  // namespace compsynth::dist
