#include "dist/worker.h"

#include <stdexcept>
#include <utility>

#include "obs/trace.h"
#include "pref/serialize.h"
#include "sketch/parser.h"
#include "util/checksum.h"
#include "util/timer.h"

namespace compsynth::dist {

Worker::Worker(WorkerConfig config)
    : config_(std::move(config)),
      faults_(config_.faults),
      server_(serve::LineServerConfig{config_.listen, config_.backlog},
              [this](const std::string& line, serve::LineControl* ctl) {
                return handle_line(line, ctl);
              }) {}

void Worker::start() { server_.start(); }
std::string Worker::endpoint() const { return server_.endpoint(); }
void Worker::wait() { server_.wait(); }
void Worker::stop() { server_.stop(); }

std::shared_ptr<const solver::GridFinder> Worker::finder_for(
    const std::string& sketch_text, double tie) {
  {
    const util::MutexLock lk(mu_);
    for (std::size_t i = 0; i < engines_.size(); ++i) {
      if (engines_[i].sketch_text == sketch_text && engines_[i].tie == tie) {
        CacheEntry hit = engines_[i];
        engines_.erase(engines_.begin() + static_cast<std::ptrdiff_t>(i));
        engines_.insert(engines_.begin(), hit);
        return hit.finder;
      }
    }
  }
  // Compile outside the lock: parsing + tape lowering can be slow and must
  // not serialize unrelated shard requests. A racing request for the same
  // sketch may compile twice; both engines are identical, one wins the
  // cache slot, the loser is dropped when its shared_ptr count drains.
  sketch::Sketch sk = sketch::parse_sketch(sketch_text);
  solver::GridFinderConfig fc;
  fc.base.tie_tolerance = tie;
  fc.threads = 1;  // one shard request = one range; parallelism is the
                   // coordinator's job (many shards across many workers)
  auto finder = std::make_shared<const solver::GridFinder>(std::move(sk), fc);
  {
    const util::MutexLock lk(mu_);
    engines_.insert(engines_.begin(),
                    CacheEntry{sketch_text, tie, finder});
    if (engines_.size() > kMaxCachedEngines) engines_.pop_back();
  }
  return finder;
}

std::string Worker::handle_line(const std::string& line,
                                serve::LineControl* ctl) {
  std::variant<WireRequest, serve::ParseError> parsed =
      parse_wire_request(line);
  if (const serve::ParseError* err = std::get_if<serve::ParseError>(&parsed)) {
    config_.obs.count("dist.worker.requests");
    return serve::error_response(err->code, err->message);
  }
  const WireRequest& req = std::get<WireRequest>(parsed);
  config_.obs.count("dist.worker.requests");
  switch (req.verb) {
    case WireVerb::kHello: {
      obs::JsonWriter w;
      return w.integer("v", kWireVersion)
          .boolean("ok", true)
          .str("verb", "hello")
          .integer("proto", kWireVersion)
          .done();
    }
    case WireVerb::kPing: {
      obs::JsonWriter w;
      return w.integer("v", kWireVersion)
          .boolean("ok", true)
          .str("verb", "ping")
          .done();
    }
    case WireVerb::kShutdown: {
      ctl->stop_after = true;  // ack is on the wire before the stop begins
      obs::JsonWriter w;
      return w.integer("v", kWireVersion)
          .boolean("ok", true)
          .str("verb", "shutdown")
          .done();
    }
    case WireVerb::kShard:
      return handle_shard(req.shard, ctl);
  }
  return serve::error_response(serve::kErrVerb, "unhandled verb");
}

std::string Worker::handle_shard(const ShardRequest& req,
                                 serve::LineControl* ctl) {
  const util::Stopwatch watch;
  std::string fault_kind;
  std::string response;
  bool ok = false;
  try {
    if (faults_.worker_stall()) {
      // Stall past the coordinator's per-shard deadline; the request still
      // completes afterwards, but the coordinator has moved on and the late
      // response dies with the timed-out connection.
      fault_kind = "stall";
      util::sleep_seconds(config_.faults.worker_stall_s);
    }
    const std::shared_ptr<const solver::GridFinder> finder =
        finder_for(req.sketch, req.tie);
    const pref::PreferenceGraph graph =
        pref::deserialize(req.graph, /*allow_inconsistent=*/true);
    std::string blob = finder->sync_shard_blob(graph, req.shard, req.lo, req.hi);
    long long count =
        static_cast<long long>(solver::GridFinder::parse_shard_blob(blob)
                                   .linears.size());
    if (faults_.worker_truncate()) {
      // Valid JSON, valid CRC, bitmap cut mid-record: exactly the torn blob
      // the coordinator's structural validation must catch (the CRC is
      // recomputed over the damaged bytes, so only parse_shard_blob can).
      fault_kind = "truncate";
      const std::size_t space = blob.rfind(' ');
      if (space != std::string::npos && space + 2 < blob.size()) {
        blob.erase(space + 1 + (blob.size() - space - 1) / 2);
      }
    }
    obs::JsonWriter w;
    w.integer("v", kWireVersion)
        .boolean("ok", true)
        .str("verb", "shard")
        .str("job", req.job)
        .integer("shard", static_cast<long long>(req.shard))
        .integer("lo", req.lo)
        .integer("hi", req.hi)
        .integer("count", count)
        .str("crc", util::crc32_hex(util::crc32(blob)))
        .str("blob", blob)
        .num("secs", watch.elapsed_seconds());
    response = w.done();
    ok = true;
  } catch (const std::exception& ex) {
    response = serve::error_response(serve::kErrInternal, ex.what());
  }
  if (ok && faults_.worker_drop()) {
    // Drop the connection mid-response: the coordinator sees a torn line
    // (or EOF) and treats this worker as failed for the attempt.
    fault_kind = "drop";
    ctl->send_prefix = response.size() / 2;
  }
  if (ok && faults_.worker_crash_after_ack()) {
    // The response lands, then the whole worker goes down — every other
    // in-flight shard on this worker orphans and must be re-dispatched.
    fault_kind = "crash_after_ack";
    ctl->abort_after = true;
  }
  if (!fault_kind.empty()) config_.obs.count("dist.worker.faults");
  if (config_.obs.tracing()) {
    obs::TraceEvent ev("worker_shard");
    ev.str("job", req.job);
    ev.integer("shard", static_cast<long long>(req.shard));
    ev.integer("lo", req.lo);
    ev.integer("hi", req.hi);
    ev.boolean("ok", ok);
    if (!fault_kind.empty()) ev.str("fault", fault_kind);
    ev.num("secs", watch.elapsed_seconds());
    config_.obs.emit(ev);
  }
  return response;
}

}  // namespace compsynth::dist
