// Wire protocol for distributed version-space sync (docs/DISTRIBUTED.md is
// the field-by-field reference).
//
// Workers speak the same line-delimited flat JSON as the synthesis daemon
// (serve/protocol.h): one request object per line, one response object per
// line, readable with obs::parse_flat_json. Four verbs:
//
//   hello     capability probe: protocol version + schema handshake
//   ping      liveness heartbeat (the coordinator's idle-time health check)
//   shard     compute one fixed-range shard of a full sync
//   shutdown  drain and stop the worker
//
// A shard request carries everything the computation depends on — sketch DSL
// text, serialized preference graph, tie tolerance, the [lo, hi) candidate
// range — so shards are pure functions of the request and re-dispatching one
// (after a crash, or speculatively against a straggler) is idempotent: any
// valid response for shard k is byte-identical to any other. The response's
// `blob` is the `shard <k> <lo> <hi> <count> <hex>` record of the
// `gridfinder 2` save-state format, guarded by `crc` (util::crc32 over the
// blob bytes) against transport damage; structural damage is caught by
// solver::GridFinder::parse_shard_blob on the coordinator side.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>

#include "serve/protocol.h"

namespace compsynth::dist {

/// Stamped into every request/response as "v"; bump on incompatible changes.
inline constexpr int kWireVersion = 1;

enum class WireVerb { kHello, kPing, kShard, kShutdown };

/// "hello", "ping", "shard", "shutdown" — the wire spelling.
const char* wire_verb_name(WireVerb verb);
std::optional<WireVerb> parse_wire_verb(std::string_view name);

/// One shard-computation request, fully self-contained.
struct ShardRequest {
  /// Coordinator-chosen sync id; echoed back so interleaved responses from
  /// distinct syncs can never be confused.
  std::string job;
  std::size_t shard = 0;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  /// FinderConfig::tie_tolerance — part of the candidate-survival predicate.
  double tie = 1e-4;
  /// Sketch DSL text (sketch::print_sketch / parse_sketch round-trip).
  std::string sketch;
  /// Preference graph text (pref::serialize / deserialize round-trip).
  std::string graph;
};

struct WireRequest {
  WireVerb verb = WireVerb::kPing;
  ShardRequest shard;  // meaningful only when verb == kShard
};

/// Parses one request line; returns the request or the error response to
/// send back (codes from serve/protocol.h). Unknown keys are ignored; `tie`
/// is optional, and shard, lo and hi are integers in [0, 2^53] with
/// lo < hi.
std::variant<WireRequest, serve::ParseError> parse_wire_request(
    std::string_view line);

/// Renders request lines (no trailing newline); round-trip through
/// parse_wire_request.
std::string render_shard_request(const ShardRequest& req);
std::string render_simple_request(WireVerb verb);

/// One parsed shard response. On ok, `blob` has already passed the CRC
/// check; structural validation (parse_shard_blob) is the caller's next
/// step.
struct ShardResponse {
  bool ok = false;
  std::string code;   // E_* when !ok
  std::string error;  // human message when !ok
  std::string job;
  std::size_t shard = 0;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  long long count = 0;
  std::string blob;
  double secs = 0;
};

/// Parses and transport-validates one shard response line: flat JSON, all
/// required fields present and well-typed (shard, lo, hi and count are
/// integers in [0, 2^53]), and crc32(blob) matching the `crc` field.
/// Returns nullopt with `*why` set on any violation — the coordinator
/// treats that as a worker failure.
std::optional<ShardResponse> parse_shard_response(std::string_view line,
                                                  std::string* why);

}  // namespace compsynth::dist
