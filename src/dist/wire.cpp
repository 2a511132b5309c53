#include "dist/wire.h"

#include "obs/json.h"
#include "util/checksum.h"

namespace compsynth::dist {

namespace {

using obs::JsonFields;
using obs::JsonObject;

// Every integer on the wire is a non-negative count or candidate index.
constexpr long long kMaxWireInt = obs::kJsonMaxExactInt;

}  // namespace

const char* wire_verb_name(WireVerb verb) {
  switch (verb) {
    case WireVerb::kHello:
      return "hello";
    case WireVerb::kPing:
      return "ping";
    case WireVerb::kShard:
      return "shard";
    case WireVerb::kShutdown:
      return "shutdown";
  }
  return "ping";
}

std::optional<WireVerb> parse_wire_verb(std::string_view name) {
  if (name == "hello") return WireVerb::kHello;
  if (name == "ping") return WireVerb::kPing;
  if (name == "shard") return WireVerb::kShard;
  if (name == "shutdown") return WireVerb::kShutdown;
  return std::nullopt;
}

std::variant<WireRequest, serve::ParseError> parse_wire_request(
    std::string_view line) {
  const std::optional<JsonObject> parsed = obs::parse_flat_json(line);
  if (!parsed) {
    return serve::ParseError{serve::kErrParse, "not a flat JSON object"};
  }
  JsonFields f(*parsed, JsonFields::Absent::kError);
  const std::optional<std::string> verb_text = f.string("verb");
  if (!verb_text) return serve::ParseError{serve::kErrVerb, "missing verb"};
  const std::optional<WireVerb> verb = parse_wire_verb(*verb_text);
  if (!verb) {
    return serve::ParseError{serve::kErrVerb, "unknown verb: " + *verb_text};
  }
  WireRequest req;
  req.verb = *verb;
  if (req.verb != WireVerb::kShard) return req;

  ShardRequest& s = req.shard;
  s.job = f.string("job").value_or("");
  s.shard = f.integer("shard", 0, kMaxWireInt).value_or(0);
  s.lo = f.integer("lo", 0, kMaxWireInt).value_or(0);
  s.hi = f.integer("hi", 0, kMaxWireInt).value_or(0);
  s.sketch = f.string("sketch").value_or("");
  s.graph = f.string("graph").value_or("");
  if (f.has("tie")) s.tie = f.number("tie").value_or(s.tie);
  if (!f.ok()) return serve::ParseError{serve::kErrField, f.error()};
  if (s.hi <= s.lo) {
    return serve::ParseError{serve::kErrField, "field 'hi' must exceed 'lo'"};
  }
  return req;
}

std::string render_shard_request(const ShardRequest& req) {
  obs::JsonWriter w;
  w.integer("v", kWireVersion)
      .str("verb", "shard")
      .str("job", req.job)
      .integer("shard", static_cast<long long>(req.shard))
      .integer("lo", req.lo)
      .integer("hi", req.hi)
      .num("tie", req.tie)
      .str("sketch", req.sketch)
      .str("graph", req.graph);
  return w.done();
}

std::string render_simple_request(WireVerb verb) {
  obs::JsonWriter w;
  w.integer("v", kWireVersion).str("verb", wire_verb_name(verb));
  return w.done();
}

std::optional<ShardResponse> parse_shard_response(std::string_view line,
                                                  std::string* why) {
  const std::optional<JsonObject> parsed = obs::parse_flat_json(line);
  if (!parsed) {
    *why = "response is not a flat JSON object";
    return std::nullopt;
  }
  JsonFields f(*parsed, JsonFields::Absent::kError);
  ShardResponse resp;
  const std::optional<bool> ok = f.boolean("ok");
  if (!ok) {
    *why = f.error();
    return std::nullopt;
  }
  resp.ok = *ok;
  if (!resp.ok) {
    // Error responses only need code + message; pass them through so the
    // coordinator's worker_fail event can say what the worker said.
    resp.code = f.string("code").value_or("");
    resp.error = f.string("error").value_or("");
    return resp;
  }
  resp.job = f.string("job").value_or("");
  resp.shard = f.integer("shard", 0, kMaxWireInt).value_or(0);
  resp.lo = f.integer("lo", 0, kMaxWireInt).value_or(0);
  resp.hi = f.integer("hi", 0, kMaxWireInt).value_or(0);
  resp.count = f.integer("count", 0, kMaxWireInt).value_or(0);
  const std::string crc = f.string("crc").value_or("");
  resp.blob = f.string("blob").value_or("");
  if (f.has("secs")) resp.secs = f.number("secs").value_or(0);
  if (!f.ok()) {
    *why = f.error();
    return std::nullopt;
  }
  const std::string actual = util::crc32_hex(util::crc32(resp.blob));
  if (actual != crc) {
    *why = "blob CRC mismatch: header " + crc + " vs computed " + actual;
    return std::nullopt;
  }
  return resp;
}

}  // namespace compsynth::dist
