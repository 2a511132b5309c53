// Wire protocol for the synthesis service (docs/SERVICE.md is the
// field-by-field reference).
//
// The daemon speaks line-delimited flat JSON: one request object per line,
// one response object per line, no nesting — exactly the shape
// obs::parse_flat_json understands, so the protocol reader is the trace
// reader. Six verbs drive a session through its life:
//
//   create   register a session id and start its synthesis run
//   next     fetch the session's current distinguishing (s1, s2) pair
//   answer   submit the architect's comparison for that pair
//   inspect  session status, or daemon-wide stats when no session is given
//   evict    swap the session's in-memory state to disk immediately
//   shutdown drain and stop the daemon
//
// Scenario metric vectors cross the wire as single strings of
// space-separated %.17g values ("2.5 100") — the same canonical rendering
// the per-session answers.log records, so a pair can be compared byte-wise
// across processes. See scenario_key / decode_metrics.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "obs/json.h"
#include "oracle/oracle.h"
#include "pref/scenario.h"

namespace compsynth::serve {

/// Stamped into every response as "v"; bump on incompatible changes.
inline constexpr int kProtocolVersion = 1;

enum class Verb { kCreate, kNext, kAnswer, kInspect, kEvict, kShutdown };

/// "create", "next", ... — the wire spelling.
const char* verb_name(Verb verb);
std::optional<Verb> parse_verb(std::string_view name);

// Error codes (docs/SERVICE.md §Errors). A failed response carries
// {"ok":false,"code":"E_...","error":"<human message>"}.
inline constexpr char kErrParse[] = "E_PARSE";        // not a flat JSON line
inline constexpr char kErrVerb[] = "E_VERB";          // unknown/missing verb
inline constexpr char kErrId[] = "E_ID";              // malformed session id
inline constexpr char kErrExists[] = "E_EXISTS";      // create: id taken
inline constexpr char kErrUnknownSession[] = "E_UNKNOWN_SESSION";
inline constexpr char kErrSketch[] = "E_SKETCH";      // unregistered sketch
inline constexpr char kErrBackend[] = "E_BACKEND";    // unsupported backend
inline constexpr char kErrState[] = "E_STATE";        // verb vs phase mismatch
inline constexpr char kErrIndex[] = "E_INDEX";        // answer: wrong index
inline constexpr char kErrAnswer[] = "E_ANSWER";      // answer: bad value
inline constexpr char kErrField[] = "E_FIELD";        // bad field type/range
inline constexpr char kErrInternal[] = "E_INTERNAL";  // session state corrupt

/// One parsed request. Fields beyond `verb`/`session` are meaningful only
/// for the verb that uses them (create's configuration, next's wait budget,
/// answer's index + preference); parse_request leaves the rest at defaults.
struct Request {
  Verb verb = Verb::kInspect;
  std::string session;  // empty = daemon-level (inspect / shutdown only)

  // create
  std::string sketch;  // registered sketch name; empty = daemon default
  std::string backend = "grid";
  std::uint64_t seed = 1;
  int initial = 5;
  int pairs = 1;
  int max_iters = 500;

  // next
  int wait_ms = 0;

  // answer
  long index = -1;
  oracle::Preference answer = oracle::Preference::kTie;
};

// Ranges of the integer request fields. create's are also the bounds the
// host applies to CreateParams and the session.json reader to its fields;
// seeds lie in [0, obs::kJsonMaxExactInt].
inline constexpr int kMaxInitial = 1000;
inline constexpr int kMaxPairs = 100;
inline constexpr int kMaxIters = 1000000;
inline constexpr int kMaxWaitMs = 600000;
inline constexpr long long kMaxIndex = 1LL << 40;

struct ParseError {
  std::string code;
  std::string message;
};

/// Parses one request line; returns the request or the error response to
/// send back. Unknown keys are ignored (forward compatibility).
std::variant<Request, ParseError> parse_request(std::string_view line);

/// Renders `req` as one request line (no trailing newline). Round-trips
/// through parse_request; clients (tools/compsynth_load.cpp) build their
/// traffic with this.
std::string render_request(const Request& req);

/// Session ids must match [A-Za-z0-9._-]{1,64} and not start with a dot —
/// they double as directory names under the daemon's --root.
bool valid_session_id(std::string_view id);

/// Reads oracle::preference_name's spelling ("first" / "second" / "tie")
/// back: the wire form of a comparison answer.
std::optional<oracle::Preference> parse_preference(std::string_view name);

/// Canonical scenario rendering: util::format_double values separated by
/// one space. Round-trips exactly through decode_metrics, which accepts
/// only that shape (finite values, single spaces), and is the identity used
/// by the answers.log replay check.
std::string scenario_key(const pref::Scenario& s);
std::string encode_metrics(const std::vector<double>& metrics);
std::optional<std::vector<double>> decode_metrics(std::string_view text);

/// {"v":1,"ok":false,"code":...,"error":...} — the uniform failure shape.
std::string error_response(std::string_view code, std::string_view message);

/// Starts a success response ({"v":1,"ok":true,"verb":...}); the caller
/// appends verb-specific fields and calls done().
obs::JsonWriter ok_response(Verb verb);

}  // namespace compsynth::serve
