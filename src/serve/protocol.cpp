#include "serve/protocol.h"

#include "util/number.h"

namespace compsynth::serve {

const char* verb_name(Verb verb) {
  switch (verb) {
    case Verb::kCreate: return "create";
    case Verb::kNext: return "next";
    case Verb::kAnswer: return "answer";
    case Verb::kInspect: return "inspect";
    case Verb::kEvict: return "evict";
    case Verb::kShutdown: return "shutdown";
  }
  return "?";
}

std::optional<Verb> parse_verb(std::string_view name) {
  if (name == "create") return Verb::kCreate;
  if (name == "next") return Verb::kNext;
  if (name == "answer") return Verb::kAnswer;
  if (name == "inspect") return Verb::kInspect;
  if (name == "evict") return Verb::kEvict;
  if (name == "shutdown") return Verb::kShutdown;
  return std::nullopt;
}

std::optional<oracle::Preference> parse_preference(std::string_view name) {
  if (name == "first") return oracle::Preference::kFirst;
  if (name == "second") return oracle::Preference::kSecond;
  if (name == "tie") return oracle::Preference::kTie;
  return std::nullopt;
}

bool valid_session_id(std::string_view id) {
  if (id.empty() || id.size() > 64 || id.front() == '.') return false;
  for (const char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::string encode_metrics(const std::vector<double>& metrics) {
  std::string out;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ' ';
    out += util::format_double(metrics[i]);
  }
  return out;
}

std::string scenario_key(const pref::Scenario& s) {
  return encode_metrics(s.metrics);
}

std::optional<std::vector<double>> decode_metrics(std::string_view text) {
  std::vector<double> out;
  for (const std::string_view token : util::split(text, ' ')) {
    const std::optional<double> v = util::parse_number<double>(token);
    if (!v) return std::nullopt;
    out.push_back(*v);
  }
  return out;
}

std::variant<Request, ParseError> parse_request(std::string_view line) {
  const std::optional<obs::JsonObject> parsed = obs::parse_flat_json(line);
  if (!parsed) {
    return ParseError{kErrParse, "request is not one flat JSON object"};
  }
  obs::JsonFields f(*parsed);
  const std::optional<std::string> verb_text = f.string("verb");
  if (!verb_text) return ParseError{kErrVerb, "missing string field 'verb'"};
  const std::optional<Verb> verb = parse_verb(*verb_text);
  if (!verb) return ParseError{kErrVerb, "unknown verb '" + *verb_text + "'"};

  Request req;
  req.verb = *verb;
  req.session = f.string("session").value_or("");
  if (!f.ok()) return ParseError{kErrField, f.error()};
  const bool needs_session = req.verb != Verb::kShutdown &&
                             !(req.verb == Verb::kInspect && req.session.empty());
  if (needs_session && !valid_session_id(req.session)) {
    return ParseError{kErrId,
                      "session id must match [A-Za-z0-9._-]{1,64} and not "
                      "start with '.'"};
  }

  // Absent optional fields keep the Request defaults.
  if (req.verb == Verb::kCreate) {
    if (auto v = f.string("sketch")) req.sketch = *v;
    if (auto v = f.string("backend")) req.backend = *v;
    if (auto v = f.integer("seed", 0, obs::kJsonMaxExactInt)) req.seed = *v;
    if (auto v = f.integer("initial", 0, kMaxInitial)) req.initial = *v;
    if (auto v = f.integer("pairs", 1, kMaxPairs)) req.pairs = *v;
    if (auto v = f.integer("max_iters", 1, kMaxIters)) req.max_iters = *v;
  } else if (req.verb == Verb::kNext) {
    if (auto v = f.integer("wait_ms", 0, kMaxWaitMs)) req.wait_ms = *v;
  } else if (req.verb == Verb::kAnswer) {
    const std::optional<long long> index = f.integer("index", 0, kMaxIndex);
    if (!index) {
      return ParseError{kErrIndex,
                        f.ok() ? "missing integer field 'index'" : f.error()};
    }
    req.index = static_cast<long>(*index);
    const std::optional<std::string> answer = f.string("answer");
    if (!answer || answer->empty()) {
      return ParseError{kErrAnswer, "missing string field 'answer'"};
    }
    const std::optional<oracle::Preference> p = parse_preference(*answer);
    if (!p) {
      return ParseError{kErrAnswer,
                        "answer must be 'first', 'second' or 'tie'"};
    }
    req.answer = *p;
  }
  if (!f.ok()) return ParseError{kErrField, f.error()};
  return req;
}

std::string render_request(const Request& req) {
  obs::JsonWriter w;
  w.str("verb", verb_name(req.verb));
  if (!req.session.empty()) w.str("session", req.session);
  switch (req.verb) {
    case Verb::kCreate:
      if (!req.sketch.empty()) w.str("sketch", req.sketch);
      w.str("backend", req.backend);
      w.integer("seed", static_cast<long long>(req.seed));
      w.integer("initial", req.initial);
      w.integer("pairs", req.pairs);
      w.integer("max_iters", req.max_iters);
      break;
    case Verb::kNext:
      if (req.wait_ms > 0) w.integer("wait_ms", req.wait_ms);
      break;
    case Verb::kAnswer:
      w.integer("index", req.index);
      w.str("answer", oracle::preference_name(req.answer));
      break;
    case Verb::kInspect:
    case Verb::kEvict:
    case Verb::kShutdown:
      break;
  }
  return w.done();
}

std::string error_response(std::string_view code, std::string_view message) {
  obs::JsonWriter w;
  w.integer("v", kProtocolVersion);
  w.boolean("ok", false);
  w.str("code", code);
  w.str("error", message);
  return w.done();
}

obs::JsonWriter ok_response(Verb verb) {
  obs::JsonWriter w;
  w.integer("v", kProtocolVersion);
  w.boolean("ok", true);
  w.str("verb", verb_name(verb));
  return w;
}

}  // namespace compsynth::serve
