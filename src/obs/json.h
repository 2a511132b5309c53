// Flat JSON: the one writer, the one reader and the one field accessor set
// behind every line-oriented record — trace lines, protocol and wire
// requests and responses, snapshot manifests, session.json and done.json.
//
// "Flat" means one object per line whose values are strings, numbers,
// booleans or null, never nested. JsonWriter renders such an object,
// parse_flat_json reads one back, and JsonFields checks each field's type
// and range as it is read, so every reader reports a bad record the same
// way: an error naming the field.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace compsynth::obs {

/// Largest integer that every JSON reader holds exactly (2^53: beyond it a
/// double-based reader rounds). The bound on seeds, which cross snapshot
/// manifests, session.json and the protocol.
inline constexpr long long kJsonMaxExactInt = 1LL << 53;

/// Escapes `raw` for inclusion inside a JSON string literal (quotes,
/// backslashes, control characters).
std::string json_escape(std::string_view raw);

/// Incremental flat-JSON object builder ({"k":v,...}); keys and string
/// values are escaped per json_escape, doubles rendered with %.17g
/// (util::format_double). `done()` closes and returns the object.
class JsonWriter {
 public:
  JsonWriter& str(std::string_view key, std::string_view value);
  JsonWriter& integer(std::string_view key, long long value);
  JsonWriter& num(std::string_view key, double value);
  JsonWriter& boolean(std::string_view key, bool value);
  std::string done();

 private:
  void key(std::string_view k);
  std::string out_ = "{";
  bool first_ = true;
};

/// A parsed flat-JSON value. Numbers are doubles in `num` (JSON has one
/// number type) and keep their token as written in `str`, so integers are
/// checked on the exact text; null parses as kNull.
struct JsonValue {
  enum class Kind { kString, kNumber, kBool, kNull };
  Kind kind = Kind::kNull;
  std::string str;
  double num = 0;
  bool b = false;
};

using JsonObject = std::map<std::string, JsonValue, std::less<>>;

/// Parses one flat JSON object (no nesting — exactly the trace-line shape).
/// Returns nullopt on any syntax error or on nested arrays/objects.
std::optional<JsonObject> parse_flat_json(std::string_view line);

/// Typed, checked reads of one parsed object. A read returns nullopt when
/// the key is absent or its value has the wrong type or range. A wrong type
/// or range records an error naming the field; so does an absent key when
/// the reader was built with Absent::kError. error() keeps the first one,
/// so a record reader makes its reads and checks once.
class JsonFields {
 public:
  enum class Absent { kAllowed, kError };

  explicit JsonFields(const JsonObject& obj, Absent absent = Absent::kAllowed)
      : obj_(&obj), absent_(absent) {}

  std::optional<std::string> string(std::string_view key) {
    return typed(key, JsonValue::Kind::kString, "a string", &JsonValue::str);
  }
  std::optional<double> number(std::string_view key) {
    return typed(key, JsonValue::Kind::kNumber, "a number", &JsonValue::num);
  }
  std::optional<bool> boolean(std::string_view key) {
    return typed(key, JsonValue::Kind::kBool, "a boolean", &JsonValue::b);
  }
  /// An integer token (no fraction, no exponent) in [lo, hi]. The range is
  /// checked on the token's text, before any cast, so no value is rounded
  /// or wrapped into range.
  std::optional<long long> integer(std::string_view key, long long lo,
                                   long long hi);

  bool has(std::string_view key) const { return obj_->count(key) != 0; }
  bool ok() const { return error_.empty(); }
  /// The first error, e.g. "field 'seed' must be an integer in [0, 9]".
  const std::string& error() const { return error_; }

 private:
  const JsonValue* find(std::string_view key);
  void fail(std::string_view key, const std::string& expected);
  template <typename T>
  std::optional<T> typed(std::string_view key, JsonValue::Kind kind,
                         const char* expected, T JsonValue::*member) {
    const JsonValue* v = find(key);
    if (v == nullptr) return std::nullopt;
    if (v->kind != kind) {
      fail(key, expected);
      return std::nullopt;
    }
    return v->*member;
  }

  const JsonObject* obj_;
  Absent absent_;
  std::string error_;
};

}  // namespace compsynth::obs
