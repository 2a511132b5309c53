#include "obs/json.h"

#include <cctype>
#include <charconv>
#include <cstdio>

#include "util/number.h"

namespace compsynth::obs {

std::string json_escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::key(std::string_view k) {
  if (!first_) out_ += ',';
  first_ = false;
  out_ += '"';
  out_ += json_escape(k);
  out_ += "\":";
}

JsonWriter& JsonWriter::str(std::string_view k, std::string_view value) {
  key(k);
  out_ += '"';
  out_ += json_escape(value);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::integer(std::string_view k, long long value) {
  key(k);
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::num(std::string_view k, double value) {
  key(k);
  out_ += util::format_double(value);
  return *this;
}

JsonWriter& JsonWriter::boolean(std::string_view k, bool value) {
  key(k);
  out_ += value ? "true" : "false";
  return *this;
}

std::string JsonWriter::done() {
  out_ += '}';
  return std::move(out_);
}

namespace {

// Minimal recursive-descent scanner for one flat JSON object.
class FlatParser {
 public:
  explicit FlatParser(std::string_view text) : text_(text) {}

  std::optional<JsonObject> parse() {
    skip_ws();
    if (!consume('{')) return std::nullopt;
    JsonObject out;
    skip_ws();
    if (consume('}')) return finish(out);
    for (;;) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return std::nullopt;
      skip_ws();
      if (!consume(':')) return std::nullopt;
      skip_ws();
      JsonValue value;
      if (!parse_value(value)) return std::nullopt;
      out[std::move(key)] = std::move(value);
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return finish(out);
      return std::nullopt;
    }
  }

 private:
  std::optional<JsonObject> finish(JsonObject& out) {
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return std::move(out);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return false;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return false;
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return false;
          }
          // The writer only \u-escapes control characters (< 0x20); decode
          // the ASCII range and substitute '?' for anything beyond it.
          out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default:
          return false;
      }
    }
    return false;  // unterminated
  }

  bool parse_value(JsonValue& out) {
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return parse_string(out.str);
    }
    if (c == 't') {
      if (!consume_word("true")) return false;
      out.kind = JsonValue::Kind::kBool;
      out.b = true;
      return true;
    }
    if (c == 'f') {
      if (!consume_word("false")) return false;
      out.kind = JsonValue::Kind::kBool;
      out.b = false;
      return true;
    }
    if (c == 'n') {
      if (!consume_word("null")) return false;
      out.kind = JsonValue::Kind::kNull;
      return true;
    }
    // Number: [-]digits[.digits][(e|E)[+-]digits]
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    const std::string_view token = text_.substr(start, pos_ - start);
    double value = 0;
    const auto [end, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc() || end != token.data() + token.size()) return false;
    out.kind = JsonValue::Kind::kNumber;
    out.num = value;
    out.str = token;
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<JsonObject> parse_flat_json(std::string_view line) {
  return FlatParser(line).parse();
}

void JsonFields::fail(std::string_view key, const std::string& expected) {
  if (error_.empty()) {
    error_ = "field '" + std::string(key) + "' must be " + expected;
  }
}

const JsonValue* JsonFields::find(std::string_view key) {
  const auto it = obj_->find(key);
  if (it != obj_->end()) return &it->second;
  if (absent_ == Absent::kError && error_.empty()) {
    error_ = "missing field '" + std::string(key) + "'";
  }
  return nullptr;
}

std::optional<long long> JsonFields::integer(std::string_view key,
                                             long long lo, long long hi) {
  const JsonValue* v = find(key);
  if (v == nullptr) return std::nullopt;
  std::optional<long long> value;
  if (v->kind == JsonValue::Kind::kNumber) {
    value = util::parse_number<long long>(v->str, lo, hi);
  }
  if (!value) {
    fail(key, "an integer in [" + std::to_string(lo) + ", " +
                  std::to_string(hi) + "]");
  }
  return value;
}

}  // namespace compsynth::obs
