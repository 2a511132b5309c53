#include "obs/trace.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace compsynth::obs {

TraceEvent& TraceEvent::integer(std::string key, long long value) {
  FieldValue v;
  v.kind = FieldValue::Kind::kInt;
  v.i = value;
  fields_.emplace_back(std::move(key), std::move(v));
  return *this;
}

TraceEvent& TraceEvent::num(std::string key, double value) {
  FieldValue v;
  v.kind = FieldValue::Kind::kDouble;
  v.d = value;
  fields_.emplace_back(std::move(key), std::move(v));
  return *this;
}

TraceEvent& TraceEvent::str(std::string key, std::string value) {
  FieldValue v;
  v.kind = FieldValue::Kind::kString;
  v.s = std::move(value);
  fields_.emplace_back(std::move(key), std::move(v));
  return *this;
}

TraceEvent& TraceEvent::boolean(std::string key, bool value) {
  FieldValue v;
  v.kind = FieldValue::Kind::kBool;
  v.b = value;
  fields_.emplace_back(std::move(key), std::move(v));
  return *this;
}

namespace {

void append_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    // JSON has no Infinity/NaN; null keeps the line parseable.
    out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", value);
  out += buf;
}

}  // namespace

std::string render_trace_line(std::string_view run_id, double ts_seconds,
                              const TraceEvent& event) {
  std::string line = "{\"v\":";
  line += std::to_string(kTraceSchemaVersion);
  line += ",\"ts\":";
  append_number(line, ts_seconds);
  line += ",\"run\":\"";
  line += json_escape(run_id);
  line += "\",\"ev\":\"";
  line += json_escape(event.type());
  line += '"';
  for (const auto& [key, value] : event.fields()) {
    line += ",\"";
    line += json_escape(key);
    line += "\":";
    switch (value.kind) {
      case FieldValue::Kind::kInt:
        line += std::to_string(value.i);
        break;
      case FieldValue::Kind::kDouble:
        append_number(line, value.d);
        break;
      case FieldValue::Kind::kString:
        line += '"';
        line += json_escape(value.s);
        line += '"';
        break;
      case FieldValue::Kind::kBool:
        line += value.b ? "true" : "false";
        break;
    }
  }
  line += '}';
  return line;
}

FileTraceSink::FileTraceSink(const std::string& path)
    : path_(path), out_(path, std::ios::trunc), writer_(out_) {
  if (!out_) throw std::runtime_error("FileTraceSink: cannot write '" + path + "'");
}

void FileTraceSink::emit(std::string_view run_id, const TraceEvent& event) {
  writer_.write_line(render_trace_line(run_id, epoch_.elapsed_seconds(), event));
}

}  // namespace compsynth::obs
