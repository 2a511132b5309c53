// Checked numeric option values for the command-line tools.
//
// Every tool parses its numeric flags through parse_flag_value: the whole
// token must be one number of the target type, in range. A bad value is a
// usage error ("invalid value for --flag"), never an uncaught exception.
#pragma once

#include <charconv>
#include <iostream>
#include <string>
#include <system_error>

namespace compsynth::tools {

/// Parses all of `text` into `out` (an integer or floating-point type).
/// On an empty, partial, non-numeric or out-of-range token prints
/// "invalid value for <flag>: '<text>'" to stderr, leaves `out` unchanged
/// and returns false.
template <typename T>
bool parse_flag_value(const std::string& flag, const std::string& text,
                      T& out) {
  T value{};
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc() || end != last) {
    std::cerr << "invalid value for " << flag << ": '" << text << "'\n";
    return false;
  }
  out = value;
  return true;
}

}  // namespace compsynth::tools
