// Numeric option values for the command-line tools: util::parse_number
// plus the tools' one usage message. A bad value is a usage error
// ("invalid value for --flag"), never an uncaught exception.
#pragma once

#include <iostream>
#include <limits>
#include <optional>
#include <string>

#include "util/number.h"

namespace compsynth::tools {

/// Parses all of `text` into `out` when it is one number in [lo, hi];
/// otherwise prints "invalid value for <flag>: '<text>'" to stderr, leaves
/// `out` unchanged and returns false.
template <typename T>
bool parse_flag_value(const std::string& flag, const std::string& text, T& out,
                      T lo = std::numeric_limits<T>::lowest(),
                      T hi = std::numeric_limits<T>::max()) {
  const std::optional<T> value = util::parse_number<T>(text, lo, hi);
  if (!value) {
    std::cerr << "invalid value for " << flag << ": '" << text << "'\n";
    return false;
  }
  out = *value;
  return true;
}

}  // namespace compsynth::tools
