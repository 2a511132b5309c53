// The one number reader and the one double writer.
//
// Every text that must be a number in range — a command-line flag, a
// snapshot's @synth counter, a JSON integer token, a metric in a scenario
// key, a port — is read through parse_number: the whole token, one number
// of the target type, finite, in [lo, hi]. Every double that must come back
// bit-exactly is written through format_double (%.17g round-trips). split
// cuts a record line into the tokens these read.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace compsynth::util {

/// Parses all of `text` as one number of type T (an integer or
/// floating-point type) in [lo, hi]. Returns nullopt on an empty, partial,
/// non-numeric, non-finite or out-of-range token.
template <typename T>
std::optional<T> parse_number(std::string_view text,
                              T lo = std::numeric_limits<T>::lowest(),
                              T hi = std::numeric_limits<T>::max()) {
  T value{};
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc() || end != last) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  if (value < lo || value > hi) return std::nullopt;
  return value;
}

/// `v` rendered with %.17g: parse_number<double> reads back the same double.
inline std::string format_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// `text` cut at every `sep`: "a  b" has an empty middle token, "" one
/// empty token.
inline std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  for (std::size_t pos = 0;;) {
    const std::size_t end = text.find(sep, pos);
    out.push_back(text.substr(pos, end - pos));
    if (end == std::string_view::npos) return out;
    pos = end + 1;
  }
}

}  // namespace compsynth::util
