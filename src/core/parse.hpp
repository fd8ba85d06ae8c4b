#pragma once
// Text <-> number conversion shared by the spec-string parsers, the
// trace reader and the command-line front-ends. Parsing is whole-field
// and locale-free (std::from_chars): no blanks, no trailing text, no
// out-of-range value, and an unsigned type takes no sign -- where
// atoll/stoul read "12abc" as 12 and "-1" as a huge id.

#include <charconv>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace spider::core {

/// All of `text` as a T (an arithmetic type), or nullopt.
template <typename T>
[[nodiscard]] std::optional<T> parse_number(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

/// parse_number that throws std::invalid_argument("<context>: <text>")
/// on failure, so the message names the caller's key or flag.
template <typename T>
[[nodiscard]] T require_number(std::string_view text,
                               const std::string& context) {
  if (const std::optional<T> value = parse_number<T>(text)) return *value;
  throw std::invalid_argument(context + ": " + std::string(text));
}

/// Shortest round-trip text of `d` (std::to_chars): parsing the result
/// recovers the exact bit pattern.
[[nodiscard]] inline std::string format_double(double d) {
  char buf[40];
  const auto res = std::to_chars(buf, buf + sizeof buf, d);
  return std::string(buf, res.ptr);
}

}  // namespace spider::core
