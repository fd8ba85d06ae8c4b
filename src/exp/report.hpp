#pragma once
// Structured sweep reports: a minimal self-contained JSON value
// (writer + parser, no third-party deps) and JSON/CSV serialization of
// sim::Metrics snapshots, so sweep results land in machine-readable
// files instead of stdout. The writers are deterministic -- fixed key
// order, fixed number formatting -- so "byte-identical metrics" is a
// meaningful comparison across thread counts.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "sim/metrics.hpp"

namespace spider::exp {

/// Minimal JSON document: null, bool, integer, double, string, array,
/// object (insertion-ordered). Integers are kept distinct from doubles
/// so counters and fixed-point amounts round-trip exactly.
class Json {
 public:
  using Array = std::vector<Json>;
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() : value_(nullptr) {}
  Json(bool b) : value_(b) {}                          // NOLINT(runtime/explicit)
  Json(double d) : value_(d) {}                        // NOLINT(runtime/explicit)
  Json(std::int64_t i) : value_(i) {}                  // NOLINT(runtime/explicit)
  Json(std::uint64_t u) : value_(static_cast<std::int64_t>(u)) {}  // NOLINT
  Json(int i) : value_(static_cast<std::int64_t>(i)) {}            // NOLINT
  Json(std::string s) : value_(std::move(s)) {}        // NOLINT(runtime/explicit)
  Json(const char* s) : value_(std::string(s)) {}      // NOLINT(runtime/explicit)

  [[nodiscard]] static Json object() { return Json(Object{}); }
  [[nodiscard]] static Json array() { return Json(Array{}); }

  [[nodiscard]] bool is_null() const {
    return std::holds_alternative<std::nullptr_t>(value_);
  }
  [[nodiscard]] bool is_object() const {
    return std::holds_alternative<Object>(value_);
  }
  [[nodiscard]] bool is_array() const {
    return std::holds_alternative<Array>(value_);
  }

  /// Object: appends or overwrites a key.
  void set(const std::string& key, Json v);
  /// Object: pointer to the value at `key`, or nullptr.
  [[nodiscard]] const Json* find(const std::string& key) const;
  /// Object: value at `key`; throws std::out_of_range if missing.
  [[nodiscard]] const Json& at(const std::string& key) const;

  /// Array: appends an element.
  void push_back(Json v);
  /// Array: element i (throws std::out_of_range).
  [[nodiscard]] const Json& at(std::size_t i) const;
  [[nodiscard]] std::size_t size() const;

  [[nodiscard]] bool as_bool() const { return std::get<bool>(value_); }
  [[nodiscard]] std::int64_t as_int() const;
  /// Exactly the value a Json(std::uint64_t) was built from. Integers
  /// are stored as int64, so values >= 2^63 dump as negative numbers;
  /// as_uint reads them back through the same bit pattern.
  [[nodiscard]] std::uint64_t as_uint() const;
  /// Numeric value as double (works for both int and double nodes).
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const {
    return std::get<std::string>(value_);
  }

  /// Compact serialization (indent < 0) or pretty-printed with the given
  /// indent width. Deterministic: keys keep insertion order, doubles use
  /// shortest-round-trip formatting.
  [[nodiscard]] std::string dump(int indent = -1) const;

  /// Parses a JSON document; throws std::runtime_error on malformed
  /// input or trailing garbage.
  [[nodiscard]] static Json parse(std::string_view text);

  friend bool operator==(const Json&, const Json&) = default;

 private:
  using Value = std::variant<std::nullptr_t, bool, std::int64_t, double,
                             std::string, Array, Object>;
  explicit Json(Value v) : value_(std::move(v)) {}
  void dump_to(std::string& out, int indent, int depth) const;

  Value value_;
};

namespace report {

/// Full Metrics snapshot -> JSON (scalars, derived ratios, latency
/// histogram, and any collected time series).
[[nodiscard]] Json metrics_to_json(const sim::Metrics& m);

/// Inverse of metrics_to_json: reconstructs a snapshot that compares
/// equal (operator==) to the original. Throws std::runtime_error naming
/// the field when one is missing or malformed.
[[nodiscard]] sim::Metrics metrics_from_json(const Json& j);

/// Flat CSV of the scalar metric fields (no histogram / series).
[[nodiscard]] std::string metrics_csv_header();
[[nodiscard]] std::string metrics_csv_row(const sim::Metrics& m);
/// Parses a row written by metrics_csv_row back into a snapshot whose
/// scalar fields equal the original's. Throws std::runtime_error on a
/// column-count mismatch or, naming the column, on any column that is
/// not wholly a number of its field's type.
[[nodiscard]] sim::Metrics metrics_from_csv_row(const std::string& row);

}  // namespace report

}  // namespace spider::exp
