#include "exp/report.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <stdexcept>
#include <type_traits>

namespace spider::exp {

namespace {

/// Shortest-round-trip double formatting: deterministic, and parsing the
/// result recovers the exact bit pattern (std::to_chars guarantee).
std::string format_double(double d) {
  char buf[40];
  const auto res = std::to_chars(buf, buf + sizeof buf, d);
  return std::string(buf, res.ptr);
}

void escape_string(const std::string& s, std::string& out) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json run() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error("Json::parse: " + std::string(what) +
                             " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  bool consume_keyword(std::string_view kw) {
    if (text_.substr(pos_, kw.size()) != kw) return false;
    pos_ += kw.size();
    return true;
  }

  Json parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        if (!consume_keyword("true")) fail("bad keyword");
        return Json(true);
      case 'f':
        if (!consume_keyword("false")) fail("bad keyword");
        return Json(false);
      case 'n':
        if (!consume_keyword("null")) fail("bad keyword");
        return Json();
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(key, parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return obj;
    }
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return arr;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("bad \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // UTF-8 encode (BMP only; surrogate pairs are out of scope for
          // the reports we emit).
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    bool is_double = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        if (c == '.' || c == 'e' || c == 'E') is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (tok.empty() || tok == "-") fail("bad number");
    if (!is_double) {
      std::int64_t i = 0;
      const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), i);
      if (res.ec == std::errc() && res.ptr == tok.data() + tok.size()) {
        return Json(i);
      }
      // fall through (overflowing integer) to double
    }
    double d = 0;
    const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), d);
    if (res.ec != std::errc() || res.ptr != tok.data() + tok.size()) {
      fail("bad number");
    }
    return Json(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

void Json::set(const std::string& key, Json v) {
  auto& obj = std::get<Object>(value_);
  for (auto& [k, old] : obj) {
    if (k == key) {
      old = std::move(v);
      return;
    }
  }
  obj.emplace_back(key, std::move(v));
}

const Json* Json::find(const std::string& key) const {
  const auto& obj = std::get<Object>(value_);
  for (const auto& [k, v] : obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(const std::string& key) const {
  const Json* v = find(key);
  if (v == nullptr) throw std::out_of_range("Json: missing key " + key);
  return *v;
}

void Json::push_back(Json v) {
  std::get<Array>(value_).push_back(std::move(v));
}

const Json& Json::at(std::size_t i) const {
  return std::get<Array>(value_).at(i);
}

std::size_t Json::size() const {
  if (const auto* a = std::get_if<Array>(&value_)) return a->size();
  if (const auto* o = std::get_if<Object>(&value_)) return o->size();
  throw std::logic_error("Json::size on a scalar");
}

std::int64_t Json::as_int() const { return std::get<std::int64_t>(value_); }

std::uint64_t Json::as_uint() const {
  // Inverse of Json(std::uint64_t): values >= 2^63 are stored (and
  // dumped) as the negative int64 with the same bit pattern.
  return static_cast<std::uint64_t>(std::get<std::int64_t>(value_));
}

double Json::as_double() const {
  if (const auto* i = std::get_if<std::int64_t>(&value_)) {
    return static_cast<double>(*i);
  }
  return std::get<double>(value_);
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent < 0) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  if (std::holds_alternative<std::nullptr_t>(value_)) {
    out += "null";
  } else if (const auto* b = std::get_if<bool>(&value_)) {
    out += *b ? "true" : "false";
  } else if (const auto* i = std::get_if<std::int64_t>(&value_)) {
    out += std::to_string(*i);
  } else if (const auto* d = std::get_if<double>(&value_)) {
    out += format_double(*d);
  } else if (const auto* s = std::get_if<std::string>(&value_)) {
    escape_string(*s, out);
  } else if (const auto* arr = std::get_if<Array>(&value_)) {
    out.push_back('[');
    for (std::size_t k = 0; k < arr->size(); ++k) {
      if (k > 0) out.push_back(',');
      newline(depth + 1);
      (*arr)[k].dump_to(out, indent, depth + 1);
    }
    if (!arr->empty()) newline(depth);
    out.push_back(']');
  } else {
    const auto& obj = std::get<Object>(value_);
    out.push_back('{');
    for (std::size_t k = 0; k < obj.size(); ++k) {
      if (k > 0) out.push_back(',');
      newline(depth + 1);
      escape_string(obj[k].first, out);
      out.push_back(':');
      if (indent >= 0) out.push_back(' ');
      obj[k].second.dump_to(out, indent, depth + 1);
    }
    if (!obj.empty()) newline(depth);
    out.push_back('}');
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

Json Json::parse(std::string_view text) { return Parser(text).run(); }

namespace report {

namespace {

Json histogram_to_json(const Histogram& h) {
  Json j = Json::object();
  j.set("min", h.min_value());
  j.set("max", h.max_value());
  j.set("buckets_per_decade", h.buckets_per_decade());
  j.set("count", h.count());
  j.set("sum", h.sum());
  j.set("min_seen", h.min_seen());
  j.set("max_seen", h.max_seen());
  // Sparse [bucket_index, count] pairs: latency histograms are mostly
  // empty buckets.
  Json counts = Json::array();
  const auto& c = h.counts();
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (c[i] == 0) continue;
    Json pair = Json::array();
    pair.push_back(static_cast<std::uint64_t>(i));
    pair.push_back(c[i]);
    counts.push_back(std::move(pair));
  }
  j.set("counts", std::move(counts));
  return j;
}

Histogram histogram_from_json(const Json& j) {
  Histogram h(j.at("min").as_double(), j.at("max").as_double(),
              static_cast<int>(j.at("buckets_per_decade").as_int()));
  std::vector<std::uint64_t> counts(h.counts().size(), 0);
  const Json& sparse = j.at("counts");
  for (std::size_t k = 0; k < sparse.size(); ++k) {
    const Json& pair = sparse.at(k);
    const auto idx = static_cast<std::size_t>(pair.at(0).as_uint());
    if (idx >= counts.size()) {
      throw std::runtime_error("metrics_from_json: histogram bucket out of range");
    }
    counts[idx] = pair.at(1).as_uint();
  }
  h.restore(std::move(counts), j.at("count").as_uint(),
            j.at("sum").as_double(), j.at("min_seen").as_double(),
            j.at("max_seen").as_double());
  return h;
}

Json double_series_to_json(const std::vector<double>& s) {
  Json arr = Json::array();
  for (const double v : s) arr.push_back(v);
  return arr;
}

std::vector<double> double_series_from_json(const Json& arr) {
  std::vector<double> out;
  out.reserve(arr.size());
  for (std::size_t i = 0; i < arr.size(); ++i) {
    out.push_back(arr.at(i).as_double());
  }
  return out;
}

/// A JSON number as T, the type of the Metrics member it fills.
template <typename T>
T json_as(const Json& v) {
  if constexpr (std::is_same_v<T, double>) {
    return v.as_double();
  } else if constexpr (std::is_unsigned_v<T>) {
    return v.as_uint();
  } else {
    return v.as_int();
  }
}

/// Reads field `key` of object `j` with `read`, turning a missing key or
/// a malformed value into std::runtime_error naming the field.
template <typename Read>
auto read_field(const Json& j, const std::string& key, Read read) {
  const Json* v = j.is_object() ? j.find(key) : nullptr;
  if (v == nullptr) {
    throw std::runtime_error("metrics_from_json: missing field " + key);
  }
  try {
    return read(*v);
  } catch (const std::bad_variant_access&) {
    throw std::runtime_error("metrics_from_json: field " + key +
                             " has the wrong type");
  } catch (const std::logic_error& e) {
    throw std::runtime_error("metrics_from_json: field " + key +
                             " is malformed: " + e.what());
  }
}

/// Parses one whole CSV column as T; throws std::runtime_error naming
/// the column unless every character is consumed.
template <typename T>
T parse_column(std::string_view col, const char* name) {
  T v{};
  const auto res = std::from_chars(col.data(), col.data() + col.size(), v);
  if (res.ec != std::errc() || res.ptr != col.data() + col.size()) {
    throw std::runtime_error("metrics_from_csv_row: bad value '" +
                             std::string(col) + "' in column " + name);
  }
  return v;
}

}  // namespace

Json metrics_to_json(const sim::Metrics& m) {
  Json j = Json::object();
  sim::for_each_counter(
      m, [&j](const char* name, const auto& v) { j.set(name, v); });
  // Derived values, for report consumers (ignored by metrics_from_json).
  for (const sim::DerivedMetric& d : sim::kDerivedMetrics) {
    j.set(d.name, (m.*d.value)());
  }
  j.set("latency_hist", histogram_to_json(m.latency_hist));
  j.set("series_bucket", m.series_bucket);
  j.set("delivered_series", double_series_to_json(m.delivered_series));
  Json chans = Json::array();
  for (const auto& s : m.channel_imbalance_series) {
    chans.push_back(double_series_to_json(s));
  }
  j.set("channel_imbalance_series", std::move(chans));
  j.set("queue_depth_series", double_series_to_json(m.queue_depth_series));
  return j;
}

sim::Metrics metrics_from_json(const Json& j) {
  sim::Metrics m;
  sim::for_each_counter(m, [&j](const char* name, auto& v) {
    using T = std::remove_reference_t<decltype(v)>;
    v = read_field(j, name, json_as<T>);
  });
  m.latency_hist = read_field(j, "latency_hist", histogram_from_json);
  m.series_bucket = read_field(j, "series_bucket", json_as<double>);
  m.delivered_series =
      read_field(j, "delivered_series", double_series_from_json);
  m.channel_imbalance_series =
      read_field(j, "channel_imbalance_series", [](const Json& chans) {
        std::vector<std::vector<double>> out;
        out.reserve(chans.size());
        for (std::size_t i = 0; i < chans.size(); ++i) {
          out.push_back(double_series_from_json(chans.at(i)));
        }
        return out;
      });
  m.queue_depth_series =
      read_field(j, "queue_depth_series", double_series_from_json);
  return m;
}

std::string metrics_csv_header() {
  // Every counter, then every derived value.
  std::string header;
  const auto add = [&header](const char* name, const auto&...) {
    if (!header.empty()) header.push_back(',');
    header += name;
  };
  sim::for_each_counter(sim::Metrics{}, add);
  for (const sim::DerivedMetric& d : sim::kDerivedMetrics) add(d.name);
  return header;
}

std::string metrics_csv_row(const sim::Metrics& m) {
  std::string row;
  const auto add = [&row](const auto v) {
    if (!row.empty()) row.push_back(',');
    if constexpr (std::is_same_v<decltype(v), const double>) {
      row += format_double(v);
    } else {
      row += std::to_string(v);
    }
  };
  sim::for_each_counter(m, [&add](const char*, const auto& v) { add(v); });
  for (const sim::DerivedMetric& d : sim::kDerivedMetrics) add((m.*d.value)());
  return row;
}

sim::Metrics metrics_from_csv_row(const std::string& row) {
  std::vector<std::string_view> cols;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = row.find(',', start);
    const std::size_t end = comma == std::string::npos ? row.size() : comma;
    cols.emplace_back(row.data() + start, end - start);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  const std::string header = metrics_csv_header();
  const auto expected = static_cast<std::size_t>(
      std::count(header.begin(), header.end(), ',') + 1);
  if (cols.size() != expected) {
    throw std::runtime_error("metrics_from_csv_row: expected " +
                             std::to_string(expected) + " columns, got " +
                             std::to_string(cols.size()));
  }
  sim::Metrics m;
  std::size_t k = 0;
  sim::for_each_counter(m, [&](const char* name, auto& v) {
    v = parse_column<std::remove_reference_t<decltype(v)>>(cols[k++], name);
  });
  // Derived columns are validated, then recomputed from the fields above.
  for (const sim::DerivedMetric& d : sim::kDerivedMetrics) {
    (void)parse_column<double>(cols[k++], d.name);
  }
  return m;
}

}  // namespace report

}  // namespace spider::exp
