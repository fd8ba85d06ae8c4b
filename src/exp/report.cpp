#include "exp/report.hpp"

#include <charconv>
#include <cstdio>
#include <stdexcept>

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

}  // namespace

Json metrics_to_json(const sim::Metrics& m) {
  Json j = Json::object();
  j.set("attempted", m.attempted);
  j.set("succeeded", m.succeeded);
  j.set("partial", m.partial);
  j.set("failed", m.failed);
  j.set("attempted_volume", static_cast<std::int64_t>(m.attempted_volume));
  j.set("delivered_volume", static_cast<std::int64_t>(m.delivered_volume));
  j.set("completed_volume", static_cast<std::int64_t>(m.completed_volume));
  j.set("total_attempt_rounds", m.total_attempt_rounds);
  j.set("units_sent", m.units_sent);
  j.set("sum_completion_latency", m.sum_completion_latency);
  j.set("rebalance_events", m.rebalance_events);
  j.set("rebalanced_volume", static_cast<std::int64_t>(m.rebalanced_volume));
  j.set("fees_paid", static_cast<std::int64_t>(m.fees_paid));
  j.set("fault_events_applied", m.fault_events_applied);
  j.set("fault_node_downs", m.fault_node_downs);
  j.set("fault_channel_closures", m.fault_channel_closures);
  j.set("fault_withhold_spells", m.fault_withhold_spells);
  j.set("fault_stale_spells", m.fault_stale_spells);
  j.set("fault_units_failed", m.fault_units_failed);
  j.set("fault_reroutes", m.fault_reroutes);
  j.set("fault_withheld_acks", m.fault_withheld_acks);
  j.set("fault_stale_decisions", m.fault_stale_decisions);
  j.set("fault_backoff_retries", m.fault_backoff_retries);
  j.set("fault_jam_spells", m.fault_jam_spells);
  j.set("fault_jam_locked_volume",
        static_cast<std::int64_t>(m.fault_jam_locked_volume));
  j.set("fault_grief_spells", m.fault_grief_spells);
  j.set("fault_griefed_acks", m.fault_griefed_acks);
  j.set("cc_marked_acks", m.cc_marked_acks);
  j.set("cc_window_decreases", m.cc_window_decreases);
  j.set("cc_timeout_retries", m.cc_timeout_retries);
  // Derived values, for report consumers (ignored by metrics_from_json).
  j.set("success_ratio", m.success_ratio());
  j.set("success_volume", m.success_volume());
  j.set("mean_completion_latency", m.mean_completion_latency());
  j.set("latency_p50", m.latency_p50());
  j.set("latency_p95", m.latency_p95());
  j.set("latency_p99", m.latency_p99());
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
  m.attempted = j.at("attempted").as_uint();
  m.succeeded = j.at("succeeded").as_uint();
  m.partial = j.at("partial").as_uint();
  m.failed = j.at("failed").as_uint();
  m.attempted_volume = j.at("attempted_volume").as_int();
  m.delivered_volume = j.at("delivered_volume").as_int();
  m.completed_volume = j.at("completed_volume").as_int();
  m.total_attempt_rounds = j.at("total_attempt_rounds").as_uint();
  m.units_sent = j.at("units_sent").as_uint();
  m.sum_completion_latency = j.at("sum_completion_latency").as_double();
  m.rebalance_events = j.at("rebalance_events").as_uint();
  m.rebalanced_volume = j.at("rebalanced_volume").as_int();
  m.fees_paid = j.at("fees_paid").as_int();
  m.fault_events_applied = j.at("fault_events_applied").as_uint();
  m.fault_node_downs = j.at("fault_node_downs").as_uint();
  m.fault_channel_closures = j.at("fault_channel_closures").as_uint();
  m.fault_withhold_spells = j.at("fault_withhold_spells").as_uint();
  m.fault_stale_spells = j.at("fault_stale_spells").as_uint();
  m.fault_units_failed = j.at("fault_units_failed").as_uint();
  m.fault_reroutes = j.at("fault_reroutes").as_uint();
  m.fault_withheld_acks = j.at("fault_withheld_acks").as_uint();
  m.fault_stale_decisions = j.at("fault_stale_decisions").as_uint();
  m.fault_backoff_retries = j.at("fault_backoff_retries").as_uint();
  m.fault_jam_spells = j.at("fault_jam_spells").as_uint();
  m.fault_jam_locked_volume = j.at("fault_jam_locked_volume").as_int();
  m.fault_grief_spells = j.at("fault_grief_spells").as_uint();
  m.fault_griefed_acks = j.at("fault_griefed_acks").as_uint();
  m.cc_marked_acks = j.at("cc_marked_acks").as_uint();
  m.cc_window_decreases = j.at("cc_window_decreases").as_uint();
  m.cc_timeout_retries = j.at("cc_timeout_retries").as_uint();
  m.latency_hist = histogram_from_json(j.at("latency_hist"));
  m.series_bucket = j.at("series_bucket").as_double();
  m.delivered_series = double_series_from_json(j.at("delivered_series"));
  const Json& chans = j.at("channel_imbalance_series");
  m.channel_imbalance_series.reserve(chans.size());
  for (std::size_t i = 0; i < chans.size(); ++i) {
    m.channel_imbalance_series.push_back(
        double_series_from_json(chans.at(i)));
  }
  m.queue_depth_series = double_series_from_json(j.at("queue_depth_series"));
  return m;
}

std::string metrics_csv_header() {
  return "attempted,succeeded,partial,failed,attempted_volume,"
         "delivered_volume,completed_volume,total_attempt_rounds,"
         "units_sent,sum_completion_latency,rebalance_events,"
         "rebalanced_volume,fees_paid,fault_events_applied,"
         "fault_node_downs,fault_channel_closures,fault_withhold_spells,"
         "fault_stale_spells,fault_units_failed,fault_reroutes,"
         "fault_withheld_acks,fault_stale_decisions,fault_backoff_retries,"
         "fault_jam_spells,fault_jam_locked_volume,fault_grief_spells,"
         "fault_griefed_acks,"
         "cc_marked_acks,cc_window_decreases,cc_timeout_retries,"
         "success_ratio,success_volume,"
         "mean_completion_latency,latency_p50,latency_p95,latency_p99";
}

std::string metrics_csv_row(const sim::Metrics& m) {
  std::string row;
  const auto add_u = [&](std::uint64_t v) {
    if (!row.empty()) row.push_back(',');
    row += std::to_string(v);
  };
  const auto add_i = [&](std::int64_t v) {
    if (!row.empty()) row.push_back(',');
    row += std::to_string(v);
  };
  const auto add_d = [&](double v) {
    if (!row.empty()) row.push_back(',');
    row += format_double(v);
  };
  add_u(m.attempted);
  add_u(m.succeeded);
  add_u(m.partial);
  add_u(m.failed);
  add_i(m.attempted_volume);
  add_i(m.delivered_volume);
  add_i(m.completed_volume);
  add_u(m.total_attempt_rounds);
  add_u(m.units_sent);
  add_d(m.sum_completion_latency);
  add_u(m.rebalance_events);
  add_i(m.rebalanced_volume);
  add_i(m.fees_paid);
  add_u(m.fault_events_applied);
  add_u(m.fault_node_downs);
  add_u(m.fault_channel_closures);
  add_u(m.fault_withhold_spells);
  add_u(m.fault_stale_spells);
  add_u(m.fault_units_failed);
  add_u(m.fault_reroutes);
  add_u(m.fault_withheld_acks);
  add_u(m.fault_stale_decisions);
  add_u(m.fault_backoff_retries);
  add_u(m.fault_jam_spells);
  add_i(m.fault_jam_locked_volume);
  add_u(m.fault_grief_spells);
  add_u(m.fault_griefed_acks);
  add_u(m.cc_marked_acks);
  add_u(m.cc_window_decreases);
  add_u(m.cc_timeout_retries);
  add_d(m.success_ratio());
  add_d(m.success_volume());
  add_d(m.mean_completion_latency());
  add_d(m.latency_p50());
  add_d(m.latency_p95());
  add_d(m.latency_p99());
  return row;
}

sim::Metrics metrics_from_csv_row(const std::string& row) {
  std::vector<std::string> cols;
  std::string cur;
  for (const char c : row) {
    if (c == ',') {
      cols.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  cols.push_back(cur);
  constexpr std::size_t kColumns = 36;
  if (cols.size() != kColumns) {
    throw std::runtime_error("metrics_from_csv_row: expected 36 columns, got " +
                             std::to_string(cols.size()));
  }
  const auto get_u = [&](std::size_t i) -> std::uint64_t {
    return std::stoull(cols[i]);
  };
  const auto get_i = [&](std::size_t i) -> std::int64_t {
    return std::stoll(cols[i]);
  };
  const auto get_d = [&](std::size_t i) -> double {
    double d = 0;
    const auto& s = cols[i];
    const auto res = std::from_chars(s.data(), s.data() + s.size(), d);
    if (res.ec != std::errc()) {
      throw std::runtime_error("metrics_from_csv_row: bad double " + s);
    }
    return d;
  };
  sim::Metrics m;
  m.attempted = get_u(0);
  m.succeeded = get_u(1);
  m.partial = get_u(2);
  m.failed = get_u(3);
  m.attempted_volume = get_i(4);
  m.delivered_volume = get_i(5);
  m.completed_volume = get_i(6);
  m.total_attempt_rounds = get_u(7);
  m.units_sent = get_u(8);
  m.sum_completion_latency = get_d(9);
  m.rebalance_events = get_u(10);
  m.rebalanced_volume = get_i(11);
  m.fees_paid = get_i(12);
  m.fault_events_applied = get_u(13);
  m.fault_node_downs = get_u(14);
  m.fault_channel_closures = get_u(15);
  m.fault_withhold_spells = get_u(16);
  m.fault_stale_spells = get_u(17);
  m.fault_units_failed = get_u(18);
  m.fault_reroutes = get_u(19);
  m.fault_withheld_acks = get_u(20);
  m.fault_stale_decisions = get_u(21);
  m.fault_backoff_retries = get_u(22);
  m.fault_jam_spells = get_u(23);
  m.fault_jam_locked_volume = get_i(24);
  m.fault_grief_spells = get_u(25);
  m.fault_griefed_acks = get_u(26);
  m.cc_marked_acks = get_u(27);
  m.cc_window_decreases = get_u(28);
  m.cc_timeout_retries = get_u(29);
  // Columns 30..35 are derived values; recomputed from the fields above.
  return m;
}

}  // namespace report

}  // namespace spider::exp
