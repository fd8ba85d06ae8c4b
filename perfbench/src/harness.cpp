#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <string>

#include "alloc_count.hpp"
#include "exp/report.hpp"

namespace perfbench {

namespace {

/// Reads one "Key:   N kB" line of /proc/self/status, in MiB.
double status_mb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::stod(line.substr(prefix.size())) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double rss_mb() { return status_mb("VmRSS"); }
double peak_rss_mb() { return status_mb("VmHWM"); }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double interpolated_quantile(const spider::exp::Histogram& h, double q) {
  if (h.count() == 0) return 0.0;
  const std::vector<std::uint64_t>& counts = h.counts();
  const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(h.count());
  const double step = 1.0 / static_cast<double>(h.buckets_per_decade());
  double cum = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const auto c = static_cast<double>(counts[i]);
    if (c > 0 && cum + c >= target) {
      // Bucket i > 0 spans [min * 10^((i-1)*step), min * 10^(i*step)).
      const double frac = std::clamp((target - cum) / c, 0.0, 1.0);
      const double lo_exp = (static_cast<double>(i) - 1.0) * step;
      const double v = i == 0 ? h.min_value()
                              : h.min_value() *
                                    std::pow(10.0, lo_exp + frac * step);
      return std::clamp(v, h.min_seen(), h.max_seen());
    }
    cum += c;
  }
  return h.max_seen();
}

std::uint64_t metrics_digest(const spider::sim::Metrics& m) {
  const std::string text = spider::exp::report::metrics_to_json(m).dump();
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

Tracer::Span Tracer::span(std::string name) {
  if (!enabled_) return Span(nullptr, -1);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Record{std::move(name), now_s() - origin_, -1,
                          open_.empty() ? -1 : open_.back()});
  open_.push_back(id);
  return Span(this, id);
}

void Tracer::close(int id) {
  spans_[static_cast<std::size_t>(id)].end = now_s() - origin_;
  // Guards close in reverse order of opening, so `id` is on top.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

double Tracer::total_s(const std::string& name) const {
  double sum = 0;
  for (const Record& r : spans_) {
    if (r.name == name && r.end >= 0) sum += r.end - r.start;
  }
  return sum;
}

void Tracer::write_json(std::ostream& os) const {
  os << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    char buf[96];
    std::snprintf(buf, sizeof(buf), "\"start\":%.9f,\"end\":%.9f,\"parent\":%d",
                  r.start, r.end, r.parent);
    os << "{\"id\":" << i << ",\"name\":\"" << r.name << "\"," << buf << "}"
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]\n";
}

void TimedScheme::prepare(const spider::graph::Graph& g,
                          const std::vector<spider::core::Amount>& edge_capacity,
                          const spider::fluid::PaymentGraph& demand_estimate,
                          double delta) {
  const std::uint64_t a0 = alloc_count();
  const double t0 = now_s();
  inner_.prepare(g, edge_capacity, demand_estimate, delta);
  stats_.prepare_s += now_s() - t0;
  stats_.prepare_allocs += alloc_count() - a0;
}

std::vector<spider::sim::RouteChoice> TimedScheme::route(
    const spider::core::PaymentRequest& req, spider::core::Amount remaining,
    const spider::core::ChannelNetwork& net, spider::core::TimePoint now) {
  ++stats_.route_calls;
  if (!time_routes_) {
    std::vector<spider::sim::RouteChoice> out =
        inner_.route(req, remaining, net, now);
    if (!out.empty()) ++stats_.route_sends;
    return out;
  }
  const double t0 = now_s();
  std::vector<spider::sim::RouteChoice> out =
      inner_.route(req, remaining, net, now);
  const double dt = now_s() - t0;
  stats_.route_s += dt;
  stats_.route_us.add(dt * 1e6);
  if (!out.empty()) ++stats_.route_sends;
  return out;
}

}  // namespace perfbench
