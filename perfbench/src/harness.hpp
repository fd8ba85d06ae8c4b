#pragma once
// Measurement plumbing shared by the benchmark workloads: a wall clock,
// process memory probes, an in-memory span tracer, a pass-through
// routing-scheme wrapper that times calls into a scheme, and a digest
// of sim::Metrics used by the output checks.

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "exp/histogram.hpp"
#include "sim/metrics.hpp"
#include "sim/scheme.hpp"

namespace perfbench {

/// Seconds on the host's monotonic clock.
[[nodiscard]] inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Resident set size now, and the process high-water mark, in MiB.
[[nodiscard]] double rss_mb();
[[nodiscard]] double peak_rss_mb();

/// Median (mean of the middle pair for even sizes); 0 for empty input.
[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank quantile q in [0, 1]; 0 for empty input.
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// Quantile q of `h`, interpolated log-linearly inside the bucket that
/// holds the target rank and clamped to the smallest and largest
/// sample. Histogram::quantile() returns the bucket's midpoint, which
/// jumps by a whole bucket (~15%) as the distribution shifts; this
/// estimate moves continuously with it.
[[nodiscard]] double interpolated_quantile(const spider::exp::Histogram& h,
                                           double q);

/// FNV-1a over the JSON form of every Metrics field (exp::report), so
/// runs whose Metrics differ get different digests.
[[nodiscard]] std::uint64_t metrics_digest(const spider::sim::Metrics& m);

/// Spans (name, start, end, parent) recorded around calls into the
/// library, kept in memory until the benchmark writes them out. A
/// disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(now_s()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  class Span {
   public:
    Span(Tracer* t, int id) : tracer_(t), id_(id) {}
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() {
      if (tracer_ != nullptr) tracer_->close(id_);
    }

   private:
    Tracer* tracer_;
    int id_;
  };

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span that closes when the returned guard is destroyed; the
  /// innermost open span is its parent.
  [[nodiscard]] Span span(std::string name);

  /// Sum of the durations of closed spans called `name`.
  [[nodiscard]] double total_s(const std::string& name) const;

  /// Writes every span as one JSON array (times relative to the
  /// tracer's construction, in seconds).
  void write_json(std::ostream& os) const;

 private:
  struct Record {
    std::string name;
    double start = 0;
    double end = -1;
    int parent = -1;
  };
  void close(int id);

  bool enabled_;
  double origin_;
  std::vector<Record> spans_;
  std::vector<int> open_;
};

/// Per-scheme call statistics gathered by TimedScheme. Route calls run
/// millions of times, so they are aggregated here rather than kept as
/// one span each.
struct SchemeStats {
  double prepare_s = 0;
  std::uint64_t prepare_allocs = 0;
  double route_s = 0;                  // traced runs only
  std::uint64_t route_calls = 0;
  std::uint64_t route_sends = 0;       // calls that returned a send
  spider::exp::Histogram route_us{1e-2, 1e6, 32};  // traced runs only
};

/// Pass-through sim::RoutingScheme: forwards every call to `inner`
/// unchanged and records call counts and prepare() time into `stats`;
/// with `time_routes` it also times each route() call. Metrics are
/// identical to running `inner` directly (the fidelity test pins it).
class TimedScheme final : public spider::sim::RoutingScheme {
 public:
  TimedScheme(spider::sim::RoutingScheme& inner, SchemeStats& stats,
              bool time_routes)
      : inner_(inner), stats_(stats), time_routes_(time_routes) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] bool atomic() const override { return inner_.atomic(); }
  void prepare(const spider::graph::Graph& g,
               const std::vector<spider::core::Amount>& edge_capacity,
               const spider::fluid::PaymentGraph& demand_estimate,
               double delta) override;
  [[nodiscard]] std::vector<spider::sim::RouteChoice> route(
      const spider::core::PaymentRequest& req, spider::core::Amount remaining,
      const spider::core::ChannelNetwork& net,
      spider::core::TimePoint now) override;

 private:
  spider::sim::RoutingScheme& inner_;
  SchemeStats& stats_;
  bool time_routes_;
};

/// A named per-layer value as printed in the traced run's output.
struct LayerMetric {
  std::string name;
  double value = 0;
  std::string unit;
};

}  // namespace perfbench
