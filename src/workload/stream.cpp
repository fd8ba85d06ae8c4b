#include "workload/stream.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/parse.hpp"

namespace spider::workload {

namespace {

// Per-concern salts: each random concern of a stream draws from its own
// engine (seed ^ salt), so e.g. the burst-epoch schedule never perturbs
// the size sequence (same discipline as faults::generate_plan).
constexpr std::uint64_t kTimeSalt = 0x9e3779b97f4a7c15ull;
constexpr std::uint64_t kPairSalt = 0xc2b2ae3d27d4eb4full;
constexpr std::uint64_t kSizeSalt = 0x165667b19e3779f9ull;
constexpr std::uint64_t kBurstSalt = 0x27d4eb2f165667c5ull;

double parse_double(const std::string& key, const std::string& val) {
  return core::require_number<double>(
      val, "parse_stream_spec: bad value for " + key);
}

/// Synthetic generator: a (possibly time-varying) Poisson arrival
/// process via thinning against the peak rate, with the same size and
/// sender/receiver sampling as generate_trace.
class SyntheticStream final : public StreamGenerator {
 public:
  SyntheticStream(const StreamConfig& cfg, const graph::Graph& g)
      : cfg_(validated(cfg, g)),
        n_(g.node_count()),
        time_rng_(cfg.seed ^ kTimeSalt),
        pair_rng_(cfg.seed ^ kPairSalt),
        size_rng_(cfg.seed ^ kSizeSalt),
        burst_rng_(cfg.seed ^ kBurstSalt),
        size_dist_(std::log(cfg.mean_size) - cfg.sigma * cfg.sigma / 2.0,
                   cfg.sigma),
        gap_dist_(peak_rate(cfg)),
        sender_dist_(cfg.sender_skew),
        node_dist_(0, g.node_count() - 1),
        burst_gap_dist_(cfg.burst_every > 0 ? 1.0 / cfg.burst_every : 1.0) {
    if (cfg.kind == StreamKind::kFlash) {
      burst_start_ = burst_gap_dist_(burst_rng_);
    }
  }

  [[nodiscard]] std::string spec() const override {
    return workload::to_string(cfg_);
  }

 protected:
  [[nodiscard]] std::optional<core::PaymentRequest> do_next() override {
    advance_time();
    core::PaymentRequest tx;
    tx.arrival = t_;
    tx.src = sample_sender();
    do {
      tx.dst = static_cast<NodeId>(node_dist_(pair_rng_));
    } while (tx.dst == tx.src);
    tx.amount = core::from_units(sample_size());
    if (tx.amount <= 0) tx.amount = 1;
    return tx;
  }

 private:
  /// Runs every config check; initializes cfg_, the first member, so no
  /// distribution is built from a config that breaks its preconditions.
  static const StreamConfig& validated(const StreamConfig& cfg,
                                       const graph::Graph& g) {
    if (g.node_count() < 2) {
      throw std::invalid_argument("make_stream: need >= 2 nodes");
    }
    if (!(cfg.rate > 0)) {
      throw std::invalid_argument("make_stream: rate must be > 0");
    }
    if (cfg.mean_size <= 0 || cfg.max_size < cfg.mean_size) {
      throw std::invalid_argument("make_stream: bad size parameters");
    }
    if (!(cfg.sender_skew > 0)) {
      throw std::invalid_argument("make_stream: skew must be > 0");
    }
    if (cfg.kind == StreamKind::kDiurnal &&
        (cfg.amplitude < 0 || cfg.amplitude >= 1 || cfg.period <= 0)) {
      throw std::invalid_argument("make_stream: bad diurnal parameters");
    }
    if (cfg.kind == StreamKind::kFlash &&
        (cfg.burst_boost < 1 || cfg.burst_every <= 0 || cfg.burst_len <= 0)) {
      throw std::invalid_argument("make_stream: bad flash parameters");
    }
    return cfg;
  }

  static double peak_rate(const StreamConfig& cfg) {
    switch (cfg.kind) {
      case StreamKind::kDiurnal:
        return cfg.rate * (1.0 + cfg.amplitude);
      case StreamKind::kFlash:
        return cfg.rate * cfg.burst_boost;
      default:
        return cfg.rate;
    }
  }

  /// Instantaneous arrival rate at time `t`. For flash streams the
  /// burst-epoch window is advanced lazily as `t` passes it; epochs are
  /// a deterministic function of the consumed burst-stream draws.
  [[nodiscard]] double rate_at(double t) {
    switch (cfg_.kind) {
      case StreamKind::kDiurnal:
        return cfg_.rate * (1.0 + cfg_.amplitude *
                                       std::sin(2.0 * kPi * t / cfg_.period));
      case StreamKind::kFlash: {
        while (t >= burst_start_ + cfg_.burst_len) {
          burst_start_ = burst_start_ + cfg_.burst_len +
                         burst_gap_dist_(burst_rng_);
        }
        return t >= burst_start_ ? cfg_.rate * cfg_.burst_boost : cfg_.rate;
      }
      default:
        return cfg_.rate;
    }
  }

  /// Poisson thinning against the peak rate: propose exponential gaps
  /// at the peak, accept each proposal with probability rate(t)/peak.
  void advance_time() {
    if (cfg_.kind == StreamKind::kSteady) {
      t_ += gap_dist_(time_rng_);
      return;
    }
    const double peak = peak_rate(cfg_);
    while (true) {
      t_ += gap_dist_(time_rng_);
      const double accept = rate_at(t_) / peak;
      if (uni_(time_rng_) < accept) return;
    }
  }

  [[nodiscard]] double sample_size() {
    for (int tries = 0; tries < 1000; ++tries) {
      const double s = size_dist_(size_rng_);
      if (s <= cfg_.max_size && s >= 0.001) return s;
    }
    return cfg_.mean_size;  // pathological sigma; fall back to the mean
  }

  [[nodiscard]] NodeId sample_sender() {
    if (cfg_.sender == SenderDistribution::kUniform) {
      return static_cast<NodeId>(node_dist_(pair_rng_));
    }
    double x = sender_dist_(pair_rng_);
    while (x >= 1.0) x = sender_dist_(pair_rng_);
    return static_cast<NodeId>(x * static_cast<double>(n_));
  }

  static constexpr double kPi = 3.14159265358979323846;

  StreamConfig cfg_;
  std::size_t n_;
  std::mt19937_64 time_rng_;
  std::mt19937_64 pair_rng_;
  std::mt19937_64 size_rng_;
  std::mt19937_64 burst_rng_;
  std::lognormal_distribution<double> size_dist_;
  std::exponential_distribution<double> gap_dist_;
  std::exponential_distribution<double> sender_dist_;
  std::uniform_int_distribution<std::size_t> node_dist_;
  std::exponential_distribution<double> burst_gap_dist_;
  std::uniform_real_distribution<double> uni_{0.0, 1.0};
  double t_ = 0.0;
  double burst_start_ = 0.0;  // start of the current/next burst epoch
};

class TraceStream final : public StreamGenerator {
 public:
  TraceStream(Trace trace, std::string path)
      : trace_(std::move(trace)), path_(std::move(path)) {}

  [[nodiscard]] std::string spec() const override {
    return "trace;path=" + path_;
  }

 protected:
  [[nodiscard]] std::optional<core::PaymentRequest> do_next() override {
    if (cursor_ >= trace_.size()) return std::nullopt;
    return trace_[cursor_++];
  }

 private:
  Trace trace_;
  std::string path_;
  std::size_t cursor_ = 0;
};

}  // namespace

std::string to_string(StreamKind k) {
  switch (k) {
    case StreamKind::kSteady:
      return "steady";
    case StreamKind::kDiurnal:
      return "diurnal";
    case StreamKind::kFlash:
      return "flash";
    case StreamKind::kTrace:
      return "trace";
  }
  return "?";
}

StreamConfig parse_stream_spec(const std::string& spec) {
  StreamConfig cfg;
  std::size_t pos = 0;
  bool first = true;
  while (pos < spec.size()) {
    std::size_t end = spec.find(';', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) continue;
    if (first) {
      first = false;
      if (item == "steady") {
        cfg.kind = StreamKind::kSteady;
      } else if (item == "diurnal") {
        cfg.kind = StreamKind::kDiurnal;
      } else if (item == "flash") {
        cfg.kind = StreamKind::kFlash;
      } else if (item == "trace") {
        cfg.kind = StreamKind::kTrace;
      } else {
        throw std::invalid_argument("parse_stream_spec: unknown kind " + item);
      }
      continue;
    }
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("parse_stream_spec: expected key=value, got " +
                                  item);
    }
    const std::string key = item.substr(0, eq);
    const std::string val = item.substr(eq + 1);
    if (key == "rate") {
      cfg.rate = parse_double(key, val);
    } else if (key == "mean") {
      cfg.mean_size = parse_double(key, val);
    } else if (key == "max") {
      cfg.max_size = parse_double(key, val);
    } else if (key == "sigma") {
      cfg.sigma = parse_double(key, val);
    } else if (key == "skew") {
      cfg.sender_skew = parse_double(key, val);
    } else if (key == "sender") {
      if (val == "exp") {
        cfg.sender = SenderDistribution::kExponential;
      } else if (val == "uni") {
        cfg.sender = SenderDistribution::kUniform;
      } else {
        throw std::invalid_argument("parse_stream_spec: bad sender " + val);
      }
    } else if (key == "seed") {
      cfg.seed = core::require_number<std::uint64_t>(
          val, "parse_stream_spec: bad seed");
    } else if (key == "amp") {
      cfg.amplitude = parse_double(key, val);
    } else if (key == "period") {
      cfg.period = parse_double(key, val);
    } else if (key == "boost") {
      cfg.burst_boost = parse_double(key, val);
    } else if (key == "every") {
      cfg.burst_every = parse_double(key, val);
    } else if (key == "blen") {
      cfg.burst_len = parse_double(key, val);
    } else if (key == "path") {
      cfg.trace_path = val;
    } else {
      throw std::invalid_argument("parse_stream_spec: unknown key " + key);
    }
  }
  if (first) {
    throw std::invalid_argument("parse_stream_spec: empty spec");
  }
  return cfg;
}

std::string to_string(const StreamConfig& cfg) {
  std::string out = to_string(cfg.kind);
  if (cfg.kind == StreamKind::kTrace) {
    out += ";path=" + cfg.trace_path;
    return out;
  }
  out += ";rate=" + core::format_double(cfg.rate);
  out += ";mean=" + core::format_double(cfg.mean_size);
  out += ";max=" + core::format_double(cfg.max_size);
  out += ";sigma=" + core::format_double(cfg.sigma);
  out += ";skew=" + core::format_double(cfg.sender_skew);
  out += ";sender=";
  out += cfg.sender == SenderDistribution::kUniform ? "uni" : "exp";
  out += ";seed=" + std::to_string(cfg.seed);
  if (cfg.kind == StreamKind::kDiurnal) {
    out += ";amp=" + core::format_double(cfg.amplitude);
    out += ";period=" + core::format_double(cfg.period);
  } else if (cfg.kind == StreamKind::kFlash) {
    out += ";boost=" + core::format_double(cfg.burst_boost);
    out += ";every=" + core::format_double(cfg.burst_every);
    out += ";blen=" + core::format_double(cfg.burst_len);
  }
  return out;
}

std::unique_ptr<StreamGenerator> make_stream(const StreamConfig& cfg,
                                             const graph::Graph& g) {
  if (cfg.kind == StreamKind::kTrace) {
    if (cfg.trace_path.empty()) {
      throw std::invalid_argument("make_stream: trace spec needs path=");
    }
    return std::make_unique<TraceStream>(load_trace_csv(cfg.trace_path),
                                         cfg.trace_path);
  }
  return std::make_unique<SyntheticStream>(cfg, g);
}

std::unique_ptr<StreamGenerator> make_stream(const std::string& spec,
                                             const graph::Graph& g) {
  return make_stream(parse_stream_spec(spec), g);
}

std::unique_ptr<StreamGenerator> make_trace_stream(Trace trace) {
  return std::make_unique<TraceStream>(std::move(trace), "");
}

}  // namespace spider::workload
