#pragma once
// Pull-based transaction streams for the long-running service mode
// (DESIGN.md §13). Where generate_trace materializes a fixed-size
// vector up front, a StreamGenerator emits one transaction at a time
// with non-decreasing arrival times, so an open-ended run's memory is
// bounded by the *in-flight* work, never by the stream length.
//
// Determinism contract: a generator is a pure function of its spec
// string (every knob, including the seed, round-trips through it), and
// every random concern draws from its own salted engine -- arrival
// times, (src, dst) pairs, sizes, and flash-crowd burst epochs each
// have a dedicated stream derived from the one seed. Changing the
// burst schedule therefore never perturbs the size sequence, mirroring
// the per-kind salting of faults::generate_plan. The service layer's
// replay-based snapshot/restore leans on this: `make_stream(spec)`
// + `skip(n)` reproduces a generator mid-stream exactly.
//
// Spec syntax (';'-separated so a spec rides inside CSV cells):
//
//   "steady;rate=20;mean=170;max=1780;sigma=1;skew=4;sender=exp;seed=1"
//   "diurnal;rate=20;amp=0.5;period=600;..."
//   "flash;rate=20;boost=8;every=300;blen=15;..."
//   "trace;path=/path/to/trace.csv"
//
// Every key is optional; `make_stream` parses, `spec()` returns the
// canonical form (parse round-trips it).

#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <string>

#include "graph/graph.hpp"
#include "workload/workload.hpp"

namespace spider::workload {

/// Synthetic stream shape.
enum class StreamKind : std::uint8_t {
  kSteady,   // homogeneous Poisson arrivals at `rate`
  kDiurnal,  // sinusoidal rate modulation: rate * (1 + amp*sin(2πt/T))
  kFlash,    // steady base rate with burst epochs at salted times
  kTrace,    // replay of a CSV trace (workload::read_trace_csv format)
};

[[nodiscard]] std::string to_string(StreamKind k);

struct StreamConfig {
  StreamKind kind = StreamKind::kSteady;
  /// Mean arrivals per second (the base rate for diurnal/flash).
  double rate = 10.0;
  /// Size sampling, same semantics as WorkloadConfig.
  double mean_size = 170.0;
  double max_size = 1780.0;
  double sigma = 1.0;
  SenderDistribution sender = SenderDistribution::kExponential;
  double sender_skew = 4.0;
  std::uint64_t seed = 1;
  /// kDiurnal: relative amplitude in [0, 1) and period in seconds.
  double amplitude = 0.5;
  double period = 600.0;
  /// kFlash: rate multiplier inside a burst epoch, mean epoch spacing
  /// (exponential, drawn from the burst stream), and epoch length.
  double burst_boost = 8.0;
  double burst_every = 300.0;
  double burst_len = 15.0;
  /// kTrace: CSV path (load_trace_csv).
  std::string trace_path;
};

/// Parses the spec syntax above. Throws std::invalid_argument on
/// unknown kinds/keys or malformed numbers.
[[nodiscard]] StreamConfig parse_stream_spec(const std::string& spec);

/// Canonical spec string (parse_stream_spec round-trips it).
[[nodiscard]] std::string to_string(const StreamConfig& cfg);

class StreamGenerator {
 public:
  virtual ~StreamGenerator() = default;

  /// The next transaction, or nullopt once the stream is exhausted
  /// (synthetic streams never are; trace streams end at the trace).
  /// Arrival times are non-decreasing across calls.
  [[nodiscard]] std::optional<core::PaymentRequest> next() {
    std::optional<core::PaymentRequest> tx = do_next();
    if (tx.has_value()) ++emitted_;
    return tx;
  }

  /// Transactions emitted so far.
  [[nodiscard]] std::uint64_t emitted() const { return emitted_; }

  /// Discards the next `n` transactions (replay-based restore: a fresh
  /// generator skipped to a snapshot's emitted() count is byte-
  /// identical to the original from that point on).
  void skip(std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      if (!next().has_value()) break;
    }
  }

  /// Canonical spec of this generator (make_stream round-trips it).
  [[nodiscard]] virtual std::string spec() const = 0;

 protected:
  [[nodiscard]] virtual std::optional<core::PaymentRequest> do_next() = 0;

 private:
  std::uint64_t emitted_ = 0;
};

/// Builds a generator over the nodes of `g` from a parsed config.
/// Throws std::invalid_argument on bad parameters (rate <= 0 on a
/// synthetic stream, amplitude outside [0, 1), fewer than 2 nodes).
[[nodiscard]] std::unique_ptr<StreamGenerator> make_stream(
    const StreamConfig& cfg, const graph::Graph& g);

/// Convenience: parse + build in one step.
[[nodiscard]] std::unique_ptr<StreamGenerator> make_stream(
    const std::string& spec, const graph::Graph& g);

/// Builds a trace-replay generator from an in-memory trace (tests and
/// programmatic drivers; `spec()` reports the canonical trace spec with
/// an empty path, so file-free streams snapshot only via a caller-
/// supplied factory).
[[nodiscard]] std::unique_ptr<StreamGenerator> make_trace_stream(
    Trace trace);

}  // namespace spider::workload
