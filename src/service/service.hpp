#pragma once
// Long-running service mode (DESIGN.md §13): a streaming driver around
// sim::PacketSimulator.
//
// Where exp::run_trial materializes a whole trace and replays it, the
// Service pulls transactions one at a time from a workload::
// StreamGenerator (the simulator's pull-driven arrival chaining keeps
// the event order a pure function of the stream, never of driver
// chunking), retires resolved payments at metric-window boundaries so
// memory is bounded by in-flight work, and exports one JSON line of
// windowed metric deltas per window.
//
// Snapshot/restore is replay-based and therefore honest about
// determinism: a snapshot records only the *inputs* (topology, stream
// spec, adversary spec, seeds, knobs) plus progress counters and an
// FNV-1a state checksum; restore rebuilds the service from the inputs,
// replays to the snapshot's sim time with the window sink suppressed,
// and validates the checksum.

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exp/report.hpp"
#include "faults/injector.hpp"
#include "graph/graph.hpp"
#include "sim/audit.hpp"
#include "sim/metrics.hpp"
#include "sim/packet_sim.hpp"
#include "workload/stream.hpp"

namespace spider::service {

struct ServiceConfig {
  /// Named topology (exp::make_named_topology) and per-edge capacity.
  std::string topology = "scalefree-64";
  double capacity_units = 4000.0;
  /// Packet-backed scheme: "packet-widest" (ungated waterfilling
  /// baseline) or "spider-cc" (marking + per-path AIMD windows).
  std::string scheme = "packet-widest";
  /// workload::parse_stream_spec syntax; drives arrivals.
  std::string workload = "steady;rate=10";
  /// faults::parse_profile syntax; empty runs with no injector.
  std::string adversary;
  /// Run length and metrics-export window in sim seconds; both must be
  /// positive and finite.
  double duration = 3600.0;
  double window = 60.0;
  double deadline_offset = 30.0;   // payment deadline = arrival + offset
  double mtu_units = 10.0;
  std::uint64_t seed = 1;          // simulator seed (keys, path salts)
  bool audit = false;              // strict invariant auditor
  bool retire = true;              // retire resolved payments per window
  /// JSON-lines sink for per-window records (null = keep in memory
  /// only). Must outlive the service.
  std::ostream* window_sink = nullptr;
};

/// Metric deltas over one export window. All fields except
/// `events_per_sec` (wall-clock throughput) are deterministic.
struct WindowRecord {
  std::uint64_t index = 0;
  double t0 = 0;                // window start, sim seconds
  double t1 = 0;                // window end, sim seconds
  std::uint64_t attempted = 0;  // payments admitted this window
  std::uint64_t succeeded = 0;  // classified this window (retirement)
  std::uint64_t partial = 0;
  std::uint64_t failed = 0;
  std::uint64_t retired = 0;    // records freed this window
  core::Amount delivered = 0;   // value settled this window
  std::uint64_t events = 0;     // engine events this window
  std::uint64_t live = 0;       // in-flight payments at window end
  double p50 = 0;               // completion latency, this window only
  double p99 = 0;
  double events_per_sec = 0;    // wall-clock (nondeterministic)
  std::uint64_t checksum = 0;   // state_checksum() at window end
};

class Service {
 public:
  /// Builds the topology, stream, adversary plan, and simulator, and
  /// primes the stream's first arrival. Throws std::invalid_argument
  /// on bad specs/knobs.
  explicit Service(ServiceConfig cfg);

  /// Advances to min(until, duration), emitting a window record at
  /// every boundary passed (retiring resolved payments first when
  /// configured). Resumable.
  void run(double until);

  /// Runs to `duration`, classifies the in-flight remainder, emits the
  /// closing window, and returns the final metrics. Idempotent. The
  /// sum of every window's deltas equals the final cumulative metrics.
  const sim::Metrics& finish();

  /// Input specs + progress counters + state checksum, as a JSON
  /// document (see file comment). Valid any time before finish().
  [[nodiscard]] exp::Json snapshot() const;

  /// Rebuilds a service from `snap` and replays it (window sink
  /// suppressed) to the snapshot's sim time, then validates progress
  /// counters and the state checksum, throwing std::runtime_error on
  /// any divergence. Keys the restore does not read (such as the
  /// "shards" count older snapshots carry) are ignored. The returned
  /// service continues with `sink` attached.
  static std::unique_ptr<Service> restore(const exp::Json& snap,
                                          std::ostream* sink = nullptr);

  [[nodiscard]] const ServiceConfig& config() const { return cfg_; }
  [[nodiscard]] const graph::Graph& graph() const { return graph_; }
  [[nodiscard]] const std::vector<WindowRecord>& windows() const {
    return windows_;
  }
  [[nodiscard]] const sim::Metrics& metrics() const {
    return sim_->metrics();
  }
  [[nodiscard]] double now() const { return sim_->now(); }
  [[nodiscard]] std::uint64_t txns_streamed() const {
    return sim_->txns_streamed();
  }
  [[nodiscard]] std::size_t live_payments() const {
    return sim_->live_payments();
  }
  [[nodiscard]] std::size_t peak_live_payments() const {
    return sim_->peak_live_payments();
  }
  [[nodiscard]] std::uint64_t state_checksum() const {
    return sim_->state_checksum();
  }

  /// One compact JSON object for a window record (the sink format).
  [[nodiscard]] static exp::Json window_to_json(const WindowRecord& w);

 private:
  static std::optional<core::PaymentRequest> pull_arrival(void* ctx);
  void emit_window(double t0, double t1);

  ServiceConfig cfg_;
  graph::Graph graph_;
  std::string adversary_canonical_;  // profile spec with horizon pinned
  std::unique_ptr<workload::StreamGenerator> stream_;
  std::unique_ptr<faults::FaultInjector> injector_;
  std::unique_ptr<sim::InvariantAuditor> auditor_;
  std::unique_ptr<sim::PacketSimulator> sim_;

  std::vector<WindowRecord> windows_;
  std::uint64_t windows_emitted_ = 0;
  double emitted_to_ = 0;    // sim time of the last emitted boundary
  double next_boundary_;     // next window boundary
  bool finished_ = false;

  // Baselines for per-window deltas (copied at each boundary).
  sim::Metrics prev_;
  exp::Histogram prev_hist_;
  std::uint64_t prev_events_ = 0;
  std::chrono::steady_clock::time_point prev_wall_;
};

}  // namespace spider::service
