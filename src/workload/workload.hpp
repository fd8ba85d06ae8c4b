#pragma once
// Workload generation and trace handling (paper §6.1 "Dataset").
//
// The paper's transactions are synthetically generated with sizes sampled
// from Ripple data (largest 10% pruned): ISP workload mean 170 XRP /
// max 1780 XRP; Ripple workload mean 345 XRP / max 2892 XRP. Senders are
// sampled from an exponential distribution over nodes, receivers
// uniformly at random. We reproduce those statistics with a truncated
// log-normal size sampler (heavy-tailed like the empirical data) and the
// same sender/receiver sampling. See DESIGN.md §2.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "fluid/payment_graph.hpp"
#include "graph/graph.hpp"

namespace spider::workload {

using core::Amount;
using core::TimePoint;
using graph::NodeId;

/// One trace record is a payment request with no deadline and no fee
/// cap (core::PaymentRequest defaults); drivers that want deadlines set
/// `deadline` on the records they submit.
using Trace = std::vector<core::PaymentRequest>;

/// The record's older name, kept for the end-to-end benchmark sources,
/// which spell it. Nothing else uses it.
using Transaction = core::PaymentRequest;

enum class SenderDistribution : std::uint8_t {
  kExponential,  // paper default: few heavy senders
  kUniform,
};

struct WorkloadConfig {
  std::size_t count = 10000;   // number of transactions
  double duration = 200.0;     // arrivals uniform over [0, duration)
  double mean_size = 170.0;    // target mean transaction size (units)
  double max_size = 1780.0;    // hard cap (resample above it)
  double sigma = 1.0;          // log-normal shape (heavier tail = larger)
  SenderDistribution sender = SenderDistribution::kExponential;
  /// Exponential sender skew: node i is drawn with rate `sender_skew`
  /// over the normalized index i/n (larger = more skewed).
  double sender_skew = 4.0;
  std::uint64_t seed = 1;
};

/// Paper-calibrated presets.
[[nodiscard]] WorkloadConfig isp_workload(std::size_t count, double duration,
                                          std::uint64_t seed);
[[nodiscard]] WorkloadConfig ripple_workload(std::size_t count,
                                             double duration,
                                             std::uint64_t seed);

/// Generates a trace over the nodes of `g` (src != dst always; arrivals
/// sorted ascending).
[[nodiscard]] Trace generate_trace(const graph::Graph& g,
                                   const WorkloadConfig& cfg);

/// Long-term demand matrix estimate: per-pair rate in units/second over
/// `duration` -- the input Spider (LP) solves against.
[[nodiscard]] fluid::PaymentGraph estimate_demand(std::size_t node_count,
                                                  const Trace& trace,
                                                  double duration);

/// Summary statistics used by tests and benches.
struct TraceStats {
  double mean_size = 0;   // units
  double max_size = 0;    // units
  double total_volume = 0;
  std::size_t count = 0;
};
[[nodiscard]] TraceStats trace_stats(const Trace& trace);

/// CSV round-trip: "src,dst,amount_milli,arrival" rows with a header
/// (deadline, fee cap and kind are not stored). The reader parses each
/// field whole -- node ids as graph::parse_node_id, the amount as a
/// decimal integer > 0, the arrival as a finite number >= 0 -- and
/// throws std::runtime_error naming the line otherwise.
void write_trace_csv(std::ostream& os, const Trace& trace);
[[nodiscard]] Trace read_trace_csv(std::istream& is);
void save_trace_csv(const std::string& path, const Trace& trace);
[[nodiscard]] Trace load_trace_csv(const std::string& path);

}  // namespace spider::workload
