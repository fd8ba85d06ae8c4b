#pragma once
// Evaluation metrics (paper §6.1): success ratio ("how many payments
// amongst those tried actually completed") and success volume ("the
// volume of payments that went through as a fraction of the total volume
// across all attempted payments"), plus diagnostics: completion latency,
// retries, and per-channel imbalance.

#include <array>
#include <concepts>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "core/types.hpp"
#include "exp/histogram.hpp"

namespace spider::sim {

using core::Amount;
using core::TimePoint;

struct Metrics {
  std::uint64_t attempted = 0;
  std::uint64_t succeeded = 0;   // fully delivered by sim end
  std::uint64_t partial = 0;     // some but not all delivered (non-atomic)
  std::uint64_t failed = 0;      // nothing delivered

  Amount attempted_volume = 0;
  Amount delivered_volume = 0;   // includes partial deliveries
  Amount completed_volume = 0;   // volume of fully-succeeded payments only

  std::uint64_t total_attempt_rounds = 0;  // routing attempts incl. retries
  std::uint64_t units_sent = 0;            // individual path sends
  double sum_completion_latency = 0;       // over succeeded payments

  /// On-chain rebalancing activity (zero unless enabled in the config):
  /// every deposit is an expensive blockchain transaction (§5.2.3).
  std::uint64_t rebalance_events = 0;
  Amount rebalanced_volume = 0;

  /// Total routing fees collected by forwarding routers (zero unless a
  /// fee policy is configured).
  Amount fees_paid = 0;

  /// Fault-injection degradation counters (all zero unless a fault plan
  /// is active; see src/faults/ and DESIGN.md §8). They quantify how
  /// much adversity the run absorbed and what the graceful-degradation
  /// machinery did about it.
  std::uint64_t fault_events_applied = 0;   // fault-plan events fired
  std::uint64_t fault_node_downs = 0;       // node downtime windows begun
  std::uint64_t fault_channel_closures = 0; // channels closed mid-run
  std::uint64_t fault_withhold_spells = 0;  // HTLC-withholding spells begun
  std::uint64_t fault_stale_spells = 0;     // probe-staleness spikes begun
  std::uint64_t fault_units_failed = 0;     // units/locks killed by faults
  std::uint64_t fault_reroutes = 0;         // fault-blocked paths skipped
  std::uint64_t fault_withheld_acks = 0;    // settlements delayed by withholding
  std::uint64_t fault_stale_decisions = 0;  // routing calls on a stale snapshot
  std::uint64_t fault_backoff_retries = 0;  // retries deferred by backoff

  /// Adversarial-scenario counters (zero unless the fault plan carries
  /// kJam/kGrief events; see DESIGN.md §13). Jam spells lock a fraction
  /// of a channel's spendable balance in attacker HTLCs until the spell
  /// ends; grief spells hold acks at a target hub for the maximum
  /// withholding window.
  std::uint64_t fault_jam_spells = 0;       // HTLC-jamming spells begun
  Amount fault_jam_locked_volume = 0;       // total volume locked by jams
  std::uint64_t fault_grief_spells = 0;     // griefing spells begun
  std::uint64_t fault_griefed_acks = 0;     // acks max-held by griefing

  /// Spider-cc telemetry (packet sim with cc_mode == kSpiderCc, zero
  /// otherwise): acks that carried the routers' one-bit congestion mark,
  /// multiplicative AIMD window decreases applied (marked acks plus
  /// unit failures), and units relaunched after a per-launch HTLC
  /// timeout refunded their locks.
  std::uint64_t cc_marked_acks = 0;
  std::uint64_t cc_window_decreases = 0;
  std::uint64_t cc_timeout_retries = 0;

  /// Fraction of attempted payments that fully completed.
  [[nodiscard]] double success_ratio() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(succeeded) /
                                static_cast<double>(attempted);
  }

  /// Fraction of attempted volume that was delivered.
  [[nodiscard]] double success_volume() const {
    return attempted_volume == 0
               ? 0.0
               : static_cast<double>(delivered_volume) /
                     static_cast<double>(attempted_volume);
  }

  /// Mean arrival-to-completion latency of succeeded payments (seconds).
  [[nodiscard]] double mean_completion_latency() const {
    return succeeded == 0 ? 0.0
                          : sum_completion_latency /
                                static_cast<double>(succeeded);
  }

  /// One-line human-readable summary.
  [[nodiscard]] std::string summary() const;

  /// Arrival-to-completion latency distribution of fully-succeeded
  /// payments (always collected; constant memory).
  exp::Histogram latency_hist;

  [[nodiscard]] double latency_p50() const { return latency_hist.p50(); }
  [[nodiscard]] double latency_p95() const { return latency_hist.p95(); }
  [[nodiscard]] double latency_p99() const { return latency_hist.p99(); }

  /// Delivered volume per time bucket (filled when series collection is
  /// enabled in the simulator config).
  std::vector<double> delivered_series;
  double series_bucket = 1.0;

  /// Telemetry sampled every `series_bucket` seconds when series
  /// collection is enabled. `channel_imbalance_series[e][k]` is channel
  /// e's signed imbalance (side A minus side B, in currency units) at
  /// sample k; `queue_depth_series[k]` is the number of payment units
  /// waiting for funds (flow sim: retry queue; packet sim: router
  /// queues) at the same instant.
  std::vector<std::vector<double>> channel_imbalance_series;
  std::vector<double> queue_depth_series;

  friend bool operator==(const Metrics&, const Metrics&) = default;
};

/// Calls `f(name, member)` for every scalar counter of Metrics, in
/// report order (the JSON key order and CSV column order of
/// exp/report.hpp). This is the one list the serializers iterate, so a
/// new counter is one line here. `member` is a reference to a
/// std::uint64_t, Amount or double, const when `m` is.
template <typename M, typename F>
  requires std::same_as<std::remove_cvref_t<M>, Metrics>
void for_each_counter(M&& m, F&& f) {
  f("attempted", m.attempted);
  f("succeeded", m.succeeded);
  f("partial", m.partial);
  f("failed", m.failed);
  f("attempted_volume", m.attempted_volume);
  f("delivered_volume", m.delivered_volume);
  f("completed_volume", m.completed_volume);
  f("total_attempt_rounds", m.total_attempt_rounds);
  f("units_sent", m.units_sent);
  f("sum_completion_latency", m.sum_completion_latency);
  f("rebalance_events", m.rebalance_events);
  f("rebalanced_volume", m.rebalanced_volume);
  f("fees_paid", m.fees_paid);
  f("fault_events_applied", m.fault_events_applied);
  f("fault_node_downs", m.fault_node_downs);
  f("fault_channel_closures", m.fault_channel_closures);
  f("fault_withhold_spells", m.fault_withhold_spells);
  f("fault_stale_spells", m.fault_stale_spells);
  f("fault_units_failed", m.fault_units_failed);
  f("fault_reroutes", m.fault_reroutes);
  f("fault_withheld_acks", m.fault_withheld_acks);
  f("fault_stale_decisions", m.fault_stale_decisions);
  f("fault_backoff_retries", m.fault_backoff_retries);
  f("fault_jam_spells", m.fault_jam_spells);
  f("fault_jam_locked_volume", m.fault_jam_locked_volume);
  f("fault_grief_spells", m.fault_grief_spells);
  f("fault_griefed_acks", m.fault_griefed_acks);
  f("cc_marked_acks", m.cc_marked_acks);
  f("cc_window_decreases", m.cc_window_decreases);
  f("cc_timeout_retries", m.cc_timeout_retries);
}

/// Values derived from the counters, reported after them (JSON keys and
/// CSV columns) and recomputed, not read back, by the parsers.
struct DerivedMetric {
  const char* name;
  double (Metrics::*value)() const;
};
inline constexpr std::array<DerivedMetric, 6> kDerivedMetrics{{
    {"success_ratio", &Metrics::success_ratio},
    {"success_volume", &Metrics::success_volume},
    {"mean_completion_latency", &Metrics::mean_completion_latency},
    {"latency_p50", &Metrics::latency_p50},
    {"latency_p95", &Metrics::latency_p95},
    {"latency_p99", &Metrics::latency_p99},
}};

}  // namespace spider::sim
