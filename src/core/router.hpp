#pragma once
// Spider router (paper §4.2, Fig. 3): queues transaction units per
// outgoing payment channel when funds are unavailable and services the
// queues -- by the configured scheduling policy -- as funds return from
// the other side. The forwarding *decisions* are source-routed (the unit
// carries its path); the router contributes queueing, scheduling, and
// per-channel accounting.
//
// Queues live in a dense vector indexed by the node's *local out-arc
// index* (position in the graph's adjacency list, which is ascending in
// ArcId). By-arc calls binary-search the bound arc list; hot callers
// precompute the local index once and use the `_local` variants. The
// router keeps O(1) running totals of queued units and queued value so
// the simulator's expiry sweep and telemetry sampling never walk queues.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/scheduler.hpp"
#include "core/types.hpp"

namespace spider::core {

/// One-bit congestion marking (Spider NSDI version, arXiv:1809.05088
/// §5): the router estimates the queueing delay of each outgoing
/// channel with an EWMA over observed per-unit delays and sets a single
/// mark bit once the estimate exceeds `threshold`. The bit clears only
/// after the estimate falls below `threshold * unmark_fraction`
/// (hysteresis, so the signal does not chatter around the threshold).
/// Disabled routers skip the estimator entirely -- the packet-sim hot
/// path stays untouched when no scheme consumes the marks.
struct MarkingConfig {
  bool enabled = false;
  /// Queue-delay estimate (seconds) above which units get marked.
  TimePoint threshold = 0.3;
  /// The mark clears below `threshold * unmark_fraction`.
  double unmark_fraction = 0.5;
  /// EWMA weight of each new delay sample (fixed-order updates keep the
  /// estimate a pure function of the observation sequence).
  double ewma_gain = 0.25;
};

class Router {
 public:
  Router(NodeId id, SchedulingPolicy policy) : id_(id), policy_(policy) {}

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] SchedulingPolicy policy() const { return policy_; }

  /// Installs this router's outgoing arcs (must be sorted ascending, as
  /// Graph::out_arcs yields them) and creates one queue per arc.
  /// Replaces any previous binding; existing queue contents are dropped.
  void bind(std::span<const ArcId> out_arcs);

  /// Number of bound outgoing arcs (== number of queues).
  [[nodiscard]] std::size_t arc_count() const { return arcs_.size(); }

  /// Local index of outgoing arc `a`, or npos if `a` is not bound here.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  [[nodiscard]] std::size_t local_index(ArcId a) const;

  /// Enqueues a unit waiting for funds on outgoing arc `a`.
  /// Throws std::out_of_range if `a` is not a bound outgoing arc.
  void push(ArcId a, const QueuedUnit& u);
  void push_local(std::size_t i, const QueuedUnit& u);

  /// Removes and returns the highest-priority unit queued on `a`
  /// (nullopt when empty). Throws std::out_of_range on unbound arcs.
  std::optional<QueuedUnit> pop(ArcId a);
  std::optional<QueuedUnit> pop_local(std::size_t i);

  /// Highest-priority unit queued on `a` without removing it; nullptr
  /// when the queue is empty or `a` is not bound here.
  [[nodiscard]] const QueuedUnit* peek(ArcId a) const;
  [[nodiscard]] const QueuedUnit* peek_local(std::size_t i) const {
    return queues_[i].peek();
  }

  /// Removes a specific waiting unit from arc `a`'s queue (a proactive
  /// cancellation, e.g. its channel closed mid-run). `amount` must be
  /// the unit's queued amount (the caller knows it; the running totals
  /// are adjusted by it). Returns false if the unit is not queued here.
  bool erase(ArcId a, TxUnitId unit, Amount amount);

  /// Read-only queue for arc `a`; nullptr if `a` is not bound here.
  [[nodiscard]] const UnitQueue* find_queue(ArcId a) const;

  /// Units queued across all outgoing arcs. O(1).
  [[nodiscard]] std::size_t queued_units() const { return units_; }

  /// Total value queued across all outgoing arcs. O(1).
  [[nodiscard]] Amount queued_amount() const { return amount_; }

  /// Drops expired units from every queue and appends them to
  /// `expired`. O(arc count) when nothing expired (each queue early-outs
  /// on its tracked minimum deadline); O(1) when this router queues
  /// nothing at all.
  void drop_expired(TimePoint now, std::vector<QueuedUnit>& expired);

  /// Enables (or reconfigures) one-bit congestion marking for the bound
  /// arcs. Call after bind(); rebinding resets the estimator state.
  void configure_marking(const MarkingConfig& mc);
  [[nodiscard]] const MarkingConfig& marking() const { return marking_; }

  /// Feeds one queue-delay sample for local out-arc `i` into the
  /// estimator (`delay` = 0 for units forwarded without queueing) and
  /// returns the mark bit *after* the update -- the bit a unit departing
  /// now is stamped with. No-op (returns false) while marking is
  /// disabled.
  bool observe_delay_local(std::size_t i, TimePoint delay);

  /// Current mark bit / delay estimate of local out-arc `i`.
  [[nodiscard]] bool marked_local(std::size_t i) const {
    return marking_.enabled && mark_bit_[i] != 0;
  }
  [[nodiscard]] double delay_estimate_local(std::size_t i) const {
    return marking_.enabled ? delay_ewma_[i] : 0.0;
  }

  /// Times any arc's mark bit flipped from clear to set (telemetry).
  [[nodiscard]] std::uint64_t mark_transitions() const {
    return mark_transitions_;
  }

 private:
  NodeId id_;
  SchedulingPolicy policy_;
  std::vector<ArcId> arcs_;        // sorted ascending; parallel to queues_
  std::vector<UnitQueue> queues_;  // indexed by local out-arc index
  std::size_t units_ = 0;          // running sum of queues_[i].size()
  Amount amount_ = 0;              // running sum of queues_[i].total_amount()

  // One-bit marking state (sized like queues_ while enabled).
  MarkingConfig marking_;
  std::vector<double> delay_ewma_;  // per-arc queue-delay estimate
  std::vector<char> mark_bit_;      // per-arc hysteresis mark bit
  std::uint64_t mark_transitions_ = 0;
};

}  // namespace spider::core
