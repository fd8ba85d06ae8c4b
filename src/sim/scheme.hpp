#pragma once
// Plug-in interface between the flow-level simulator and routing schemes.
//
// A scheme decides, given the current channel state and a payment's
// remaining amount, which (path, amount) sends to perform now. Atomic
// schemes get exactly one shot per payment and the simulator enforces
// all-or-nothing; non-atomic schemes are re-invoked from the global retry
// queue until the payment completes or the simulation ends (paper §6.1).

#include <memory>
#include <string>
#include <vector>

#include "core/network.hpp"
#include "core/types.hpp"
#include "fluid/payment_graph.hpp"
#include "graph/graph.hpp"

namespace spider::sim {

using core::Amount;
using core::ChannelNetwork;
using core::PaymentRequest;

/// One send decision: push `amount` along `path` now.
struct RouteChoice {
  graph::Path path;
  Amount amount = 0;
};

class RoutingScheme {
 public:
  virtual ~RoutingScheme() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Atomic schemes deliver all-or-nothing in a single attempt; the
  /// simulator rolls back partial locks and never retries them.
  [[nodiscard]] virtual bool atomic() const = 0;

  /// Called once before the simulation starts. `demand_estimate` carries
  /// long-term per-pair rates (units/second) -- the estimate Spider (LP)
  /// solves its LP against (§6.1); most schemes ignore it.
  virtual void prepare(const graph::Graph& g,
                       const std::vector<core::Amount>& edge_capacity,
                       const fluid::PaymentGraph& demand_estimate,
                       double delta) {
    (void)g;
    (void)edge_capacity;
    (void)demand_estimate;
    (void)delta;
  }

  /// Decides sends for a payment with `remaining` (> 0) value left to
  /// deliver at simulation time `now`. Returned amounts should respect
  /// `net.path_available`; the simulator re-validates and clamps anyway
  /// (sends race with each other).
  ///
  /// Dry-pair memo. A scheme may remember, per (src, dst), the
  /// `net.raise_epoch()` at which every candidate path had
  /// `path_available == 0`, and answer `{}` at once while `net` shows
  /// the same epoch. This is exact when the scheme answers `{}` for a
  /// pair whose candidate paths are all dry, whatever `remaining` and
  /// `now` are, and reads nothing else that changes between calls.
  /// Shortest-path, waterfilling (and spider-cc's flow fallback),
  /// Spider (LP) and Spider (primal-dual) do so; stale waterfilling does
  /// not, because its route() refreshes a probe snapshot. The memo
  /// relies on callers to keep one rule: between two prepare() calls,
  /// two route() calls that see the same raise epoch must see channel
  /// states in which no arc's spendable balance is higher at the later
  /// call. The flow simulator passes only its live network, whose epoch
  /// every raise bumps, and stale snapshots, whose epochs no other view
  /// shows (sim::stale_snapshot). A caller that routes against an
  /// unrelated network calls prepare() first.
  [[nodiscard]] virtual std::vector<RouteChoice> route(
      const PaymentRequest& req, Amount remaining,
      const ChannelNetwork& net, core::TimePoint now) = 0;
};

}  // namespace spider::sim
