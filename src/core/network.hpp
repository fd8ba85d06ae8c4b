#pragma once
// ChannelNetwork: the data plane -- one Channel per topology edge, with
// helpers to lock/settle/fail HTLCs along multi-hop routes. Both the
// flow-level simulator (paper §6 semantics) and the packet-level Spider
// architecture drive this shared state.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/channel.hpp"
#include "core/types.hpp"
#include "graph/graph.hpp"

namespace spider::core {

using graph::Graph;
using graph::Path;

/// Handle for funds locked hop-by-hop along a route (one HTLC per hop).
struct RouteLock {
  Path path;
  Amount amount = 0;
  std::vector<HtlcId> htlcs;  // one per arc of `path`
  LockHash lock = 0;
  /// Total value held across all hops (sum of per-hop lock amounts,
  /// including fees). What settle/fail releases; audited against the
  /// channels' pending totals by sim::InvariantAuditor.
  Amount total_held = 0;
};

class ChannelNetwork {
 public:
  /// Opens one channel per edge of `g`; edge e gets `capacity[e]` total
  /// funds, split equally between the two sides (the paper's §6.2 setup:
  /// "edges ... initialized with a capacity of 30000, equally split
  /// between the two parties"). Odd milli-units favour side A.
  ChannelNetwork(const Graph& g, std::span<const Amount> capacity);

  /// Opens channels with explicit per-side deposits.
  ChannelNetwork(const Graph& g,
                 std::span<const std::pair<Amount, Amount>> deposits);

  [[nodiscard]] const Graph& graph() const { return *graph_; }

  /// Mutable channel access. The caller may settle, fail or deposit
  /// through it, so it bumps the raise epoch.
  [[nodiscard]] Channel& channel(EdgeId e) {
    ++raise_epoch_;
    return channels_.at(e);
  }
  [[nodiscard]] const Channel& channel(EdgeId e) const {
    return channels_.at(e);
  }

  /// Raise epoch: a counter bumped by every operation that can raise
  /// some arc's spendable balance -- settle_route, fail_route, deposit
  /// and mutable channel() access. Locks only lower balances, so while
  /// the epoch is unchanged a path whose bottleneck was zero is still
  /// dry. Routing schemes memoise dry pairs on it (sim/scheme.hpp).
  [[nodiscard]] std::uint64_t raise_epoch() const { return raise_epoch_; }

  /// Moves the raise epoch forward to `epoch` (no-op when it is not
  /// ahead). A network built as a view of another takes an epoch no
  /// other view shows this way (sim::stale_snapshot).
  void advance_raise_epoch(std::uint64_t epoch) {
    if (epoch > raise_epoch_) raise_epoch_ = epoch;
  }

  /// Side that offers HTLCs when a unit travels along arc `a` (the side
  /// owning the arc's tail).
  [[nodiscard]] static Side arc_side(ArcId a) {
    return (a & 1u) == 0 ? Side::kA : Side::kB;
  }

  /// Spendable balance in the direction of arc `a`.
  [[nodiscard]] Amount available(ArcId a) const {
    return channels_[graph::edge_of(a)].balance(arc_side(a));
  }

  /// Bottleneck spendable balance along `path` (max sendable right now).
  [[nodiscard]] Amount path_available(const Path& path) const;

  /// Locks `amount` along every hop of `path` under `lock`, all-or-
  /// nothing: on any hop failure the partial locks are rolled back and
  /// nullopt is returned. Amount must be > 0 and the path valid.
  [[nodiscard]] std::optional<RouteLock> lock_route(const Path& path,
                                                    Amount amount,
                                                    LockHash lock);

  /// Fee-aware variant: hop i locks `amounts[i]` (amounts must be
  /// non-increasing towards the destination, one per arc; see
  /// core/fees.hpp). On settle, each forwarding router keeps the
  /// difference between its incoming and outgoing hop amounts -- its
  /// routing fee. The RouteLock's `amount` records the delivered
  /// (final-hop) value.
  [[nodiscard]] std::optional<RouteLock> lock_route_with_fees(
      const Path& path, std::span<const Amount> amounts, LockHash lock);

  /// Settles every hop of a route lock with the preimage. Funds advance
  /// one side at every hop; the net effect transfers `amount` from the
  /// path source to the destination. Returns false if the key is wrong
  /// (no state change).
  bool settle_route(const RouteLock& rl, Preimage key);

  /// Cancels every hop of a route lock, returning funds to the offerers.
  void fail_route(const RouteLock& rl);

  /// On-chain top-up of edge `e`: `side` deposits `amount` new escrowed
  /// funds (rebalancing, §5.2.3).
  void deposit(EdgeId e, Side side, Amount amount);

  /// Sum of funds across all channels (constant under lock/settle/fail).
  [[nodiscard]] Amount total_funds() const;

  /// True if every channel individually conserves funds.
  [[nodiscard]] bool conserves_funds() const;

  /// Imbalance of edge `e`: balance(A) - balance(B).
  [[nodiscard]] Amount imbalance(EdgeId e) const {
    return channels_[e].imbalance();
  }

 private:
  const Graph* graph_;
  std::vector<Channel> channels_;
  std::uint64_t raise_epoch_ = 0;
};

}  // namespace spider::core
