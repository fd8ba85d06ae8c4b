#pragma once
// ChannelNetwork: the data plane -- one Channel per topology edge, the
// book of every in-flight HTLC, and helpers to lock/settle/fail HTLCs
// along multi-hop routes. Both the flow-level simulator (paper §6
// semantics) and the packet-level Spider architecture drive this shared
// state. The book is one generation-checked Slab: an HtlcId is a handle
// into it and each record names the arc it locks, so a stale id, a wrong
// key or another arc's id is refused (exactly-once release, DESIGN.md
// §17).

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/channel.hpp"
#include "core/slab.hpp"
#include "core/types.hpp"
#include "graph/graph.hpp"

namespace spider::core {

using graph::Graph;
using graph::Path;

/// One in-flight HTLC in the network's book.
struct Htlc {
  ArcId arc = 0;  // edge_of(arc) is the channel, arc_side(arc) the offerer
  Amount amount = 0;
  LockHash lock = 0;
};

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

  [[nodiscard]] const Channel& channel(EdgeId e) const {
    return channels_.at(e);
  }

  /// Raise epoch: a counter bumped by every operation that can raise
  /// some arc's spendable balance -- settle_htlc, fail_htlc,
  /// settle_route, fail_route and deposit. Locks only lower balances,
  /// so while the epoch is unchanged a path whose bottleneck was zero is
  /// still dry. Routing schemes memoise dry pairs on it (sim/scheme.hpp).
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

  /// Offers an HTLC of `amount` along arc `a`, from the side owning the
  /// arc's tail, locked under `lock`. Returns its id, or nullopt if that
  /// side lacks spendable balance (the unit must then queue -- paper
  /// Fig. 3) or amount <= 0.
  std::optional<HtlcId> offer_htlc(ArcId a, Amount amount, LockHash lock);

  /// Settles HTLC `id` of arc `a` with the preimage: the hold moves to
  /// the other side's spendable balance. Returns false (state unchanged)
  /// if the id is stale or was offered on another arc, or the key does
  /// not match the lock.
  bool settle_htlc(ArcId a, HtlcId id, Preimage key) {
    return release(a, id, key, /*raise=*/true);
  }

  /// Cancels HTLC `id` of arc `a` (deadline passed / upstream failure):
  /// the hold returns to the offering side. False if stale or offered on
  /// another arc.
  bool fail_htlc(ArcId a, HtlcId id) {
    return release(a, id, std::nullopt, /*raise=*/true);
  }

  /// Every in-flight HTLC (sim::InvariantAuditor sums it per arc).
  [[nodiscard]] const Slab<Htlc>& htlc_book() const { return book_; }

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
  /// Releases HTLC `id` of arc `a`: to the receiving side under a
  /// matching `key`, back to the offerer without one. Bumps the raise
  /// epoch only if `raise` (route calls bump once; rollback never does).
  bool release(ArcId a, HtlcId id, std::optional<Preimage> key, bool raise);
  /// Releases every hop of `rl`; throws if any hop was already released.
  void release_route(const RouteLock& rl, std::optional<Preimage> key);

  const Graph* graph_;
  std::vector<Channel> channels_;
  Slab<Htlc> book_;  // HtlcId == packed handle
  std::uint64_t raise_epoch_ = 0;
};

}  // namespace spider::core
