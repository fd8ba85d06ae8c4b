#pragma once
// Bidirectional payment channel state (paper §2, Fig. 1 / Fig. 3).
//
// Each side owns a spendable balance; offering an HTLC moves funds from
// the offering side's balance into a pending hold ("Funds received on a
// payment channel remain in a pending state until the final receiver
// provides the key for the hash lock", Fig. 3). Settling an HTLC moves
// the hold to the *other* side's balance; failing it returns the hold.
//
// A Channel holds only totals: balances, pending holds, escrow and its
// in-flight HTLC count. The HTLC records live in ChannelNetwork's book,
// the only code that moves funds between a balance and a pending hold.
//
// Class invariant (checked in debug builds and by the test suite):
//     balance(0) + balance(1) + sum(pending holds) == total escrow
// No operation can mint or destroy milli-units.

#include <cassert>
#include <cstdint>

#include "core/htlc.hpp"
#include "core/types.hpp"

namespace spider::core {

/// Which endpoint of a channel; side 0 is edge_u, side 1 is edge_v.
enum class Side : std::uint8_t { kA = 0, kB = 1 };

[[nodiscard]] constexpr Side opposite(Side s) {
  return s == Side::kA ? Side::kB : Side::kA;
}

/// Identifier for an in-flight HTLC: a packed generation-checked handle
/// into the ChannelNetwork's book. Opaque to callers; 0 is never a
/// valid id, and ids of settled/failed HTLCs are detected as stale.
using HtlcId = std::uint64_t;

class Channel {
 public:
  /// Opens a channel where side A escrows `deposit_a` and side B escrows
  /// `deposit_b` (both >= 0, at least one positive).
  Channel(Amount deposit_a, Amount deposit_b);

  /// Spendable balance of `side` (excludes pending holds).
  [[nodiscard]] Amount balance(Side side) const {
    return balance_[static_cast<int>(side)];
  }

  /// Funds of `side` locked in HTLCs it offered.
  [[nodiscard]] Amount pending(Side side) const {
    return pending_[static_cast<int>(side)];
  }

  /// Total funds in the channel (constant unless `deposit` is called).
  [[nodiscard]] Amount total() const { return total_; }

  /// Number of HTLCs currently in flight on this channel.
  [[nodiscard]] std::size_t inflight_count() const { return inflight_; }

  /// On-chain top-up: `side` deposits `amount` new escrowed funds
  /// (rebalancing, §5.2.3).
  void deposit(Side side, Amount amount);

  /// Imbalance seen from side A: balance(A) - balance(B). Zero means the
  /// channel is perfectly balanced.
  [[nodiscard]] Amount imbalance() const {
    return balance_[0] - balance_[1];
  }

  /// Conservation check: balances + pending holds == total escrow.
  [[nodiscard]] bool conserves_funds() const {
    return balance_[0] + balance_[1] + pending_[0] + pending_[1] == total_;
  }

 private:
  friend class ChannelNetwork;  // offers, settles and fails HTLCs

  Amount balance_[2];
  Amount pending_[2] = {0, 0};
  Amount total_;
  std::uint32_t inflight_ = 0;
};

}  // namespace spider::core
