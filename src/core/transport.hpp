#pragma once
// Host transport layer (paper §4.1): message-oriented payment transport.
//
// Splits each payment into MTU-bounded transaction units, creates one
// hash lock per unit (fresh key per unit for non-atomic payments; AMP
// secret-shared keys for atomic payments), tracks receiver confirmations,
// and decides when keys may be released:
//  * non-atomic: key released per unit as soon as the receiver confirms
//    it (before the deadline) -- the sender thus knows exactly how much
//    of the payment the receiver can unlock, and withholds keys for late
//    units;
//  * atomic: all keys released together only when every unit confirmed.

#include <cstdint>
#include <deque>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "core/htlc.hpp"
#include "core/types.hpp"

namespace spider::core {

/// One transaction unit as put on the wire.
struct TxUnit {
  TxUnitId id;
  NodeId src = graph::kInvalidNode;
  NodeId dst = graph::kInvalidNode;
  Amount amount = 0;
  TimePoint deadline = kNever;
  LockHash lock = 0;
};

/// A released key the caller should use to settle a unit's route.
struct KeyRelease {
  TxUnitId unit;
  Preimage key;
};

class Transport {
 public:
  Transport(NodeId node, std::uint64_t seed) : node_(node), rng_(seed) {}

  [[nodiscard]] NodeId node() const { return node_; }

  /// Registers `req` (whose src must be this node) under `id` and splits
  /// it into ceil(amount / mtu) units: full-MTU units plus a remainder.
  /// Returns the units to transmit (a reference into the payment record,
  /// valid until the Transport is destroyed). mtu must be > 0.
  const std::vector<TxUnit>& begin_payment(PaymentId id,
                                           const PaymentRequest& req,
                                           Amount mtu);

  /// Receiver confirmed `unit` at time `now`. Appends the keys the
  /// sender releases as a consequence (see file comment) to `releases`.
  /// Confirmations after the deadline release nothing (§4.1: the sender
  /// "can withhold the key for in-flight transactions that arrive after
  /// the deadline").
  /// `marked` carries the unit's one-bit congestion mark (routers stamp
  /// it en route); the transport tallies marked vs clean confirmations
  /// so end hosts can drive per-path rate control off the signal.
  void confirm_unit(TxUnitId unit, TimePoint now, bool marked,
                    std::vector<KeyRelease>& releases);

  /// Registered confirmations that carried / did not carry the
  /// congestion mark (duplicates and post-deadline arrivals excluded).
  [[nodiscard]] std::uint64_t marked_confirms() const {
    return marked_confirms_;
  }
  [[nodiscard]] std::uint64_t clean_confirms() const {
    return clean_confirms_;
  }

  /// A unit's route failed permanently (no funds / cancelled); the unit
  /// will never be confirmed. Used for accounting.
  void abandon_unit(TxUnitId unit);

  /// Value of units confirmed (and, for atomic payments, unlockable).
  [[nodiscard]] Amount delivered(PaymentId id) const;

  /// Payment status at time `now` (deadline evaluated lazily).
  [[nodiscard]] PaymentStatus status(PaymentId id, TimePoint now) const;

  [[nodiscard]] const PaymentRequest& request(PaymentId id) const;

  /// Remaining amount not yet confirmed (for SRPT scheduling). Called
  /// on every router-queue push; inline via the cached lookup.
  [[nodiscard]] Amount remaining(PaymentId id) const {
    const OutPayment& op = get(id);
    return op.request.amount - op.confirmed_amount;
  }

  /// True when every unit is confirmed or abandoned: no future event
  /// can change this payment's delivered() value (confirmations and
  /// abandonments are disjoint and final per unit).
  [[nodiscard]] bool resolved(PaymentId id) const {
    const OutPayment& op = get(id);
    return op.confirmed_count + op.abandoned_count ==
           static_cast<std::uint32_t>(op.units.size());
  }

  /// Frees a payment's record; the deque slot is recycled by a later
  /// begin_payment and the id becomes unknown (get() throws). This is
  /// how the service driver (DESIGN.md §13) keeps a long-running run's
  /// memory bounded by in-flight work instead of stream length. Only
  /// call on resolved payments whose units have left the network.
  void retire_payment(PaymentId id);

  /// Payment records currently held (begun and not yet retired).
  [[nodiscard]] std::size_t live_payments() const {
    return index_.size();
  }

 private:
  // Per-unit key state lives densely inside the payment (indexed by
  // unit seq) instead of a sender-global hash map: releasing a key on
  // the ack hot path is one vector access.
  struct OutPayment {
    PaymentRequest request;
    std::vector<TxUnit> units;
    std::vector<Preimage> keys;      // per unit (atomic: the XOR share)
    std::vector<char> confirmed;     // per unit
    std::vector<char> abandoned;     // per unit
    std::vector<char> key_released;  // per unit
    Amount confirmed_amount = 0;
    std::uint32_t confirmed_count = 0;
    std::uint32_t abandoned_count = 0;
    bool keys_released = false;  // atomic: base key released
  };

  const OutPayment& get(PaymentId id) const;
  /// Position of `id` in `index_`: the first entry whose id is not
  /// below it.
  [[nodiscard]] std::size_t lower_bound(PaymentId id) const;
  /// Position of `id`'s entry in `index_`, or index_.size() when absent.
  [[nodiscard]] std::size_t entry_of(PaymentId id) const;
  /// Lookup is a binary search over this sender's live records, so its
  /// cost and memory follow how many payments the node holds, never
  /// how large the ids are (ids are global to the simulator; one
  /// sender sees a sparse subset of them). Payment records live in a
  /// deque so references returned by begin_payment stay valid as later
  /// payments arrive.
  const OutPayment* find_payment(PaymentId id) const;
  OutPayment* find_payment(PaymentId id) {
    return const_cast<OutPayment*>(std::as_const(*this).find_payment(id));
  }

  /// One live record: its payment id and its position in `payments_`.
  struct IndexEntry {
    PaymentId id;
    std::uint32_t pos;
  };

  NodeId node_;
  std::mt19937_64 rng_;  // key generator (same draw order as HtlcKeyRing)
  std::deque<OutPayment> payments_;
  std::vector<IndexEntry> index_;  // sorted by id, one per live record
  std::vector<std::uint32_t> free_slots_;  // retired positions
  std::uint64_t marked_confirms_ = 0;
  std::uint64_t clean_confirms_ = 0;
};

}  // namespace spider::core
