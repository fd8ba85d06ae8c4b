#include "core/transport.hpp"

#include <algorithm>
#include <stdexcept>

namespace spider::core {

const std::vector<TxUnit>& Transport::begin_payment(PaymentId id,
                                                    const PaymentRequest& req,
                                                    Amount mtu) {
  if (req.src != node_) {
    throw std::invalid_argument("Transport::begin_payment: wrong source");
  }
  if (mtu <= 0 || req.amount <= 0) {
    throw std::invalid_argument("Transport::begin_payment: bad mtu/amount");
  }
  const std::size_t at = lower_bound(id);
  if (at < index_.size() && index_[at].id == id) {
    throw std::invalid_argument("Transport::begin_payment: duplicate id");
  }
  OutPayment op;
  op.request = req;
  const auto unit_count =
      static_cast<std::uint32_t>((req.amount + mtu - 1) / mtu);
  // Key generation mirrors HtlcKeyRing draw-for-draw (determinism):
  // non-atomic draws one fresh key per unit; atomic draws a base key
  // then unit_count-1 shares, the last share completing the XOR.
  op.keys.reserve(unit_count);
  if (req.kind == PaymentKind::kAtomic) {
    const Preimage base = rng_();
    Preimage running = base;
    for (std::uint32_t i = 0; i < unit_count; ++i) {
      Preimage share;
      if (i + 1 < unit_count) {
        share = rng_();
        running ^= share;
      } else {
        share = running;  // last share completes the XOR to base
      }
      op.keys.push_back(share);
    }
  } else {
    for (std::uint32_t i = 0; i < unit_count; ++i) op.keys.push_back(rng_());
  }
  Amount left = req.amount;
  for (std::uint32_t seq = 0; seq < unit_count; ++seq) {
    TxUnit u;
    u.id = TxUnitId{id, seq};
    u.src = req.src;
    u.dst = req.dst;
    u.amount = std::min(mtu, left);
    left -= u.amount;
    u.deadline = req.deadline;
    u.lock = hash_preimage(op.keys[seq]);
    op.units.push_back(u);
  }
  op.confirmed.assign(unit_count, 0);
  op.abandoned.assign(unit_count, 0);
  op.key_released.assign(unit_count, 0);
  auto pos = static_cast<std::uint32_t>(payments_.size());
  if (!free_slots_.empty()) {
    // Recycle a retired record's slot; deque addresses are stable, so
    // references held for other (live) payments stay valid.
    pos = free_slots_.back();
    free_slots_.pop_back();
    payments_[pos] = std::move(op);
  } else {
    payments_.push_back(std::move(op));
  }
  index_.insert(index_.begin() + static_cast<std::ptrdiff_t>(at),
                IndexEntry{id, pos});
  return payments_[pos].units;
}

void Transport::confirm_unit(TxUnitId unit, TimePoint now, bool marked,
                             std::vector<KeyRelease>& releases) {
  OutPayment* found = find_payment(unit.payment);
  if (found == nullptr) {
    throw std::invalid_argument("Transport::confirm_unit: unknown payment");
  }
  OutPayment& op = *found;
  if (unit.seq >= op.units.size()) {
    throw std::invalid_argument("Transport::confirm_unit: bad seq");
  }
  if (op.confirmed[unit.seq] || op.abandoned[unit.seq]) return;
  // Late confirmations: withhold the key; the in-flight HTLC will be
  // failed by its timeout instead of settled.
  if (now > op.request.deadline) return;
  op.confirmed[unit.seq] = 1;
  op.confirmed_amount += op.units[unit.seq].amount;
  ++op.confirmed_count;
  if (marked) {
    ++marked_confirms_;
  } else {
    ++clean_confirms_;
  }

  if (op.request.kind == PaymentKind::kNonAtomic) {
    if (!op.key_released[unit.seq]) {
      op.key_released[unit.seq] = 1;
      releases.push_back({unit, op.keys[unit.seq]});
    }
  } else if (op.confirmed_count == op.units.size() && !op.keys_released) {
    // All shares arrived: the receiver can reconstruct the base key, so
    // every unit's route settles now.
    op.keys_released = true;
    for (std::uint32_t seq = 0; seq < op.units.size(); ++seq) {
      if (op.key_released[seq]) continue;
      op.key_released[seq] = 1;
      releases.push_back({TxUnitId{unit.payment, seq}, op.keys[seq]});
    }
  }
}

void Transport::abandon_unit(TxUnitId unit) {
  OutPayment* op = find_payment(unit.payment);
  if (op == nullptr) return;
  if (unit.seq < op->units.size() && !op->confirmed[unit.seq] &&
      !op->abandoned[unit.seq]) {
    op->abandoned[unit.seq] = 1;
    ++op->abandoned_count;
  }
}

void Transport::retire_payment(PaymentId id) {
  const std::size_t at = entry_of(id);
  if (at == index_.size()) {
    throw std::invalid_argument("Transport::retire_payment: unknown id");
  }
  const std::uint32_t pos = index_[at].pos;
  index_.erase(index_.begin() + static_cast<std::ptrdiff_t>(at));
  payments_[pos] = OutPayment{};  // drop unit/key memory now
  free_slots_.push_back(pos);
}

std::size_t Transport::lower_bound(PaymentId id) const {
  const auto it = std::lower_bound(
      index_.begin(), index_.end(), id,
      [](const IndexEntry& e, PaymentId key) { return e.id < key; });
  return static_cast<std::size_t>(it - index_.begin());
}

std::size_t Transport::entry_of(PaymentId id) const {
  const std::size_t at = lower_bound(id);
  return at < index_.size() && index_[at].id == id ? at : index_.size();
}

const Transport::OutPayment* Transport::find_payment(PaymentId id) const {
  const std::size_t at = entry_of(id);
  return at < index_.size() ? &payments_[index_[at].pos] : nullptr;
}

const Transport::OutPayment& Transport::get(PaymentId id) const {
  const OutPayment* op = find_payment(id);
  if (op == nullptr) {
    throw std::invalid_argument("Transport: unknown payment id");
  }
  return *op;
}

Amount Transport::delivered(PaymentId id) const {
  const OutPayment& op = get(id);
  if (op.request.kind == PaymentKind::kAtomic && !op.keys_released) {
    return 0;  // nothing unlockable until every share confirmed
  }
  return op.confirmed_amount;
}

PaymentStatus Transport::status(PaymentId id, TimePoint now) const {
  const OutPayment& op = get(id);
  const bool complete = op.confirmed_amount == op.request.amount;
  if (complete &&
      (op.request.kind == PaymentKind::kNonAtomic || op.keys_released)) {
    return PaymentStatus::kSucceeded;
  }
  if (now <= op.request.deadline) return PaymentStatus::kPending;
  if (op.request.kind == PaymentKind::kAtomic) return PaymentStatus::kFailed;
  return op.confirmed_amount > 0 ? PaymentStatus::kPartial
                                 : PaymentStatus::kFailed;
}

const PaymentRequest& Transport::request(PaymentId id) const {
  return get(id).request;
}

}  // namespace spider::core
