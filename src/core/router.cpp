#include "core/router.hpp"

#include <algorithm>
#include <stdexcept>

namespace spider::core {

void Router::bind(std::span<const ArcId> out_arcs) {
  arcs_.assign(out_arcs.begin(), out_arcs.end());
  queues_.clear();
  queues_.reserve(arcs_.size());
  for (std::size_t i = 0; i < arcs_.size(); ++i) queues_.emplace_back(policy_);
  units_ = 0;
  amount_ = 0;
  if (marking_.enabled) {
    delay_ewma_.assign(arcs_.size(), 0.0);
    mark_bit_.assign(arcs_.size(), 0);
  }
}

void Router::configure_marking(const MarkingConfig& mc) {
  if (mc.enabled &&
      (mc.threshold <= 0 || mc.unmark_fraction < 0 ||
       mc.unmark_fraction > 1 || mc.ewma_gain <= 0 || mc.ewma_gain > 1)) {
    throw std::invalid_argument("Router::configure_marking: bad config");
  }
  marking_ = mc;
  delay_ewma_.assign(marking_.enabled ? arcs_.size() : 0, 0.0);
  mark_bit_.assign(marking_.enabled ? arcs_.size() : 0, 0);
  mark_transitions_ = 0;
}

bool Router::observe_delay_local(std::size_t i, TimePoint delay) {
  if (!marking_.enabled) return false;
  double& ewma = delay_ewma_[i];
  ewma += marking_.ewma_gain * (delay - ewma);
  char& bit = mark_bit_[i];
  if (bit == 0) {
    if (ewma > marking_.threshold) {
      bit = 1;
      ++mark_transitions_;
    }
  } else if (ewma < marking_.threshold * marking_.unmark_fraction) {
    bit = 0;
  }
  return bit != 0;
}

std::size_t Router::local_index(ArcId a) const {
  const auto it = std::lower_bound(arcs_.begin(), arcs_.end(), a);
  if (it == arcs_.end() || *it != a) return npos;
  return static_cast<std::size_t>(it - arcs_.begin());
}

void Router::push(ArcId a, const QueuedUnit& u) {
  const std::size_t i = local_index(a);
  if (i == npos) {
    throw std::out_of_range("Router::push: arc not bound to this router");
  }
  push_local(i, u);
}

void Router::push_local(std::size_t i, const QueuedUnit& u) {
  queues_[i].push(u);
  ++units_;
  amount_ += u.amount;
}

std::optional<QueuedUnit> Router::pop(ArcId a) {
  const std::size_t i = local_index(a);
  if (i == npos) {
    throw std::out_of_range("Router::pop: arc not bound to this router");
  }
  return pop_local(i);
}

std::optional<QueuedUnit> Router::pop_local(std::size_t i) {
  std::optional<QueuedUnit> u = queues_[i].pop();
  if (u) {
    --units_;
    amount_ -= u->amount;
  }
  return u;
}

bool Router::erase(ArcId a, TxUnitId unit, Amount amount) {
  const std::size_t i = local_index(a);
  if (i == npos) return false;
  if (!queues_[i].erase(unit)) return false;
  --units_;
  amount_ -= amount;
  return true;
}

const QueuedUnit* Router::peek(ArcId a) const {
  const std::size_t i = local_index(a);
  return i == npos ? nullptr : queues_[i].peek();
}

const UnitQueue* Router::find_queue(ArcId a) const {
  const std::size_t i = local_index(a);
  return i == npos ? nullptr : &queues_[i];
}

void Router::drop_expired(TimePoint now, std::vector<QueuedUnit>& expired) {
  if (units_ == 0) return;
  const std::size_t first = expired.size();
  for (UnitQueue& q : queues_) q.drop_expired(now, expired);
  for (std::size_t i = first; i < expired.size(); ++i) {
    --units_;
    amount_ -= expired[i].amount;
  }
}

}  // namespace spider::core
