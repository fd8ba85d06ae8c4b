#include "core/scheduler.hpp"

#include <algorithm>

namespace spider::core {

std::string to_string(SchedulingPolicy p) {
  switch (p) {
    case SchedulingPolicy::kFifo:
      return "fifo";
    case SchedulingPolicy::kLifo:
      return "lifo";
    case SchedulingPolicy::kSrpt:
      return "srpt";
    case SchedulingPolicy::kEdf:
      return "edf";
  }
  return "unknown";
}

UnitQueue::UnitQueue(SchedulingPolicy policy) : policy_(policy) {}

void UnitQueue::push(const QueuedUnit& u) {
  items_.push_back(u);
  std::push_heap(items_.begin(), items_.end(), later());
  total_amount_ += u.amount;
  if (u.deadline < min_deadline_) min_deadline_ = u.deadline;
}

std::optional<QueuedUnit> UnitQueue::pop() {
  if (items_.empty()) return std::nullopt;
  std::pop_heap(items_.begin(), items_.end(), later());
  QueuedUnit u = items_.back();
  items_.pop_back();
  total_amount_ -= u.amount;
  if (items_.empty()) min_deadline_ = kNever;
  return u;
}

const QueuedUnit* UnitQueue::peek() const {
  return items_.empty() ? nullptr : &items_.front();
}

bool UnitQueue::erase(TxUnitId unit) {
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (items_[i].unit == unit) {
      total_amount_ -= items_[i].amount;
      items_[i] = items_.back();
      items_.pop_back();
      std::make_heap(items_.begin(), items_.end(), later());
      if (items_.empty()) min_deadline_ = kNever;
      return true;
    }
  }
  return false;
}

void UnitQueue::update_remaining(PaymentId payment, Amount remaining) {
  bool changed = false;
  for (QueuedUnit& u : items_) {
    if (u.unit.payment == payment) {
      u.remaining_payment = remaining;
      changed = true;
    }
  }
  if (changed) std::make_heap(items_.begin(), items_.end(), later());
}

void UnitQueue::drop_expired(TimePoint now,
                             std::vector<QueuedUnit>& expired) {
  if (min_deadline_ >= now) return;  // nothing can have expired
  const std::size_t first = expired.size();
  TimePoint min_left = kNever;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (items_[i].deadline < now) {
      total_amount_ -= items_[i].amount;
      expired.push_back(items_[i]);
    } else {
      if (items_[i].deadline < min_left) min_left = items_[i].deadline;
      items_[kept++] = items_[i];
    }
  }
  if (kept != items_.size()) {
    items_.resize(kept);
    std::make_heap(items_.begin(), items_.end(), later());
    // Callers act on each expired unit in turn; hand them over in the
    // order the old priority-ordered container would have yielded.
    std::sort(expired.begin() + static_cast<std::ptrdiff_t>(first),
              expired.end(), PolicyOrder{policy_});
  }
  min_deadline_ = min_left;
}

void RetryRun::push(const QueuedUnit& u) {
  if (serving_ < batch_ && run_[serving_].unit == u.unit &&
      !order_(u, run_[serving_]) && !order_(run_[serving_], u)) {
    // Same place in the order: compact it into the kept prefix. kept_ <=
    // serving_, so this never overwrites a batch item not yet served.
    run_[kept_++] = u;
    serving_ = kNone;
    return;
  }
  pushed_.push_back(u);
}

std::span<const QueuedUnit> RetryRun::begin_poll(std::size_t budget) {
  if (!pushed_.empty()) {
    // Merge from the back, in place: only the run items ordered after
    // the first pushed item move.
    std::sort(pushed_.begin(), pushed_.end(), order_);
    std::size_t i = run_.size();
    std::size_t j = pushed_.size();
    run_.resize(i + j);
    for (std::size_t w = run_.size(); j > 0;) {
      if (i > 0 && order_(pushed_[j - 1], run_[i - 1])) {
        run_[--w] = run_[--i];
      } else {
        run_[--w] = pushed_[--j];
      }
    }
    pushed_.clear();
  }
  batch_ = budget == 0 ? run_.size() : std::min(budget, run_.size());
  kept_ = 0;
  serving_ = kNone;
  return {run_.data(), batch_};
}

void RetryRun::end_poll() {
  run_.erase(run_.begin() + static_cast<std::ptrdiff_t>(kept_),
             run_.begin() + static_cast<std::ptrdiff_t>(batch_));
  batch_ = 0;
  kept_ = 0;
  serving_ = kNone;
}

}  // namespace spider::core
