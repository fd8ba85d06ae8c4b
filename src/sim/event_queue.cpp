#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace spider::sim {

namespace {
constexpr std::size_t kArity = 4;  // 4-ary heap: children of i at 4i+1..4i+4
}

void EventHeap::push(const SimEvent& ev) {
  // Sift up.
  std::size_t i = heap_.size();
  heap_.push_back(ev);
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!ev.before(heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = ev;
}

SimEvent EventHeap::pop() {
  const SimEvent ev = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  return ev;
}

void EventHeap::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const SimEvent ev = heap_[i];
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (heap_[c].before(heap_[best])) best = c;
    }
    if (!heap_[best].before(ev)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = ev;
}

void EventQueue::schedule_typed(TimePoint t, EventKind kind, std::uint64_t a,
                                std::uint64_t b) {
  if (!(t >= now_)) {  // NaN compares false, so it is rejected too
    throw std::invalid_argument(
        "EventQueue::schedule: time in the past or NaN");
  }
  heap_.push(SimEvent{t, (next_seq_++ << 8) | static_cast<std::uint64_t>(kind),
                      a, b});
}

bool EventQueue::run_next() {
  if (heap_.empty()) return false;
  const SimEvent ev = heap_.pop();
  now_ = ev.time;
  ++processed_;
  if (dispatcher_ == nullptr) {
    throw std::logic_error("EventQueue: event fired without a dispatcher");
  }
  dispatcher_(dispatcher_ctx_, ev.kind(), ev.a, ev.b);
  if (post_hook_ != nullptr) post_hook_(post_hook_ctx_, now_, processed_);
  return true;
}

void EventQueue::run_until(TimePoint t_end) {
  while (!heap_.empty() && heap_.top()->time <= t_end) {
    run_next();
  }
  if (now_ < t_end) now_ = t_end;
}

void EventQueue::run_all() {
  while (run_next()) {
  }
}

std::uint64_t EventQueue::canonical_checksum() const {
  constexpr std::uint64_t kOffset = 1469598103934665603ull;
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h = kOffset;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= kPrime;
  };
  mix(std::bit_cast<std::uint64_t>(now_));
  mix(next_seq_);
  mix(processed_);
  std::vector<SimEvent> pending = heap_.entries();
  std::sort(pending.begin(), pending.end(),
            [](const SimEvent& x, const SimEvent& y) { return x.meta < y.meta; });
  for (const SimEvent& ev : pending) {
    mix(std::bit_cast<std::uint64_t>(ev.time));
    mix(ev.meta);
    mix(ev.a);
    mix(ev.b);
  }
  return h;
}

}  // namespace spider::sim
