#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace spider::sim {

namespace {
constexpr std::size_t kArity = 4;  // 4-ary heap: children of i at 4i+1..4i+4
// Distinct delays that get a lane. The packet simulator needs one for
// the hop delay, one per path length (an ack's delay is hop_delay * L)
// and one for the expiry sweep: 9 on ripple-3774. A delay past the cap
// goes to the heap, which is exact too, only slower.
constexpr std::size_t kMaxLanes = 16;
// First ring capacity of a lane (a power of two, as every later one).
constexpr std::size_t kMinRing = 16;
}  // namespace

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

void EventQueue::Lane::push(const SimEvent& ev) {
  if (size == ring.size()) {
    // Full: unroll into a ring twice the size, earliest event first.
    std::vector<SimEvent> grown(std::max<std::size_t>(kMinRing, 2 * size));
    for (std::size_t i = 0; i < size; ++i) grown[i] = at(i);
    ring = std::move(grown);
    head = 0;
  }
  ring[(head + size) & (ring.size() - 1)] = ev;
  ++size;
}

SimEvent EventQueue::Lane::pop() {
  const SimEvent ev = ring[head];
  head = (head + 1) & (ring.size() - 1);
  --size;
  return ev;
}

SimEvent EventQueue::make_event(TimePoint t, EventKind kind, std::uint64_t a,
                                std::uint64_t b) {
  if (!(t >= now_)) {  // NaN compares false, so it is rejected too
    throw std::invalid_argument(
        "EventQueue::schedule: time in the past or NaN");
  }
  return SimEvent{t, (next_seq_++ << 8) | static_cast<std::uint64_t>(kind), a,
                  b};
}

void EventQueue::schedule_typed(TimePoint t, EventKind kind, std::uint64_t a,
                                std::uint64_t b) {
  heap_.push(make_event(t, kind, a, b));
}

void EventQueue::schedule_typed_in(TimePoint delay, EventKind kind,
                                   std::uint64_t a, std::uint64_t b) {
  const SimEvent ev = make_event(now_ + delay, kind, a, b);
  for (Lane& lane : lanes_) {
    if (lane.delay == delay) {
      lane.push(ev);
      return;
    }
  }
  if (lanes_.size() < kMaxLanes) {
    lanes_.push_back(Lane{delay, {}, 0, 0});
    lanes_.back().push(ev);
    return;
  }
  heap_.push(ev);
}

std::size_t EventQueue::pending() const {
  std::size_t n = heap_.size();
  for (const Lane& lane : lanes_) n += lane.size;
  return n;
}

std::size_t EventQueue::earliest() const {
  const SimEvent* best = heap_.top();
  std::size_t src = best == nullptr ? kNone : kFromHeap;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (lanes_[i].size == 0) continue;
    const SimEvent& head = lanes_[i].at(0);
    if (best == nullptr || head.before(*best)) {
      best = &head;
      src = i;
    }
  }
  return src;
}

void EventQueue::fire(std::size_t src) {
  const SimEvent ev = src == kFromHeap ? heap_.pop() : lanes_[src].pop();
  now_ = ev.time;
  ++processed_;
  if (dispatcher_ == nullptr) {
    throw std::logic_error("EventQueue: event fired without a dispatcher");
  }
  dispatcher_(dispatcher_ctx_, ev.kind(), ev.a, ev.b);
  if (post_hook_ != nullptr) post_hook_(post_hook_ctx_, now_, processed_);
}

bool EventQueue::run_next() {
  const std::size_t src = earliest();
  if (src == kNone) return false;
  fire(src);
  return true;
}

void EventQueue::run_until(TimePoint t_end) {
  for (std::size_t src = earliest(); src != kNone && peek(src).time <= t_end;
       src = earliest()) {
    fire(src);
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
  for (const Lane& lane : lanes_) {
    for (std::size_t i = 0; i < lane.size; ++i) pending.push_back(lane.at(i));
  }
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
