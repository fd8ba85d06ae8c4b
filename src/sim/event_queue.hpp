#pragma once
// Deterministic discrete-event engine. Events fire in (time, seq) order,
// where seq is the insertion sequence number, so two runs with the same
// seed are bit-for-bit identical.
//
// Every event is typed: a tagged union of the simulators' fixed event
// kinds with two 64-bit payload words, stored inline. Scheduling one
// allocates nothing per event; firing one calls the registered
// dispatcher (a plain function pointer + context, set once per
// simulation).
//
// Pending events live in two places (DESIGN.md §16):
//   - delay lanes: an event scheduled `schedule_typed_in(d, ...)` joins
//     the FIFO lane of the exact delay `d`. The clock never goes back,
//     and `now + d` is monotone in `now` under IEEE rounding, so each
//     lane is already sorted by (time, seq); a push and a pop are O(1).
//     At most 16 distinct delays get a lane (kMaxLanes in
//     event_queue.cpp); later ones use the heap.
//   - a 4-ary min-heap for absolute-time schedules (`schedule_typed`)
//     and for delays beyond the lane cap.
// Each pop takes the earliest of the heap top and the lane heads by
// SimEvent::before, so the firing order is the (time, seq) order a
// single heap would give. In the packet simulator every hop and every
// unwithheld ack is a lane event: the heap holds a handful of periodic
// and fault events.

#include <cstdint>
#include <vector>

#include "core/types.hpp"

namespace spider::sim {

using core::TimePoint;

/// Fixed event kinds of the flow and packet simulators, interpreted by
/// each simulator's registered dispatcher. The numeric values are
/// append-only: they are part of every pending event's `meta` word, so
/// canonical_checksum (and the service snapshot checksums built on it)
/// would change if an existing kind were renumbered.
enum class EventKind : std::uint8_t {
  kArrival,           // a payment enters the network (payload a = PaymentId)
  kHopAdvance,        // a unit finishes a hop's propagation delay (a = handle)
  kAck,               // receiver confirmation reaches the sender (a = handle)
  kSettle,            // flow sim: deferred settlement of a send (a = handle)
  kExpirySweep,       // periodic router-queue expiry sweep (no payload)
  kSeriesSample,      // periodic telemetry sample (no payload)
  kFaultStart,        // a fault-plan entry begins (a = plan index)
  kFaultEnd,          // a fault window ends (a = FaultInjector::pack_end word)
  kPoll,              // flow sim: periodic retry-queue poll (no payload)
  kRebalanceSweep,    // flow sim: periodic on-chain rebalancing sweep
  kRebalanceDeposit,  // flow sim: deposit confirms (a = edge<<1|side, b = amt)
};

/// POD heap entry, 32 bytes: the sequence number and kind share one
/// word (seq in the high 56 bits, so ordering by `meta` IS ordering by
/// insertion sequence). Payload is inline.
struct SimEvent {
  TimePoint time;
  std::uint64_t meta;  // (seq << 8) | kind
  std::uint64_t a;
  std::uint64_t b;

  [[nodiscard]] EventKind kind() const {
    return static_cast<EventKind>(meta & 0xff);
  }
  /// Strict total order (time, seq): earlier fires first.
  [[nodiscard]] bool before(const SimEvent& o) const {
    if (time != o.time) return time < o.time;
    return meta < o.meta;
  }
};

/// 4-ary min-heap on SimEvent::before. The d-ary layout halves the pop
/// depth vs a binary heap and keeps siblings in one cache line; pop
/// order is the comparator's total order regardless of layout, so
/// determinism is untouched.
class EventHeap {
 public:
  void push(const SimEvent& ev);
  /// Removes and returns the minimum; undefined on an empty heap.
  SimEvent pop();
  [[nodiscard]] const SimEvent* top() const {
    return heap_.empty() ? nullptr : heap_.data();
  }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  /// Underlying array in heap layout (deterministic given a
  /// deterministic push/pop sequence); used by canonical_checksum.
  [[nodiscard]] const std::vector<SimEvent>& entries() const { return heap_; }

 private:
  void sift_down(std::size_t i);

  std::vector<SimEvent> heap_;
};

class EventQueue {
 public:
  /// Event sink: called with the event's kind and payload words.
  using Dispatcher = void (*)(void* ctx, EventKind kind, std::uint64_t a,
                              std::uint64_t b);

  /// Registers the event sink (one per queue; required before the first
  /// event fires).
  void set_dispatcher(Dispatcher fn, void* ctx) {
    dispatcher_ = fn;
    dispatcher_ctx_ = ctx;
  }

  /// Post-event hook: called after every executed event with the
  /// advanced clock and the processed-event count. Used by the opt-in
  /// InvariantAuditor (sim/audit.hpp); when unset the cost is one
  /// predictable branch per event. The hook must not schedule events.
  using PostEventHook = void (*)(void* ctx, TimePoint now,
                                 std::uint64_t processed);
  void set_post_event_hook(PostEventHook fn, void* ctx) {
    post_hook_ = fn;
    post_hook_ctx_ = ctx;
  }

  /// Schedules an event at absolute time `t` (must be >= now(), so not
  /// NaN; throws std::invalid_argument otherwise). Zero allocation.
  void schedule_typed(TimePoint t, EventKind kind, std::uint64_t a = 0,
                      std::uint64_t b = 0);

  /// Schedules an event at `now() + delay` (same checks as
  /// schedule_typed). The event joins the FIFO lane of this exact delay
  /// while the lane count is under its cap, else the heap. Use it for
  /// the fixed delays a simulation repeats (a hop, an ack over L hops, a
  /// periodic sweep); schedule an arbitrary one-off delay with
  /// `schedule_typed(now() + delay, ...)` so it takes no lane.
  void schedule_typed_in(TimePoint delay, EventKind kind, std::uint64_t a = 0,
                         std::uint64_t b = 0);

  /// Pops and runs the earliest event, advancing the clock.
  /// Returns false when no events remain.
  bool run_next();

  /// Runs events while their time is <= `t_end`, then advances the clock
  /// to exactly `t_end`. Later events stay queued.
  void run_until(TimePoint t_end);

  /// Runs everything to quiescence.
  void run_all();

  [[nodiscard]] TimePoint now() const { return now_; }
  /// Events scheduled and not yet fired, heap and lanes together.
  [[nodiscard]] std::size_t pending() const;
  /// Events executed so far (monotone; the unit of events/sec benches).
  [[nodiscard]] std::uint64_t processed() const { return processed_; }

  /// FNV-1a over the clock, sequence counter, processed-event count,
  /// and every pending event (time bits, meta, payload) sorted by
  /// sequence number -- a pure function of the engine's semantic state,
  /// independent of heap layout and of which events sit in lanes. Two
  /// byte-identical runs checksum identically at the same point;
  /// PacketSimulator::state_checksum() mixes it in for the service-mode
  /// snapshot validation (DESIGN.md §13).
  [[nodiscard]] std::uint64_t canonical_checksum() const;

 private:
  /// FIFO ring of the pending events that share one delay; sorted by
  /// (time, seq) because they were pushed in that order. The ring's
  /// capacity is a power of two that doubles when full, so its memory
  /// tracks the lane's peak live count, as the heap's vector does.
  struct Lane {
    TimePoint delay = 0;
    std::vector<SimEvent> ring;
    std::size_t head = 0;  // index of the earliest event
    std::size_t size = 0;

    void push(const SimEvent& ev);
    SimEvent pop();
    /// The i-th earliest event, i < size.
    [[nodiscard]] const SimEvent& at(std::size_t i) const {
      return ring[(head + i) & (ring.size() - 1)];
    }
  };

  /// Source of the earliest pending event: a lane index, kFromHeap, or
  /// kNone when nothing is pending.
  static constexpr std::size_t kFromHeap = ~std::size_t{0};
  static constexpr std::size_t kNone = kFromHeap - 1;
  [[nodiscard]] std::size_t earliest() const;
  [[nodiscard]] const SimEvent& peek(std::size_t src) const {
    return src == kFromHeap ? *heap_.top() : lanes_[src].at(0);
  }
  /// Checks `t` and stamps the next sequence number on a new event.
  SimEvent make_event(TimePoint t, EventKind kind, std::uint64_t a,
                      std::uint64_t b);
  /// Pops the event at `src`, advances the clock and dispatches it.
  void fire(std::size_t src);

  TimePoint now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  EventHeap heap_;
  std::vector<Lane> lanes_;  // at most kMaxLanes; a lane is never dropped

  Dispatcher dispatcher_ = nullptr;
  void* dispatcher_ctx_ = nullptr;
  PostEventHook post_hook_ = nullptr;
  void* post_hook_ctx_ = nullptr;
};

}  // namespace spider::sim
