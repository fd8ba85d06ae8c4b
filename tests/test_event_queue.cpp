#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <queue>
#include <random>
#include <utility>
#include <vector>

namespace spider::sim {
namespace {

using Fired = std::vector<std::pair<EventKind, std::uint64_t>>;

/// Test dispatcher: records (kind, payload a) in firing order.
struct Capture {
  Fired fired;
  static void dispatch(void* ctx, EventKind kind, std::uint64_t a,
                       std::uint64_t /*b*/) {
    static_cast<Capture*>(ctx)->fired.emplace_back(kind, a);
  }
};

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  Capture cap;
  q.set_dispatcher(&Capture::dispatch, &cap);
  q.schedule_typed(3.0, EventKind::kPoll, 3);
  q.schedule_typed(1.0, EventKind::kPoll, 1);
  q.schedule_typed(2.0, EventKind::kPoll, 2);
  q.run_all();
  EXPECT_EQ(cap.fired, (Fired{{EventKind::kPoll, 1},
                              {EventKind::kPoll, 2},
                              {EventKind::kPoll, 3}}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  Capture cap;
  q.set_dispatcher(&Capture::dispatch, &cap);
  for (std::uint64_t i = 0; i < 5; ++i) {
    q.schedule_typed(1.0, EventKind::kPoll, i);
  }
  q.run_all();
  ASSERT_EQ(cap.fired.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(cap.fired[i].second, i);
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  EventQueue q;
  Capture cap;
  q.set_dispatcher(&Capture::dispatch, &cap);
  q.schedule_typed(1.0, EventKind::kPoll);
  q.schedule_typed(2.0, EventKind::kPoll);
  q.schedule_typed(5.0, EventKind::kPoll);
  q.run_until(2.0);  // inclusive boundary
  EXPECT_EQ(cap.fired.size(), 2u);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, RunUntilAdvancesClockWithoutEvents) {
  EventQueue q;
  q.run_until(7.5);
  EXPECT_DOUBLE_EQ(q.now(), 7.5);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  // A periodic event re-arms itself from the dispatcher, the way the
  // simulators drive their polls and sweeps.
  struct Ticker {
    EventQueue q;
    int count = 0;
  } t;
  t.q.set_dispatcher(
      [](void* ctx, EventKind kind, std::uint64_t, std::uint64_t) {
        auto* self = static_cast<Ticker*>(ctx);
        if (++self->count < 4) self->q.schedule_typed_in(1.0, kind);
      },
      &t);
  t.q.schedule_typed(0.0, EventKind::kPoll);
  t.q.run_all();
  EXPECT_EQ(t.count, 4);
  EXPECT_DOUBLE_EQ(t.q.now(), 3.0);
}

TEST(EventQueue, PastSchedulingThrows) {
  EventQueue q;
  EXPECT_THROW(q.schedule_typed_in(-1.0, EventKind::kPoll),
               std::invalid_argument);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, NaNTimeThrows) {
  // NaN compares false to everything, so a `t < now` guard let it in
  // and the heap order was then undefined.
  EventQueue q;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(q.schedule_typed(nan, EventKind::kPoll), std::invalid_argument);
  EXPECT_THROW(q.schedule_typed_in(nan, EventKind::kPoll),
               std::invalid_argument);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, RunNextReturnsFalseWhenEmpty) {
  EventQueue q;
  EXPECT_FALSE(q.run_next());
}

TEST(EventQueue, TypedEventsFireInTimeOrderThroughDispatcher) {
  EventQueue q;
  Capture cap;
  q.set_dispatcher(&Capture::dispatch, &cap);
  q.schedule_typed(3.0, EventKind::kAck, 30);
  q.schedule_typed(1.0, EventKind::kArrival, 10);
  q.schedule_typed(2.0, EventKind::kHopAdvance, 20);
  q.run_all();
  EXPECT_EQ(cap.fired, (Fired{{EventKind::kArrival, 10},
                              {EventKind::kHopAdvance, 20},
                              {EventKind::kAck, 30}}));
  EXPECT_EQ(q.processed(), 3u);
}

TEST(EventQueue, SameTimeFifoSurvivesMixedTypedAndCallbackEvents) {
  // Every kind and every scheduling call (absolute, relative) draws
  // from one sequence counter, so same-time events of mixed kinds
  // fire in exact insertion order. The kinds mixed here include the ones
  // that replaced the former std::function callbacks (arrival, settle,
  // poll, rebalance sweep).
  EventQueue q;
  Capture cap;
  q.set_dispatcher(&Capture::dispatch, &cap);
  q.schedule_typed(1.0, EventKind::kPoll, 0);
  q.schedule_typed(1.0, EventKind::kArrival, 1);
  q.schedule_typed(1.0, EventKind::kSettle, 2);
  q.schedule_typed(1.0, EventKind::kAck, 3);
  q.schedule_typed_in(1.0, EventKind::kExpirySweep, 4);
  q.schedule_typed(1.0, EventKind::kRebalanceSweep, 5);
  q.run_all();
  EXPECT_EQ(cap.fired, (Fired{{EventKind::kPoll, 0},
                              {EventKind::kArrival, 1},
                              {EventKind::kSettle, 2},
                              {EventKind::kAck, 3},
                              {EventKind::kExpirySweep, 4},
                              {EventKind::kRebalanceSweep, 5}}));
}

TEST(EventQueue, TypedPastSchedulingThrows) {
  EventQueue q;
  Capture cap;
  q.set_dispatcher(&Capture::dispatch, &cap);
  q.schedule_typed(2.0, EventKind::kArrival);
  q.run_all();
  EXPECT_THROW(q.schedule_typed(1.0, EventKind::kArrival),
               std::invalid_argument);
}

TEST(EventQueue, TypedEventWithoutDispatcherThrows) {
  EventQueue q;
  q.schedule_typed(1.0, EventKind::kArrival);
  EXPECT_THROW(q.run_all(), std::logic_error);
}

TEST(EventQueue, PendingCountsLaneAndHeapEvents) {
  EventQueue q;
  Capture cap;
  q.set_dispatcher(&Capture::dispatch, &cap);
  q.schedule_typed_in(1.0, EventKind::kHopAdvance, 0);  // a lane
  q.schedule_typed_in(1.0, EventKind::kHopAdvance, 1);  // the same lane
  q.schedule_typed_in(2.0, EventKind::kAck, 2);         // a second lane
  q.schedule_typed(1.5, EventKind::kPoll, 3);           // the heap
  EXPECT_EQ(q.pending(), 4u);
  q.run_until(1.0);
  EXPECT_EQ(q.pending(), 2u);
  q.run_all();
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(cap.fired, (Fired{{EventKind::kHopAdvance, 0},
                              {EventKind::kHopAdvance, 1},
                              {EventKind::kPoll, 3},
                              {EventKind::kAck, 2}}));
}

// ---------------------------------------------------------------------------
// Differential test: the lane-and-heap queue against a reference priority
// queue on (time, seq), and against a second EventQueue that receives every
// event as an absolute schedule. All three run one seeded program: each
// fired event may schedule children from inside the dispatcher, and the
// driver schedules more between run_until / run_next steps.

/// One fired event: time, seq, kind and payload. The program stamps its
/// own schedule counter into payload word `a`, so `a` is the engine's seq.
struct Firing {
  double time;
  std::uint64_t seq;
  EventKind kind;
  std::uint64_t b;
  bool operator==(const Firing&) const = default;
};

/// Reference engine: std::priority_queue on (time, seq), no lanes.
class ReferenceQueue {
 public:
  void schedule(double t, EventKind kind, std::uint64_t a, std::uint64_t b) {
    pq_.push(Entry{t, next_seq_++, kind, a, b});
  }
  [[nodiscard]] double now() const { return now_; }
  [[nodiscard]] bool empty() const { return pq_.empty(); }
  [[nodiscard]] double top_time() const { return pq_.top().time; }
  void advance_to(double t) {
    if (now_ < t) now_ = t;
  }
  template <typename F>
  void fire_next(F&& dispatch) {
    const Entry e = pq_.top();
    pq_.pop();
    now_ = e.time;
    dispatch(e.kind, e.a, e.b);
  }

 private:
  struct Entry {
    double time;
    std::uint64_t seq;
    EventKind kind;
    std::uint64_t a;
    std::uint64_t b;
  };
  struct Later {
    bool operator()(const Entry& x, const Entry& y) const {
      if (x.time != y.time) return x.time > y.time;
      return x.seq > y.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, Later> pq_;
  double now_ = 0;
  std::uint64_t next_seq_ = 0;
};

/// How an engine takes a relative schedule.
enum class Engine { kLanes, kAbsolute, kReference };

/// The seeded program plus one engine running it. Every engine draws
/// the same random numbers as long as the firing orders agree.
class DiffRun {
 public:
  DiffRun(Engine engine, std::uint64_t seed) : engine_(engine), rng_(seed) {
    q_.set_dispatcher(
        [](void* ctx, EventKind kind, std::uint64_t a, std::uint64_t b) {
          static_cast<DiffRun*>(ctx)->on_event(kind, a, b);
        },
        this);
  }

  [[nodiscard]] double now() const {
    return engine_ == Engine::kReference ? ref_.now() : q_.now();
  }
  [[nodiscard]] const EventQueue& queue() const { return q_; }
  [[nodiscard]] const std::vector<Firing>& fired() const { return fired_; }

  /// Schedules one random event: absolute or relative; a repeated,
  /// zero, grid or arbitrary delay.
  void schedule_random() {
    const std::uint64_t r = rng_();
    const auto kind = static_cast<EventKind>(
        r % (static_cast<std::uint64_t>(EventKind::kRebalanceDeposit) + 1));
    const std::uint64_t b = rng_();
    const double d = random_delay();
    if ((r >> 8) % 4 == 0) {
      schedule_abs(now() + d, kind, b);
    } else {
      schedule_rel(d, kind, b);
    }
  }

  void run_until(double t_end) {
    if (engine_ != Engine::kReference) return q_.run_until(t_end);
    while (!ref_.empty() && ref_.top_time() <= t_end) fire_reference();
    ref_.advance_to(t_end);
  }

  bool run_next() {
    if (engine_ != Engine::kReference) return q_.run_next();
    if (ref_.empty()) return false;
    fire_reference();
    return true;
  }

 private:
  // A few hot delays (like a hop and an ack), zero, more distinct grid
  // delays than there are lanes, and arbitrary ones. The grid is
  // dyadic, so times collide exactly across lanes and the heap.
  double random_delay() {
    static constexpr double kHot[] = {0.25, 0.5, 1.0, 1.5};
    const std::uint64_t pick = rng_() % 16;
    if (pick < 8) return kHot[pick % 4];
    if (pick < 10) return 0.0;
    if (pick < 15) return 0.125 * static_cast<double>(1 + rng_() % 40);
    return std::uniform_real_distribution<double>(0.0, 3.0)(rng_);
  }

  void schedule_abs(double t, EventKind kind, std::uint64_t b) {
    const std::uint64_t a = scheduled_++;
    if (engine_ == Engine::kReference) {
      ref_.schedule(t, kind, a, b);
    } else {
      q_.schedule_typed(t, kind, a, b);
    }
  }

  void schedule_rel(double d, EventKind kind, std::uint64_t b) {
    const std::uint64_t a = scheduled_++;
    switch (engine_) {
      case Engine::kLanes:
        q_.schedule_typed_in(d, kind, a, b);
        break;
      case Engine::kAbsolute:
        q_.schedule_typed(q_.now() + d, kind, a, b);
        break;
      case Engine::kReference:
        ref_.schedule(now() + d, kind, a, b);
        break;
    }
  }

  void fire_reference() {
    ref_.fire_next([this](EventKind kind, std::uint64_t a, std::uint64_t b) {
      on_event(kind, a, b);
    });
  }

  // Children keep the population in the hundreds, so lane rings fill,
  // wrap and grow, until the budget runs out and the run drains.
  void on_event(EventKind kind, std::uint64_t a, std::uint64_t b) {
    fired_.push_back(Firing{now(), a, kind, b});
    if (scheduled_ >= kBudget) return;
    const std::uint64_t children = rng_() % 3;  // 0, 1 or 2
    for (std::uint64_t i = 0; i < children; ++i) schedule_random();
  }

  static constexpr std::uint64_t kBudget = 6000;

  Engine engine_;
  std::mt19937_64 rng_;
  EventQueue q_;
  ReferenceQueue ref_;
  std::uint64_t scheduled_ = 0;
  std::vector<Firing> fired_;
};

TEST(EventQueueDifferential, LanesFireInReferenceOrder) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    DiffRun lanes(Engine::kLanes, seed);
    DiffRun absolute(Engine::kAbsolute, seed);
    DiffRun ref(Engine::kReference, seed);
    DiffRun* runs[] = {&lanes, &absolute, &ref};
    // The driver's own choices come from a separate stream, so the three
    // programs see the same steps.
    std::mt19937_64 driver(seed * 0x9e3779b97f4a7c15ull);
    double horizon = 0;
    for (int step = 0; step < 200; ++step) {
      const std::uint64_t seeds_now = driver() % 6;
      for (DiffRun* r : runs) {
        for (std::uint64_t i = 0; i < seeds_now; ++i) r->schedule_random();
      }
      if (driver() % 4 == 0) {
        for (DiffRun* r : runs) r->run_next();
      } else {
        // Boundaries on the delay grid land exactly on event times, so
        // the inclusive bound is exercised; off-grid ones fall between.
        horizon += driver() % 2 == 0
                       ? 0.125 * static_cast<double>(driver() % 8)
                       : std::uniform_real_distribution<double>(0, 1)(driver);
        for (DiffRun* r : runs) r->run_until(horizon);
      }
      ASSERT_EQ(lanes.fired(), ref.fired()) << "step " << step;
      ASSERT_EQ(absolute.fired(), ref.fired()) << "step " << step;
      ASSERT_EQ(lanes.now(), ref.now());
      ASSERT_EQ(absolute.now(), ref.now());
      ASSERT_EQ(lanes.queue().pending(), absolute.queue().pending());
      ASSERT_EQ(lanes.queue().canonical_checksum(),
                absolute.queue().canonical_checksum())
          << "step " << step;
    }
    for (DiffRun* r : runs) {
      while (r->run_next()) {
      }
    }
    ASSERT_EQ(lanes.fired(), ref.fired());
    EXPECT_EQ(absolute.fired(), ref.fired());
    EXPECT_EQ(lanes.queue().pending(), 0u);
    EXPECT_EQ(lanes.queue().canonical_checksum(),
              absolute.queue().canonical_checksum());
  }
}

}  // namespace
}  // namespace spider::sim
