#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

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
  // Every kind and every scheduling call (absolute, relative, reserved)
  // draws from one sequence counter, so same-time events of mixed kinds
  // fire in exact insertion order. The kinds mixed here include the ones
  // that replaced the former std::function callbacks (arrival, settle,
  // poll, rebalance sweep).
  EventQueue q;
  Capture cap;
  q.set_dispatcher(&Capture::dispatch, &cap);
  q.schedule_typed(1.0, EventKind::kPoll, 0);
  q.schedule_typed(1.0, EventKind::kArrival, 1);
  const std::uint64_t seq = q.reserve_seqs(1);
  q.schedule_typed(1.0, EventKind::kAck, 3);
  q.schedule_typed_reserved(1.0, EventKind::kSettle, seq, 2);
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
  const std::uint64_t seq = q.reserve_seqs(1);
  EXPECT_THROW(q.schedule_typed_reserved(1.0, EventKind::kArrival, seq),
               std::invalid_argument);
}

TEST(EventQueue, TypedEventWithoutDispatcherThrows) {
  EventQueue q;
  q.schedule_typed(1.0, EventKind::kArrival);
  EXPECT_THROW(q.run_all(), std::logic_error);
}

TEST(EventQueue, ReservedSequencesOrderLikeUpfrontScheduling) {
  // reserve_seqs hands out the same sequence numbers a loop of
  // schedule_typed calls would have used; pushing the events later (or
  // out of push order) must not change the firing order.
  EventQueue q;
  Capture cap;
  q.set_dispatcher(&Capture::dispatch, &cap);
  const std::uint64_t seq0 = q.reserve_seqs(3);
  // Push in reverse: firing order must still follow the reserved seqs.
  q.schedule_typed_reserved(1.0, EventKind::kArrival, seq0 + 2, 2);
  q.schedule_typed_reserved(1.0, EventKind::kArrival, seq0 + 1, 1);
  q.schedule_typed_reserved(1.0, EventKind::kArrival, seq0, 0);
  // A typed event scheduled after the reservation draws a later seq.
  q.schedule_typed(1.0, EventKind::kAck, 3);
  q.run_all();
  EXPECT_EQ(cap.fired, (Fired{{EventKind::kArrival, 0},
                              {EventKind::kArrival, 1},
                              {EventKind::kArrival, 2},
                              {EventKind::kAck, 3}}));
}

}  // namespace
}  // namespace spider::sim
