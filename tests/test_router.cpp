#include "core/router.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace spider::core {
namespace {

QueuedUnit unit(PaymentId pid, Amount amount, TimePoint enq,
                TimePoint deadline = kNever) {
  QueuedUnit u;
  u.unit = TxUnitId{pid, 0};
  u.amount = amount;
  u.remaining_payment = amount;
  u.enqueued = enq;
  u.deadline = deadline;
  return u;
}

TEST(Router, BindCreatesOneQueuePerArc) {
  Router r(3, SchedulingPolicy::kFifo);
  EXPECT_EQ(r.id(), 3u);
  EXPECT_EQ(r.policy(), SchedulingPolicy::kFifo);
  EXPECT_EQ(r.arc_count(), 0u);
  EXPECT_EQ(r.find_queue(4), nullptr);

  const std::vector<graph::ArcId> arcs{2, 4, 9};
  r.bind(arcs);
  EXPECT_EQ(r.arc_count(), 3u);
  ASSERT_NE(r.find_queue(4), nullptr);
  EXPECT_EQ(r.find_queue(4)->size(), 0u);
  // The queues inherit the router's policy; unbound arcs have none.
  EXPECT_EQ(r.find_queue(4)->policy(), SchedulingPolicy::kFifo);
  EXPECT_EQ(r.find_queue(3), nullptr);

  EXPECT_EQ(r.local_index(2), 0u);
  EXPECT_EQ(r.local_index(4), 1u);
  EXPECT_EQ(r.local_index(9), 2u);
  EXPECT_EQ(r.local_index(5), Router::npos);

  r.push(4, unit(1, 100, 1.0));
  EXPECT_EQ(r.find_queue(4)->size(), 1u);
  EXPECT_THROW(r.push(5, unit(2, 10, 1.0)), std::out_of_range);
}

TEST(Router, AggregatesAcrossArcsInConstantTimeCounters) {
  Router r(0, SchedulingPolicy::kSrpt);
  r.bind(std::vector<graph::ArcId>{0, 2});
  r.push(0, unit(1, 100, 1.0));
  r.push(0, unit(2, 50, 2.0));
  r.push(2, unit(3, 25, 3.0));
  EXPECT_EQ(r.queued_units(), 3u);
  EXPECT_EQ(r.queued_amount(), 175);
  // Counters follow pops too.
  EXPECT_TRUE(r.pop(2).has_value());
  EXPECT_EQ(r.queued_units(), 2u);
  EXPECT_EQ(r.queued_amount(), 150);
  EXPECT_FALSE(r.pop(2).has_value());  // empty queue: counters untouched
  EXPECT_EQ(r.queued_units(), 2u);
}

TEST(Router, DropExpiredSpansAllQueues) {
  Router r(0, SchedulingPolicy::kFifo);
  r.bind(std::vector<graph::ArcId>{0, 2});
  r.push(0, unit(1, 10, 1.0, /*deadline=*/5.0));
  r.push(2, unit(2, 20, 1.0, /*deadline=*/3.0));
  r.push(2, unit(3, 30, 1.0, /*deadline=*/50.0));
  std::vector<QueuedUnit> expired;
  r.drop_expired(10.0, expired);
  ASSERT_EQ(expired.size(), 2u);
  EXPECT_EQ(r.queued_units(), 1u);
  EXPECT_EQ(r.queued_amount(), 30);
}

TEST(Router, SrptRouterServicesSmallestFirst) {
  Router r(0, SchedulingPolicy::kSrpt);
  r.bind(std::vector<graph::ArcId>{0});
  r.push(0, unit(1, 100, 1.0));
  r.push(0, unit(2, 10, 2.0));
  ASSERT_NE(r.peek(0), nullptr);
  EXPECT_EQ(r.peek(0)->unit.payment, 2u);
  EXPECT_EQ(r.pop(0)->unit.payment, 2u);
  EXPECT_EQ(r.pop(0)->unit.payment, 1u);
}

TEST(Router, MarkingSetsAboveThresholdAndClearsWithHysteresis) {
  Router r(0, SchedulingPolicy::kFifo);
  r.bind(std::vector<graph::ArcId>{0, 2});
  MarkingConfig mc;
  mc.enabled = true;
  mc.threshold = 1.0;
  mc.unmark_fraction = 0.5;
  mc.ewma_gain = 0.5;
  r.configure_marking(mc);

  EXPECT_FALSE(r.marked_local(0));
  // One big sample: ewma = 0.5 * 4.0 = 2.0 > threshold, bit sets.
  EXPECT_TRUE(r.observe_delay_local(0, 4.0));
  EXPECT_TRUE(r.marked_local(0));
  EXPECT_DOUBLE_EQ(r.delay_estimate_local(0), 2.0);
  EXPECT_EQ(r.mark_transitions(), 1u);

  // Decay through the hysteresis band: 1.0 and 0.5 are both >= the
  // unmark level (threshold * unmark_fraction = 0.5), so the bit
  // holds; only 0.25 < 0.5 clears it. No threshold chatter.
  EXPECT_TRUE(r.observe_delay_local(0, 0.0));   // ewma 1.0
  EXPECT_TRUE(r.observe_delay_local(0, 0.0));   // ewma 0.5
  EXPECT_FALSE(r.observe_delay_local(0, 0.0));  // ewma 0.25: cleared
  EXPECT_FALSE(r.marked_local(0));
  // Clearing is not a set->clear "transition" in the telemetry; only
  // clear->set flips count (congestion onsets).
  EXPECT_EQ(r.mark_transitions(), 1u);
}

TEST(Router, MarkingTracksArcsIndependently) {
  Router r(0, SchedulingPolicy::kFifo);
  r.bind(std::vector<graph::ArcId>{0, 2, 9});
  MarkingConfig mc;
  mc.enabled = true;
  mc.threshold = 0.5;
  mc.ewma_gain = 1.0;  // estimate == last sample
  r.configure_marking(mc);
  EXPECT_TRUE(r.observe_delay_local(1, 2.0));
  EXPECT_FALSE(r.marked_local(0));
  EXPECT_TRUE(r.marked_local(1));
  EXPECT_FALSE(r.marked_local(2));
  EXPECT_DOUBLE_EQ(r.delay_estimate_local(0), 0.0);
  EXPECT_DOUBLE_EQ(r.delay_estimate_local(1), 2.0);
}

TEST(Router, MarkingDisabledObservesNothing) {
  Router r(0, SchedulingPolicy::kFifo);
  r.bind(std::vector<graph::ArcId>{0});
  EXPECT_FALSE(r.observe_delay_local(0, 100.0));
  EXPECT_FALSE(r.marked_local(0));
  EXPECT_DOUBLE_EQ(r.delay_estimate_local(0), 0.0);
  EXPECT_EQ(r.mark_transitions(), 0u);
}

TEST(Router, MarkingRejectsBadConfig) {
  Router r(0, SchedulingPolicy::kFifo);
  r.bind(std::vector<graph::ArcId>{0});
  MarkingConfig mc;
  mc.enabled = true;
  mc.threshold = 0.0;
  EXPECT_THROW(r.configure_marking(mc), std::invalid_argument);
  mc.threshold = 0.3;
  mc.ewma_gain = 1.5;
  EXPECT_THROW(r.configure_marking(mc), std::invalid_argument);
  mc.ewma_gain = 0.25;
  mc.unmark_fraction = -0.1;
  EXPECT_THROW(r.configure_marking(mc), std::invalid_argument);
}

TEST(Router, LocalIndexVariantsMatchByArcCalls) {
  Router r(0, SchedulingPolicy::kFifo);
  r.bind(std::vector<graph::ArcId>{6, 8});
  r.push_local(1, unit(1, 40, 1.0));
  EXPECT_EQ(r.peek(8), r.peek_local(1));
  EXPECT_EQ(r.queued_amount(), 40);
  EXPECT_EQ(r.pop_local(1)->unit.payment, 1u);
  EXPECT_EQ(r.queued_units(), 0u);
}

}  // namespace
}  // namespace spider::core
