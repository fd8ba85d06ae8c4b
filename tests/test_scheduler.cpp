#include "core/scheduler.hpp"

#include <gtest/gtest.h>

#include <random>
#include <tuple>
#include <vector>

namespace spider::core {
namespace {

QueuedUnit make_unit(PaymentId pid, std::uint32_t seq, Amount amount,
                     Amount remaining, TimePoint enq, TimePoint deadline) {
  QueuedUnit u;
  u.unit = TxUnitId{pid, seq};
  u.amount = amount;
  u.remaining_payment = remaining;
  u.enqueued = enq;
  u.deadline = deadline;
  return u;
}

TEST(UnitQueue, FifoOrder) {
  UnitQueue q(SchedulingPolicy::kFifo);
  q.push(make_unit(1, 0, 10, 100, 2.0, kNever));
  q.push(make_unit(2, 0, 10, 5, 1.0, kNever));
  q.push(make_unit(3, 0, 10, 50, 3.0, kNever));
  EXPECT_EQ(q.pop()->unit.payment, 2u);
  EXPECT_EQ(q.pop()->unit.payment, 1u);
  EXPECT_EQ(q.pop()->unit.payment, 3u);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(UnitQueue, LifoOrder) {
  UnitQueue q(SchedulingPolicy::kLifo);
  q.push(make_unit(1, 0, 10, 100, 1.0, kNever));
  q.push(make_unit(2, 0, 10, 100, 2.0, kNever));
  EXPECT_EQ(q.pop()->unit.payment, 2u);
  EXPECT_EQ(q.pop()->unit.payment, 1u);
}

TEST(UnitQueue, SrptOrdersBySmallestRemaining) {
  UnitQueue q(SchedulingPolicy::kSrpt);
  q.push(make_unit(1, 0, 10, 500, 1.0, kNever));
  q.push(make_unit(2, 0, 10, 5, 2.0, kNever));
  q.push(make_unit(3, 0, 10, 50, 3.0, kNever));
  EXPECT_EQ(q.pop()->unit.payment, 2u);
  EXPECT_EQ(q.pop()->unit.payment, 3u);
  EXPECT_EQ(q.pop()->unit.payment, 1u);
}

TEST(UnitQueue, EdfOrdersByDeadline) {
  UnitQueue q(SchedulingPolicy::kEdf);
  q.push(make_unit(1, 0, 10, 1, 1.0, 30.0));
  q.push(make_unit(2, 0, 10, 1, 2.0, 10.0));
  q.push(make_unit(3, 0, 10, 1, 3.0, 20.0));
  EXPECT_EQ(q.pop()->unit.payment, 2u);
  EXPECT_EQ(q.pop()->unit.payment, 3u);
  EXPECT_EQ(q.pop()->unit.payment, 1u);
}

TEST(UnitQueue, DeterministicTieBreakByUnitId) {
  UnitQueue q(SchedulingPolicy::kSrpt);
  q.push(make_unit(7, 1, 10, 100, 1.0, kNever));
  q.push(make_unit(7, 0, 10, 100, 1.0, kNever));
  q.push(make_unit(5, 0, 10, 100, 1.0, kNever));
  EXPECT_EQ(q.pop()->unit, (TxUnitId{5, 0}));
  EXPECT_EQ(q.pop()->unit, (TxUnitId{7, 0}));
  EXPECT_EQ(q.pop()->unit, (TxUnitId{7, 1}));
}

TEST(UnitQueue, PeekDoesNotRemove) {
  UnitQueue q(SchedulingPolicy::kFifo);
  EXPECT_EQ(q.peek(), nullptr);
  q.push(make_unit(1, 0, 10, 1, 1.0, kNever));
  ASSERT_NE(q.peek(), nullptr);
  EXPECT_EQ(q.peek()->unit.payment, 1u);
  EXPECT_EQ(q.size(), 1u);
}

TEST(UnitQueue, EraseSpecificUnit) {
  UnitQueue q(SchedulingPolicy::kFifo);
  q.push(make_unit(1, 0, 10, 1, 1.0, kNever));
  q.push(make_unit(1, 1, 10, 1, 2.0, kNever));
  EXPECT_TRUE(q.erase(TxUnitId{1, 0}));
  EXPECT_FALSE(q.erase(TxUnitId{1, 0}));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop()->unit.seq, 1u);
}

TEST(UnitQueue, UpdateRemainingReorders) {
  UnitQueue q(SchedulingPolicy::kSrpt);
  q.push(make_unit(1, 0, 10, 100, 1.0, kNever));
  q.push(make_unit(2, 0, 10, 50, 1.0, kNever));
  q.update_remaining(1, 5);  // payment 1 nearly done now
  EXPECT_EQ(q.pop()->unit.payment, 1u);
}

TEST(UnitQueue, DropExpired) {
  UnitQueue q(SchedulingPolicy::kFifo);
  q.push(make_unit(1, 0, 10, 1, 1.0, 5.0));
  q.push(make_unit(2, 0, 10, 1, 1.0, 15.0));
  q.push(make_unit(3, 0, 10, 1, 1.0, 2.0));
  std::vector<QueuedUnit> expired;
  q.drop_expired(10.0, expired);
  ASSERT_EQ(expired.size(), 2u);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop()->unit.payment, 2u);
}

TEST(UnitQueue, TotalAmount) {
  UnitQueue q(SchedulingPolicy::kFifo);
  EXPECT_EQ(q.total_amount(), 0);
  q.push(make_unit(1, 0, 10, 1, 1.0, kNever));
  q.push(make_unit(2, 0, 25, 1, 1.0, kNever));
  EXPECT_EQ(q.total_amount(), 35);
}

class PolicyNameTest
    : public ::testing::TestWithParam<std::pair<SchedulingPolicy,
                                                std::string>> {};

TEST_P(PolicyNameTest, ToString) {
  EXPECT_EQ(to_string(GetParam().first), GetParam().second);
  UnitQueue q(GetParam().first);
  EXPECT_EQ(q.policy(), GetParam().first);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyNameTest,
    ::testing::Values(std::pair{SchedulingPolicy::kFifo, std::string("fifo")},
                      std::pair{SchedulingPolicy::kLifo, std::string("lifo")},
                      std::pair{SchedulingPolicy::kSrpt, std::string("srpt")},
                      std::pair{SchedulingPolicy::kEdf, std::string("edf")}));

// RetryRun must serve exactly the batches of a UnitQueue driven the old
// way: pop the whole batch when the poll starts, re-push incomplete
// items while serving them. Random arrivals (also mid-poll), progress
// that re-keys items, drops, and re-pushes with an unchanged key, under
// every policy and several per-poll budgets (0 = unbounded).
class RetryRunOrder
    : public ::testing::TestWithParam<std::tuple<SchedulingPolicy,
                                                 std::size_t>> {};

TEST_P(RetryRunOrder, BatchesMatchPopAndRepushOfAUnitQueue) {
  const auto [policy, budget] = GetParam();
  std::mt19937_64 rng(97 + budget + 1000 * static_cast<std::size_t>(policy));
  auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  UnitQueue ref(policy);
  RetryRun run(policy);
  std::vector<Amount> remaining;  // per payment; keys repeat on purpose
  TimePoint now = 0;
  auto arrive = [&]() {
    const PaymentId pid = remaining.size();
    remaining.push_back(1 + static_cast<Amount>(pick(40)));
    const TimePoint deadline =
        pick(3) == 0 ? kNever : now + static_cast<double>(pick(30));
    const QueuedUnit u =
        make_unit(pid, 0, remaining[pid], remaining[pid], now, deadline);
    ref.push(u);
    run.push(u);
  };
  bool bound = false;  // some poll had more queued than its budget
  for (int poll = 0; poll < 200; ++poll) {
    now += 0.25;
    // A burst once, so even a budget of 2000 binds for a few polls.
    for (std::size_t k = poll == 50 ? 3000 : pick(25); k > 0; --k) arrive();
    // Progress elsewhere: some payments' remaining amounts shrink.
    for (std::size_t k = pick(10); k > 0 && !remaining.empty(); --k) {
      Amount& r = remaining[pick(remaining.size())];
      if (r > 1) r -= 1 + static_cast<Amount>(pick(static_cast<size_t>(r - 1)));
    }
    bound = bound || (budget > 0 && ref.size() > budget);
    const std::size_t take =
        budget == 0 ? ref.size() : std::min(budget, ref.size());
    std::vector<QueuedUnit> want;
    for (std::size_t i = 0; i < take; ++i) want.push_back(*ref.pop());
    const std::span<const QueuedUnit> got = run.begin_poll(budget);
    ASSERT_EQ(got.size(), want.size()) << "poll " << poll;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i].unit, want[i].unit) << "poll " << poll << " item " << i;
      ASSERT_EQ(got[i].remaining_payment, want[i].remaining_payment);
      ASSERT_EQ(got[i].enqueued, want[i].enqueued);
      ASSERT_EQ(got[i].deadline, want[i].deadline);
    }
    const std::size_t mid_poll_arrival = pick(want.size() + 1);
    for (std::size_t i = 0; i < want.size(); ++i) {
      run.serve(i);
      if (i == mid_poll_arrival) arrive();  // pushed while the poll is open
      const std::size_t fate = pick(10);
      if (fate < 2) continue;  // completed or closed: leaves the queue
      QueuedUnit u = want[i];
      const PaymentId pid = u.unit.payment;
      if (fate <= 6) {
        // Re-queued as the flow simulator does: current remaining, the
        // enqueue time of now.
        u.remaining_payment = remaining[pid];
        u.enqueued = now;
      }  // else: re-queued with its key unchanged
      ref.push(u);
      run.push(u);
    }
    run.end_poll();
    ASSERT_EQ(run.size(), ref.size()) << "poll " << poll;
  }
  EXPECT_TRUE(budget == 0 || bound);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndBudgets, RetryRunOrder,
    ::testing::Combine(::testing::Values(SchedulingPolicy::kFifo,
                                         SchedulingPolicy::kLifo,
                                         SchedulingPolicy::kSrpt,
                                         SchedulingPolicy::kEdf),
                       ::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{7}, std::size_t{2000})));

}  // namespace
}  // namespace spider::core
