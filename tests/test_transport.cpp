#include "core/transport.hpp"

#include <gtest/gtest.h>

namespace spider::core {
namespace {

PaymentRequest make_request(Amount amount, PaymentKind kind,
                            TimePoint deadline = kNever) {
  PaymentRequest req;
  req.src = 0;
  req.dst = 3;
  req.amount = amount;
  req.arrival = 0;
  req.deadline = deadline;
  req.kind = kind;
  return req;
}

/// The keys one confirmation releases, collected in a fresh buffer.
std::vector<KeyRelease> confirm(Transport& t, TxUnitId unit, TimePoint now) {
  std::vector<KeyRelease> releases;
  t.confirm_unit(unit, now, /*marked=*/false, releases);
  return releases;
}

TEST(Transport, MtuSplitting) {
  Transport t(0, 1);
  const auto units = t.begin_payment(
      1, make_request(2500, PaymentKind::kNonAtomic), 1000);
  ASSERT_EQ(units.size(), 3u);
  EXPECT_EQ(units[0].amount, 1000);
  EXPECT_EQ(units[1].amount, 1000);
  EXPECT_EQ(units[2].amount, 500);  // remainder unit
  Amount total = 0;
  for (const TxUnit& u : units) {
    total += u.amount;
    EXPECT_EQ(u.src, 0u);
    EXPECT_EQ(u.dst, 3u);
    EXPECT_EQ(u.id.payment, 1u);
  }
  EXPECT_EQ(total, 2500);
  // Per-unit fresh locks.
  EXPECT_NE(units[0].lock, units[1].lock);
}

TEST(Transport, ExactMultipleHasNoRemainder) {
  Transport t(0, 1);
  const auto units =
      t.begin_payment(1, make_request(3000, PaymentKind::kNonAtomic), 1000);
  ASSERT_EQ(units.size(), 3u);
  EXPECT_EQ(units[2].amount, 1000);
}

TEST(Transport, SmallPaymentSingleUnit) {
  Transport t(0, 1);
  const auto units =
      t.begin_payment(1, make_request(10, PaymentKind::kNonAtomic), 1000);
  ASSERT_EQ(units.size(), 1u);
  EXPECT_EQ(units[0].amount, 10);
}

TEST(Transport, BadArgumentsThrow) {
  Transport t(0, 1);
  EXPECT_THROW(
      (void)t.begin_payment(1, make_request(0, PaymentKind::kNonAtomic), 10),
      std::invalid_argument);
  EXPECT_THROW(
      (void)t.begin_payment(1, make_request(10, PaymentKind::kNonAtomic), 0),
      std::invalid_argument);
  PaymentRequest wrong = make_request(10, PaymentKind::kNonAtomic);
  wrong.src = 5;
  EXPECT_THROW((void)t.begin_payment(1, wrong, 10), std::invalid_argument);
  (void)t.begin_payment(1, make_request(10, PaymentKind::kNonAtomic), 10);
  EXPECT_THROW(
      (void)t.begin_payment(1, make_request(10, PaymentKind::kNonAtomic), 10),
      std::invalid_argument);
  EXPECT_THROW((void)t.delivered(99), std::invalid_argument);
}

TEST(Transport, NonAtomicConfirmReleasesImmediately) {
  Transport t(0, 1);
  const auto units =
      t.begin_payment(1, make_request(2000, PaymentKind::kNonAtomic), 1000);
  const auto rel = confirm(t, units[0].id, 1.0);
  ASSERT_EQ(rel.size(), 1u);
  EXPECT_EQ(rel[0].unit, units[0].id);
  EXPECT_TRUE(unlocks(rel[0].key, units[0].lock));
  EXPECT_EQ(t.delivered(1), 1000);
  EXPECT_EQ(t.remaining(1), 1000);
  EXPECT_EQ(t.status(1, 1.0), PaymentStatus::kPending);
  // Duplicate confirmation releases nothing more.
  EXPECT_TRUE(confirm(t, units[0].id, 1.5).empty());
}

TEST(Transport, NonAtomicCompletion) {
  Transport t(0, 1);
  const auto units =
      t.begin_payment(1, make_request(2000, PaymentKind::kNonAtomic), 1000);
  (void)confirm(t, units[0].id, 1.0);
  (void)confirm(t, units[1].id, 2.0);
  EXPECT_EQ(t.status(1, 2.0), PaymentStatus::kSucceeded);
  EXPECT_EQ(t.remaining(1), 0);
}

TEST(Transport, LateConfirmationWithheld) {
  Transport t(0, 1);
  const auto units = t.begin_payment(
      1, make_request(2000, PaymentKind::kNonAtomic, /*deadline=*/5.0), 1000);
  (void)confirm(t, units[0].id, 1.0);
  // §4.1: keys withheld for units confirmed after the deadline.
  EXPECT_TRUE(confirm(t, units[1].id, 6.0).empty());
  EXPECT_EQ(t.delivered(1), 1000);
  EXPECT_EQ(t.status(1, 6.0), PaymentStatus::kPartial);
}

TEST(Transport, NonAtomicNothingDeliveredFails) {
  Transport t(0, 1);
  (void)t.begin_payment(
      1, make_request(2000, PaymentKind::kNonAtomic, /*deadline=*/5.0), 1000);
  EXPECT_EQ(t.status(1, 10.0), PaymentStatus::kFailed);
}

TEST(Transport, AtomicReleasesOnlyWhenAllConfirmed) {
  Transport t(0, 1);
  const auto units =
      t.begin_payment(1, make_request(3000, PaymentKind::kAtomic), 1000);
  ASSERT_EQ(units.size(), 3u);
  EXPECT_TRUE(confirm(t, units[0].id, 1.0).empty());
  EXPECT_TRUE(confirm(t, units[1].id, 1.1).empty());
  // Receiver can unlock nothing yet.
  EXPECT_EQ(t.delivered(1), 0);
  EXPECT_EQ(t.status(1, 1.1), PaymentStatus::kPending);
  const auto rel = confirm(t, units[2].id, 1.2);
  ASSERT_EQ(rel.size(), 3u);  // all keys at once
  for (std::size_t i = 0; i < rel.size(); ++i) {
    EXPECT_TRUE(unlocks(rel[i].key, units[rel[i].unit.seq].lock));
  }
  EXPECT_EQ(t.delivered(1), 3000);
  EXPECT_EQ(t.status(1, 1.2), PaymentStatus::kSucceeded);
}

TEST(Transport, AtomicPartialConfirmationFailsAtDeadline) {
  Transport t(0, 1);
  const auto units = t.begin_payment(
      1, make_request(3000, PaymentKind::kAtomic, /*deadline=*/5.0), 1000);
  (void)confirm(t, units[0].id, 1.0);
  EXPECT_EQ(t.status(1, 6.0), PaymentStatus::kFailed);
  EXPECT_EQ(t.delivered(1), 0);
}

TEST(Transport, AbandonedUnitNeverConfirms) {
  Transport t(0, 1);
  const auto units =
      t.begin_payment(1, make_request(2000, PaymentKind::kNonAtomic), 1000);
  t.abandon_unit(units[1].id);
  EXPECT_TRUE(confirm(t, units[1].id, 1.0).empty());
  EXPECT_EQ(t.delivered(1), 0);
  // Abandoning an unknown unit is a no-op.
  t.abandon_unit(TxUnitId{42, 0});
}

TEST(Transport, LargePaymentIdsCostNoMemory) {
  // Lookup is by the sender's live records, not by id magnitude: ids
  // near 2^40 and past 2^63 must not size any table.
  Transport t(0, 1);
  const PaymentId big = PaymentId{1} << 40;
  const PaymentId huge = (PaymentId{1} << 63) + 5;
  const auto a =
      t.begin_payment(huge, make_request(2000, PaymentKind::kNonAtomic), 1000);
  const auto b =
      t.begin_payment(big, make_request(1000, PaymentKind::kAtomic), 1000);
  ASSERT_EQ(a.size(), 2u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[1].id, (TxUnitId{huge, 1}));
  EXPECT_EQ(t.live_payments(), 2u);

  EXPECT_EQ(confirm(t, a[0].id, 1.0).size(), 1u);
  EXPECT_EQ(confirm(t, a[1].id, 1.0).size(), 1u);
  EXPECT_EQ(confirm(t, b[0].id, 1.0).size(), 1u);
  EXPECT_EQ(t.status(huge, 2.0), PaymentStatus::kSucceeded);
  EXPECT_EQ(t.status(big, 2.0), PaymentStatus::kSucceeded);
  EXPECT_EQ(t.delivered(big), 1000);
  EXPECT_TRUE(t.resolved(huge));

  t.retire_payment(huge);
  EXPECT_EQ(t.live_payments(), 1u);
  EXPECT_THROW((void)t.delivered(huge), std::invalid_argument);
  EXPECT_EQ(t.delivered(big), 1000);  // the other record is untouched
  t.retire_payment(big);
  EXPECT_EQ(t.live_payments(), 0u);
  EXPECT_THROW(t.retire_payment(big), std::invalid_argument);
  // A neighbouring id was never begun.
  EXPECT_THROW((void)t.request(big + 1), std::invalid_argument);
}

}  // namespace
}  // namespace spider::core
