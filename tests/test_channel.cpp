#include "core/channel.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/network.hpp"
#include "graph/topology.hpp"

namespace spider::core {
namespace {

constexpr LockHash kLock = hash_preimage(42);

TEST(Amounts, FixedPointConversions) {
  EXPECT_EQ(from_units(1.0), 1000);
  EXPECT_EQ(from_units(0.001), 1);
  EXPECT_EQ(from_units(1.2345), 1235);  // rounds to nearest milli
  EXPECT_DOUBLE_EQ(to_units(1500), 1.5);
  EXPECT_EQ(amount_to_string(1500), "1.5");
  EXPECT_EQ(amount_to_string(-2050), "-2.05");
  EXPECT_EQ(amount_to_string(3000), "3");
  EXPECT_EQ(amount_to_string(7), "0.007");
}

TEST(Amounts, FromUnitsRejectsUnrepresentableValues) {
  // Casting these to int64 is undefined behaviour; the conversion throws.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)from_units(inf), std::invalid_argument);
  EXPECT_THROW((void)from_units(-inf), std::invalid_argument);
  EXPECT_THROW((void)from_units(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW((void)from_units(1e300), std::invalid_argument);
  // 9.3e18 milli-units is past 2^63; 9.2e18 still fits.
  EXPECT_THROW((void)from_units(9.3e15), std::invalid_argument);
  EXPECT_EQ(from_units(9.2e15), Amount{9'200'000'000'000'000'000});
  EXPECT_EQ(from_units(-9.2e15), -Amount{9'200'000'000'000'000'000});
  static_assert(from_units(2.5) == 2500);  // still usable at compile time
}

TEST(Channel, OpensWithDeposits) {
  const Channel c(from_units(3), from_units(4));
  EXPECT_EQ(c.balance(Side::kA), from_units(3));
  EXPECT_EQ(c.balance(Side::kB), from_units(4));
  EXPECT_EQ(c.total(), from_units(7));
  EXPECT_TRUE(c.conserves_funds());
  EXPECT_EQ(c.imbalance(), from_units(-1));
}

TEST(Channel, RejectsBadDeposits) {
  EXPECT_THROW(Channel(-1, 5), std::invalid_argument);
  EXPECT_THROW(Channel(0, 0), std::invalid_argument);
}

// HTLCs live in the network's book, so each HTLC case runs on a
// one-edge ChannelNetwork: side A offers along arc(kA), B along arc(kB).
struct OneChannel {
  OneChannel(Amount a, Amount b)
      : net(g, std::vector<std::pair<Amount, Amount>>{{a, b}}) {}
  graph::Graph g = graph::topology::make_line(2);
  ChannelNetwork net;
};

constexpr ArcId arc(Side s) {
  return s == Side::kA ? graph::forward_arc(0) : graph::backward_arc(0);
}

TEST(Channel, OfferMovesFundsToPending) {
  OneChannel one(1000, 1000);
  ChannelNetwork& net = one.net;
  const Channel& c = net.channel(0);
  const auto id = net.offer_htlc(arc(Side::kA), 400, kLock);
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(c.balance(Side::kA), 600);
  EXPECT_EQ(c.pending(Side::kA), 400);
  EXPECT_EQ(c.balance(Side::kB), 1000);
  EXPECT_EQ(c.inflight_count(), 1u);
  EXPECT_TRUE(c.conserves_funds());
}

TEST(Channel, OfferFailsOnInsufficientBalance) {
  OneChannel one(100, 100);
  ChannelNetwork& net = one.net;
  const Channel& c = net.channel(0);
  EXPECT_FALSE(net.offer_htlc(arc(Side::kA), 101, kLock).has_value());
  EXPECT_FALSE(net.offer_htlc(arc(Side::kA), 0, kLock).has_value());
  EXPECT_FALSE(net.offer_htlc(arc(Side::kA), -5, kLock).has_value());
  EXPECT_EQ(c.balance(Side::kA), 100);
}

TEST(Channel, SettleMovesFundsAcross) {
  OneChannel one(1000, 1000);
  ChannelNetwork& net = one.net;
  const Channel& c = net.channel(0);
  const auto id = net.offer_htlc(arc(Side::kA), 400, kLock);
  ASSERT_TRUE(net.settle_htlc(arc(Side::kA), *id, 42));
  EXPECT_EQ(c.balance(Side::kA), 600);
  EXPECT_EQ(c.balance(Side::kB), 1400);
  EXPECT_EQ(c.pending(Side::kA), 0);
  EXPECT_EQ(c.inflight_count(), 0u);
  EXPECT_TRUE(c.conserves_funds());
}

TEST(Channel, SettleWithWrongKeyRejected) {
  OneChannel one(1000, 1000);
  ChannelNetwork& net = one.net;
  const Channel& c = net.channel(0);
  const auto id = net.offer_htlc(arc(Side::kA), 400, kLock);
  EXPECT_FALSE(net.settle_htlc(arc(Side::kA), *id, 43));
  // Funds stay pending.
  EXPECT_EQ(c.pending(Side::kA), 400);
  EXPECT_TRUE(c.conserves_funds());
}

TEST(Channel, FailReturnsFunds) {
  OneChannel one(1000, 1000);
  ChannelNetwork& net = one.net;
  const Channel& c = net.channel(0);
  const auto id = net.offer_htlc(arc(Side::kB), 250, kLock);
  ASSERT_TRUE(net.fail_htlc(arc(Side::kB), *id));
  EXPECT_EQ(c.balance(Side::kB), 1000);
  EXPECT_EQ(c.pending(Side::kB), 0);
  EXPECT_TRUE(c.conserves_funds());
}

TEST(Channel, DoubleSettleAndUnknownIdsRejected) {
  OneChannel one(1000, 1000);
  ChannelNetwork& net = one.net;
  const auto id = net.offer_htlc(arc(Side::kA), 100, kLock);
  EXPECT_TRUE(net.settle_htlc(arc(Side::kA), *id, 42));
  EXPECT_FALSE(net.settle_htlc(arc(Side::kA), *id, 42));
  EXPECT_FALSE(net.fail_htlc(arc(Side::kA), *id));
  EXPECT_FALSE(net.fail_htlc(arc(Side::kA), 999));
}

TEST(Channel, ConcurrentHtlcsBothDirections) {
  OneChannel one(500, 500);
  ChannelNetwork& net = one.net;
  const Channel& c = net.channel(0);
  const auto a1 = net.offer_htlc(arc(Side::kA), 300, kLock);
  const auto b1 = net.offer_htlc(arc(Side::kB), 200, kLock);
  ASSERT_TRUE(a1 && b1);
  EXPECT_EQ(c.inflight_count(), 2u);
  EXPECT_TRUE(c.conserves_funds());
  EXPECT_TRUE(net.settle_htlc(arc(Side::kA), *a1, 42));
  EXPECT_TRUE(net.fail_htlc(arc(Side::kB), *b1));
  EXPECT_EQ(c.balance(Side::kA), 200);
  EXPECT_EQ(c.balance(Side::kB), 800);
  EXPECT_TRUE(c.conserves_funds());
}

TEST(Channel, DepositIncreasesEscrow) {
  Channel c(100, 100);
  c.deposit(Side::kA, 50);
  EXPECT_EQ(c.balance(Side::kA), 150);
  EXPECT_EQ(c.total(), 250);
  EXPECT_TRUE(c.conserves_funds());
  EXPECT_THROW(c.deposit(Side::kA, 0), std::invalid_argument);
  EXPECT_THROW(c.deposit(Side::kA, -3), std::invalid_argument);
}

TEST(Channel, BalanceDrainsToZeroThenBlocks) {
  // The unidirectional-depletion phenomenon the paper's routing fights.
  OneChannel one(300, 0);
  ChannelNetwork& net = one.net;
  const auto id1 = net.offer_htlc(arc(Side::kA), 300, kLock);
  ASSERT_TRUE(id1);
  EXPECT_TRUE(net.settle_htlc(arc(Side::kA), *id1, 42));
  // A is now empty; only B can send.
  EXPECT_FALSE(net.offer_htlc(arc(Side::kA), 1, kLock).has_value());
  EXPECT_TRUE(net.offer_htlc(arc(Side::kB), 300, kLock).has_value());
}

}  // namespace
}  // namespace spider::core
