#include "core/network.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>

#include "graph/topology.hpp"

namespace spider::core {
namespace {

constexpr Preimage kKey = 42;
const LockHash kLock = hash_preimage(kKey);

graph::Path line_path(const graph::Graph& g, std::size_t hops) {
  graph::Path p{0, {}};
  for (graph::EdgeId e = 0; e < hops; ++e) {
    p.arcs.push_back(graph::forward_arc(e));
  }
  EXPECT_TRUE(p.valid(g));
  return p;
}

TEST(ChannelNetwork, EqualSplitConstruction) {
  const graph::Graph g = graph::topology::make_line(3);
  const ChannelNetwork net(g, std::vector<Amount>{1000, 501});
  EXPECT_EQ(net.channel(0).balance(Side::kA), 500);
  EXPECT_EQ(net.channel(0).balance(Side::kB), 500);
  // Odd milli-unit goes to side A.
  EXPECT_EQ(net.channel(1).balance(Side::kA), 251);
  EXPECT_EQ(net.channel(1).balance(Side::kB), 250);
  EXPECT_EQ(net.total_funds(), 1501);
}

TEST(ChannelNetwork, ExplicitDeposits) {
  const graph::Graph g = graph::topology::make_line(2);
  const std::vector<std::pair<Amount, Amount>> deposits{{300, 700}};
  const ChannelNetwork net(g, deposits);
  EXPECT_EQ(net.available(graph::forward_arc(0)), 300);
  EXPECT_EQ(net.available(graph::backward_arc(0)), 700);
}

TEST(ChannelNetwork, SizeMismatchThrows) {
  const graph::Graph g = graph::topology::make_line(3);
  EXPECT_THROW(ChannelNetwork(g, std::vector<Amount>{1000}),
               std::invalid_argument);
}

TEST(ChannelNetwork, PathAvailableIsBottleneck) {
  const graph::Graph g = graph::topology::make_line(4);
  const ChannelNetwork net(g, std::vector<Amount>{1000, 200, 600});
  const graph::Path p = line_path(g, 3);
  EXPECT_EQ(net.path_available(p), 100);  // 200/2 on the middle hop
  EXPECT_EQ(net.path_available(graph::Path{0, {}}), 0);
}

TEST(ChannelNetwork, LockSettleMovesFundsEndToEnd) {
  const graph::Graph g = graph::topology::make_line(3);
  ChannelNetwork net(g, std::vector<Amount>{1000, 1000});
  const graph::Path p = line_path(g, 2);
  const auto rl = net.lock_route(p, 200, kLock);
  ASSERT_TRUE(rl.has_value());
  // While in flight, funds are unavailable along the whole path
  // (paper §6.1).
  EXPECT_EQ(net.available(graph::forward_arc(0)), 300);
  EXPECT_EQ(net.available(graph::forward_arc(1)), 300);
  EXPECT_TRUE(net.conserves_funds());

  ASSERT_TRUE(net.settle_route(*rl, kKey));
  // Sender side lost 200 on hop 0; intermediate node 1 lost on hop 1 and
  // gained on hop 0; receiver gained on hop 1.
  EXPECT_EQ(net.available(graph::forward_arc(0)), 300);
  EXPECT_EQ(net.available(graph::backward_arc(0)), 700);
  EXPECT_EQ(net.available(graph::forward_arc(1)), 300);
  EXPECT_EQ(net.available(graph::backward_arc(1)), 700);
  EXPECT_TRUE(net.conserves_funds());
  EXPECT_EQ(net.total_funds(), 2000);
  EXPECT_EQ(net.imbalance(0), -400);
}

TEST(ChannelNetwork, LockRollsBackOnMidPathFailure) {
  const graph::Graph g = graph::topology::make_line(3);
  // Second hop has too little on the forward side.
  const std::vector<std::pair<Amount, Amount>> deposits{{500, 500},
                                                        {100, 900}};
  ChannelNetwork net(g, deposits);
  const graph::Path p = line_path(g, 2);
  EXPECT_FALSE(net.lock_route(p, 200, kLock).has_value());
  // First hop's partial lock was rolled back.
  EXPECT_EQ(net.available(graph::forward_arc(0)), 500);
  EXPECT_EQ(net.channel(0).pending(Side::kA), 0);
  EXPECT_TRUE(net.conserves_funds());
}

TEST(ChannelNetwork, FailRouteRestoresEverything) {
  const graph::Graph g = graph::topology::make_line(3);
  ChannelNetwork net(g, std::vector<Amount>{1000, 1000});
  const graph::Path p = line_path(g, 2);
  const auto rl = net.lock_route(p, 200, kLock);
  ASSERT_TRUE(rl);
  net.fail_route(*rl);
  EXPECT_EQ(net.available(graph::forward_arc(0)), 500);
  EXPECT_EQ(net.available(graph::forward_arc(1)), 500);
  EXPECT_TRUE(net.conserves_funds());
}

TEST(ChannelNetwork, SettleWithWrongKeyRefused) {
  const graph::Graph g = graph::topology::make_line(2);
  ChannelNetwork net(g, std::vector<Amount>{1000});
  const auto rl = net.lock_route(line_path(g, 1), 100, kLock);
  ASSERT_TRUE(rl);
  EXPECT_FALSE(net.settle_route(*rl, kKey + 1));
  // Still pending; correct key settles.
  EXPECT_TRUE(net.settle_route(*rl, kKey));
}

TEST(ChannelNetwork, DoubleSettleThrowsLogicError) {
  const graph::Graph g = graph::topology::make_line(2);
  ChannelNetwork net(g, std::vector<Amount>{1000});
  const auto rl = net.lock_route(line_path(g, 1), 100, kLock);
  ASSERT_TRUE(net.settle_route(*rl, kKey));
  EXPECT_THROW((void)net.settle_route(*rl, kKey), std::logic_error);
  EXPECT_THROW(net.fail_route(*rl), std::logic_error);
}

TEST(ChannelNetwork, ZeroOrNegativeAmountRejected) {
  const graph::Graph g = graph::topology::make_line(2);
  ChannelNetwork net(g, std::vector<Amount>{1000});
  EXPECT_FALSE(net.lock_route(line_path(g, 1), 0, kLock).has_value());
  EXPECT_FALSE(net.lock_route(line_path(g, 1), -5, kLock).has_value());
  EXPECT_FALSE(net.lock_route(graph::Path{0, {}}, 10, kLock).has_value());
}

TEST(ChannelNetwork, ArcSides) {
  EXPECT_EQ(ChannelNetwork::arc_side(graph::forward_arc(3)), Side::kA);
  EXPECT_EQ(ChannelNetwork::arc_side(graph::backward_arc(3)), Side::kB);
}

TEST(ChannelNetwork, HtlcIdOfAnotherEdgeOrStaleIdRejected) {
  const graph::Graph g = graph::topology::make_line(3);
  ChannelNetwork net(g, std::vector<Amount>{1000, 1000});
  const graph::ArcId a0 = graph::forward_arc(0);
  const graph::ArcId a1 = graph::forward_arc(1);
  const auto id0 = net.offer_htlc(a0, 100, kLock);
  ASSERT_TRUE(id0);
  // The id names a live HTLC, but of edge 0: edge 1 (and the reverse
  // direction of edge 0) refuse it and nothing moves.
  EXPECT_FALSE(net.settle_htlc(a1, *id0, kKey));
  EXPECT_FALSE(net.fail_htlc(a1, *id0));
  EXPECT_FALSE(net.fail_htlc(graph::backward_arc(0), *id0));
  EXPECT_EQ(net.channel(0).pending(Side::kA), 100);
  EXPECT_EQ(net.channel(1).pending(Side::kA), 0);
  EXPECT_EQ(net.available(a1), 500);

  // Once released, edge 1 recycles the slot under a new generation: the
  // old id is stale on both edges, the new one settles on edge 1 only.
  ASSERT_TRUE(net.fail_htlc(a0, *id0));
  const auto id1 = net.offer_htlc(a1, 200, kLock);
  ASSERT_TRUE(id1);
  EXPECT_EQ(SlabHandle::unpack(*id1).index, SlabHandle::unpack(*id0).index);
  EXPECT_FALSE(net.settle_htlc(a0, *id0, kKey));
  EXPECT_FALSE(net.settle_htlc(a1, *id0, kKey));
  EXPECT_FALSE(net.fail_htlc(a1, *id0));
  EXPECT_FALSE(net.settle_htlc(a0, *id1, kKey));
  EXPECT_TRUE(net.settle_htlc(a1, *id1, kKey));
  EXPECT_EQ(net.available(graph::backward_arc(1)), 700);
  EXPECT_EQ(net.htlc_book().live(), 0u);
  EXPECT_TRUE(net.conserves_funds());
}

TEST(ChannelNetwork, SingleHtlcReleaseBumpsRaiseEpoch) {
  const graph::Graph g = graph::topology::make_line(3);
  const std::vector<std::pair<Amount, Amount>> deposits{{500, 500},
                                                        {100, 900}};
  ChannelNetwork net(g, deposits);
  const graph::Path p = line_path(g, 2);
  // Offers and a rolled-back route lock only lower balances.
  const std::uint64_t e0 = net.raise_epoch();
  const auto a = net.offer_htlc(p.arcs[0], 10, kLock);
  const auto b = net.offer_htlc(p.arcs[0], 10, kLock);
  ASSERT_TRUE(a && b);
  EXPECT_FALSE(net.lock_route(p, 200, kLock).has_value());
  EXPECT_EQ(net.raise_epoch(), e0);
  // A refused release changes nothing; a real one raises a balance.
  EXPECT_FALSE(net.settle_htlc(p.arcs[0], *a, kKey + 1));
  EXPECT_EQ(net.raise_epoch(), e0);
  ASSERT_TRUE(net.settle_htlc(p.arcs[0], *a, kKey));
  EXPECT_EQ(net.raise_epoch(), e0 + 1);
  ASSERT_TRUE(net.fail_htlc(p.arcs[0], *b));
  EXPECT_EQ(net.raise_epoch(), e0 + 2);
}

TEST(ChannelNetwork, RandomHtlcOpsMatchReferenceModel) {
  // Seeded differential run: offers, settles, fails (right and wrong
  // keys, arcs and stale ids) and deposits on a small ring, against a
  // per-edge reference model checked after every step.
  const graph::Graph g = graph::topology::make_ring(5);
  const std::size_t edges = g.edge_count();
  std::mt19937_64 rng(7);
  auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  std::vector<std::pair<Amount, Amount>> deposits;
  for (std::size_t e = 0; e < edges; ++e) {
    deposits.emplace_back(static_cast<Amount>(100 + pick(400)),
                          static_cast<Amount>(pick(400)));
  }
  ChannelNetwork net(g, deposits);

  struct Edge {
    Amount balance[2];
    Amount pending[2];
    Amount total;
    std::size_t inflight;
  };
  std::vector<Edge> model;
  for (const auto& [a, b] : deposits) {
    model.push_back({{a, b}, {0, 0}, a + b, 0});
  }
  struct Live {
    graph::ArcId arc;
    HtlcId id;
    Amount amount;
    Preimage key;
  };
  std::vector<Live> live;
  std::vector<Live> stale;  // released ids; every later use must fail
  Preimage next_key = 1;

  for (int step = 0; step < 4000; ++step) {
    const std::size_t op = pick(10);
    if (op < 4 || live.empty()) {  // offer, sometimes unaffordable or <= 0
      const auto arc = static_cast<graph::ArcId>(pick(2 * edges));
      const int side = static_cast<int>(arc & 1u);
      Edge& m = model[graph::edge_of(arc)];
      const Amount amount = static_cast<Amount>(pick(120)) - 5;
      const Preimage key = next_key++;
      const auto id = net.offer_htlc(arc, amount, hash_preimage(key));
      const bool affordable = amount > 0 && m.balance[side] >= amount;
      ASSERT_EQ(id.has_value(), affordable) << "step " << step;
      if (id) {
        m.balance[side] -= amount;
        m.pending[side] += amount;
        ++m.inflight;
        live.push_back({arc, *id, amount, key});
      }
    } else if (op < 8) {  // settle or fail a live HTLC
      const std::size_t i = pick(live.size());
      const Live h = live[i];
      // Wrong key, wrong arc and stale ids are refused.
      EXPECT_FALSE(net.settle_htlc(h.arc, h.id, h.key + 1000000));
      EXPECT_FALSE(net.fail_htlc(h.arc ^ 1u, h.id));
      if (!stale.empty()) {
        const Live& old = stale[pick(stale.size())];
        EXPECT_FALSE(net.fail_htlc(old.arc, old.id));
        EXPECT_FALSE(net.settle_htlc(old.arc, old.id, old.key));
      }
      const int side = static_cast<int>(h.arc & 1u);
      Edge& m = model[graph::edge_of(h.arc)];
      const bool settle = op < 6;
      ASSERT_TRUE(settle ? net.settle_htlc(h.arc, h.id, h.key)
                         : net.fail_htlc(h.arc, h.id));
      m.pending[side] -= h.amount;
      m.balance[settle ? 1 - side : side] += h.amount;
      --m.inflight;
      live[i] = live.back();
      live.pop_back();
      stale.push_back(h);
    } else {  // on-chain deposit
      const graph::EdgeId e = static_cast<graph::EdgeId>(pick(edges));
      const int side = static_cast<int>(pick(2));
      const Amount amount = 1 + static_cast<Amount>(pick(50));
      net.deposit(e, side == 0 ? Side::kA : Side::kB, amount);
      model[e].balance[side] += amount;
      model[e].total += amount;
    }

    Amount total = 0;
    std::size_t inflight = 0;
    for (graph::EdgeId e = 0; e < edges; ++e) {
      const Channel& c = net.channel(e);
      const Edge& m = model[e];
      ASSERT_EQ(c.balance(Side::kA), m.balance[0]) << "step " << step;
      ASSERT_EQ(c.balance(Side::kB), m.balance[1]) << "step " << step;
      ASSERT_EQ(c.pending(Side::kA), m.pending[0]) << "step " << step;
      ASSERT_EQ(c.pending(Side::kB), m.pending[1]) << "step " << step;
      ASSERT_EQ(c.total(), m.total) << "step " << step;
      ASSERT_EQ(c.inflight_count(), m.inflight) << "step " << step;
      total += m.total;
      inflight += m.inflight;
    }
    ASSERT_EQ(net.total_funds(), total);
    ASSERT_EQ(net.htlc_book().live(), inflight);
    ASSERT_EQ(live.size(), inflight);
    ASSERT_TRUE(net.conserves_funds()) << "step " << step;
  }
}

}  // namespace
}  // namespace spider::core
