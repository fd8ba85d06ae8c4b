// The dry-pair memo behind RoutingScheme::route() (sim/scheme.hpp) must
// be invisible: a long-lived scheme that has memoised dry pairs answers
// exactly what a freshly prepared instance of the same scheme answers,
// after every way the channel network can change. Targeted cases cover
// each public ChannelNetwork mutation path and stale snapshots; a
// randomized sequence mixes them on isp32.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/fees.hpp"
#include "core/htlc.hpp"
#include "graph/topology.hpp"
#include "schemes/schemes.hpp"
#include "sim/sim_steps.hpp"

namespace spider::schemes {
namespace {

using core::Amount;
using core::ChannelNetwork;
using core::from_units;

template <class Scheme>
std::unique_ptr<RoutingScheme> copy_of(const RoutingScheme& s) {
  return std::make_unique<Scheme>(dynamic_cast<const Scheme&>(s));
}

/// Every memoising scheme, with a way to copy a prepared instance.
struct Kind {
  const char* name;
  std::unique_ptr<RoutingScheme> (*copy)(const RoutingScheme&);
};
const Kind kKinds[] = {
    {"shortest-path", &copy_of<ShortestPathScheme>},
    {"spider-waterfilling", &copy_of<WaterfillingScheme>},
    {"spider-lp", &copy_of<SpiderLpScheme>},
    {"spider-primal-dual", &copy_of<SpiderPrimalDualScheme>},
    {"spider-cc", &copy_of<SpiderCcScheme>},
};
constexpr int kKindCount = static_cast<int>(std::size(kKinds));

/// Per scheme, a long-lived instance that memoises and a pristine one
/// that never routes: a copy of the pristine instance is a freshly
/// prepared instance, without solving Spider (LP) again.
struct Fixture {
  std::vector<std::unique_ptr<RoutingScheme>> live;
  std::vector<std::unique_ptr<RoutingScheme>> pristine;

  Fixture(const graph::Graph& g, const std::vector<Amount>& caps,
          const fluid::PaymentGraph& demand) {
    for (const Kind& k : kKinds) {
      for (auto* set : {&live, &pristine}) {
        set->push_back(make_scheme(k.name));
        set->back()->prepare(g, caps, demand, 0.5);
      }
    }
  }

  /// Routes (src, dst, remaining) on `net` through every long-lived
  /// scheme and a fresh copy; the answers must match. Returns how many
  /// answers were empty.
  int check(const ChannelNetwork& net, core::NodeId src, core::NodeId dst,
            Amount remaining) {
    core::PaymentRequest req;
    req.src = src;
    req.dst = dst;
    req.amount = remaining;
    int empty = 0;
    for (int i = 0; i < kKindCount; ++i) {
      SCOPED_TRACE(kKinds[i].name);
      const auto fresh = kKinds[i].copy(*pristine[i]);
      const std::vector<RouteChoice> want =
          fresh->route(req, remaining, net, 0.0);
      const std::vector<RouteChoice> got =
          live[i]->route(req, remaining, net, 0.0);
      EXPECT_EQ(got.size(), want.size());
      for (std::size_t c = 0; c < std::min(got.size(), want.size()); ++c) {
        EXPECT_EQ(got[c].path.arcs, want[c].path.arcs);
        EXPECT_EQ(got[c].amount, want[c].amount);
      }
      if (got.empty()) ++empty;
    }
    return empty;
  }
};

fluid::PaymentGraph both_ways(std::size_t nodes, core::NodeId a,
                              core::NodeId b) {
  fluid::PaymentGraph d(nodes);
  d.set_demand(a, b, 1.0);
  d.set_demand(b, a, 1.0);
  return d;
}

constexpr core::Preimage kKey = 99;
const core::LockHash kLock = core::hash_preimage(kKey);

/// The single route of a line graph from node 0 to node n-1 (or back).
graph::Path line_path(const graph::Graph& g, bool forward) {
  graph::PathFinder finder;
  const core::NodeId last = static_cast<core::NodeId>(g.node_count() - 1);
  return forward ? *finder.bfs_shortest(g, 0, last)
                 : *finder.bfs_shortest(g, last, 0);
}

// One case per way a dry pair can come back to life. Each first drains
// 0 -> 2 on a 3-node line, lets every scheme memoise the dry pair, then
// applies the mutation and checks the schemes against fresh instances.
enum class Raise {
  kSettle,          // settle_route of a reverse payment
  kFail,            // fail_route of the draining lock
  kFailWithFees,    // fail_route of a fee-carrying lock
  kDeposit,         // ChannelNetwork::deposit
  kChannelSettle,   // ChannelNetwork::settle_htlc, one hop at a time
  kChannelFail,     // ChannelNetwork::fail_htlc, one hop at a time
  kSnapshot,        // a stale snapshot taken while the locks pend
};

class DryMemoRaise : public ::testing::TestWithParam<Raise> {};

TEST_P(DryMemoRaise, MemoisedSchemeMatchesFreshInstance) {
  const graph::Graph g = graph::topology::make_line(3);
  const std::vector<Amount> caps(g.edge_count(), from_units(100));
  ChannelNetwork net(g, caps);
  Fixture fx(g, caps, both_ways(3, 0, 2));
  const graph::Path fwd = line_path(g, true);
  const graph::Path back = line_path(g, false);
  const Amount half = from_units(50);

  // Drain the forward direction; a fee-carrying lock for one case.
  std::optional<core::RouteLock> drain;
  if (GetParam() == Raise::kFailWithFees) {
    const std::vector<Amount> amounts =
        core::hop_amounts(core::FeePolicy{from_units(1), 0},
                          half - from_units(1), fwd.arcs.size());
    drain = net.lock_route_with_fees(fwd, amounts, kLock);
  } else {
    drain = net.lock_route(fwd, half, kLock);
  }
  ASSERT_TRUE(drain.has_value());
  ASSERT_EQ(net.path_available(fwd), 0);
  // Every scheme finds the pair dry, for any amount.
  EXPECT_EQ(fx.check(net, 0, 2, from_units(10)), kKindCount);
  EXPECT_EQ(fx.check(net, 0, 2, from_units(70)), kKindCount);

  switch (GetParam()) {
    case Raise::kSettle: {
      ASSERT_TRUE(net.settle_route(*drain, kKey));
      EXPECT_EQ(fx.check(net, 0, 2, from_units(10)), kKindCount);  // still dry
      const auto rev = net.lock_route(back, from_units(20), kLock);
      ASSERT_TRUE(rev.has_value());
      ASSERT_TRUE(net.settle_route(*rev, kKey));
      break;
    }
    case Raise::kFail:
    case Raise::kFailWithFees:
      net.fail_route(*drain);
      break;
    case Raise::kDeposit:
      net.deposit(0, core::Side::kA, from_units(5));
      net.deposit(1, core::Side::kA, from_units(5));
      break;
    case Raise::kChannelSettle: {
      // Settle a reverse payment hop by hop: each hop raises the forward
      // side of its edge, so the pair is live only after both.
      const auto rev = net.lock_route(back, from_units(20), kLock);
      ASSERT_TRUE(rev.has_value());
      ASSERT_TRUE(net.settle_htlc(back.arcs[0], rev->htlcs[0], kKey));
      EXPECT_EQ(fx.check(net, 0, 2, from_units(10)), kKindCount);
      ASSERT_TRUE(net.settle_htlc(back.arcs[1], rev->htlcs[1], kKey));
      break;
    }
    case Raise::kChannelFail:
      // Fail the hops one at a time: the pair is live only after both.
      ASSERT_TRUE(net.fail_htlc(fwd.arcs[0], drain->htlcs[0]));
      EXPECT_EQ(fx.check(net, 0, 2, from_units(10)), kKindCount);
      ASSERT_TRUE(net.fail_htlc(fwd.arcs[1], drain->htlcs[1]));
      break;
    case Raise::kSnapshot: {
      // The snapshot counts the pending holds as spendable, so the pair
      // is live there while it stays dry on the live network.
      const std::unique_ptr<ChannelNetwork> snap = sim::stale_snapshot(net);
      EXPECT_EQ(fx.check(*snap, 0, 2, from_units(10)), 0);
      EXPECT_EQ(fx.check(net, 0, 2, from_units(10)), kKindCount);
      EXPECT_EQ(fx.check(*snap, 0, 2, from_units(10)), 0);
      const std::unique_ptr<ChannelNetwork> again = sim::stale_snapshot(net);
      EXPECT_EQ(fx.check(*again, 0, 2, from_units(10)), 0);
      EXPECT_EQ(fx.check(net, 0, 2, from_units(10)), kKindCount);
      return;
    }
  }
  EXPECT_EQ(fx.check(net, 0, 2, from_units(4)), 0);  // live again
  EXPECT_EQ(fx.check(net, 0, 2, from_units(70)), 0);
}

INSTANTIATE_TEST_SUITE_P(
    EveryMutationPath, DryMemoRaise,
    ::testing::Values(Raise::kSettle, Raise::kFail, Raise::kFailWithFees,
                      Raise::kDeposit, Raise::kChannelSettle,
                      Raise::kChannelFail, Raise::kSnapshot));

TEST(DryMemo, RandomMutationsMatchFreshInstances) {
  const graph::Graph g = graph::topology::make_isp32();
  const std::vector<Amount> caps(g.edge_count(), from_units(30));
  std::mt19937_64 rng(20240601);
  auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };

  // A dozen pairs, both ways, so Spider (LP) gives every one a weight.
  std::vector<std::pair<core::NodeId, core::NodeId>> pairs;
  fluid::PaymentGraph demand(g.node_count());
  while (pairs.size() < 24) {
    const auto a = static_cast<core::NodeId>(pick(g.node_count()));
    const auto b = static_cast<core::NodeId>(pick(g.node_count()));
    if (a == b || demand.demand(a, b) > 0) continue;
    demand.set_demand(a, b, 1.0);
    demand.set_demand(b, a, 1.0);
    pairs.emplace_back(a, b);
    pairs.emplace_back(b, a);
  }
  ChannelNetwork net(g, caps);
  Fixture fx(g, caps, demand);
  PathCache paths(&g, PathMode::kEdgeDisjoint, 4);
  struct Held {
    core::RouteLock lock;
    core::Preimage key;
  };
  std::vector<Held> held;
  std::unique_ptr<ChannelNetwork> snap;
  core::Preimage next_key = 1;
  int empty = 0;
  int total = 0;

  for (int step = 0; step < 300; ++step) {
    switch (pick(12)) {
      default: {  // locks on one pair's paths, often draining them all
        const auto& [s, d] = pairs[pick(pairs.size())];
        const bool drain_all = pick(2) == 0;
        for (const graph::Path& p : paths.paths(s, d)) {
          const Amount avail = net.path_available(p);
          if (avail <= 0 || (!drain_all && pick(2) == 0)) continue;
          const Amount amt =
              !drain_all && pick(2) == 0
                  ? 1 + static_cast<Amount>(pick(static_cast<size_t>(avail)))
                  : avail;
          const core::Preimage key = next_key++;
          std::optional<core::RouteLock> rl;
          if (pick(4) == 0 && amt > 10) {
            rl = net.lock_route_with_fees(
                p, core::hop_amounts(core::FeePolicy{2, 0}, amt - 10,
                                     p.arcs.size()),
                core::hash_preimage(key));
          } else {
            rl = net.lock_route(p, amt, core::hash_preimage(key));
          }
          if (rl) held.push_back(Held{std::move(*rl), key});
        }
        break;
      }
      case 7:  // settle
        if (!held.empty()) {
          const std::size_t i = pick(held.size());
          ASSERT_TRUE(net.settle_route(held[i].lock, held[i].key));
          held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
        }
        break;
      case 8:  // fail
        if (!held.empty()) {
          const std::size_t i = pick(held.size());
          net.fail_route(held[i].lock);
          held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
        }
        break;
      case 9: {  // on-chain deposit
        const auto e = static_cast<graph::EdgeId>(pick(g.edge_count()));
        const core::Side side = pick(2) == 0 ? core::Side::kA : core::Side::kB;
        const Amount amt = from_units(1 + static_cast<double>(pick(5)));
        net.deposit(e, side, amt);
        break;
      }
      case 10:  // a staleness spike starts or ends
        if (snap) {
          snap.reset();
        } else {
          snap = sim::stale_snapshot(net);
        }
        break;
      case 11:  // an epoch jump changes no balance
        net.advance_raise_epoch(net.raise_epoch() + 1 + pick(3));
        break;
    }
    const ChannelNetwork& view = snap ? *snap : net;
    for (int sample = 0; sample < 6; ++sample) {
      SCOPED_TRACE("step " + std::to_string(step));
      const auto& [s, d] = pairs[pick(pairs.size())];
      const Amount remaining =
          from_units(1 + static_cast<double>(pick(40)));
      empty += fx.check(view, s, d, remaining);
      total += kKindCount;
    }
  }
  // The sequence must exercise both dry and live answers.
  EXPECT_GT(empty, total / 6);
  EXPECT_LT(empty, total * 5 / 6);
}

}  // namespace
}  // namespace spider::schemes
