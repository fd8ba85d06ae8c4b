#include "graph/maxflow.hpp"

#include <gtest/gtest.h>

#include <random>

#include "graph/topology.hpp"

namespace spider::graph {
namespace {

std::vector<double> uniform_caps(const Graph& g, double c) {
  return std::vector<double>(g.arc_count(), c);
}

TEST(MaxFlow, SingleEdge) {
  Graph g(2, {{0, 1}});
  const auto r = max_flow(g, 0, 1, uniform_caps(g, 7.0));
  EXPECT_DOUBLE_EQ(r.value, 7.0);
  ASSERT_EQ(r.paths.size(), 1u);
  EXPECT_DOUBLE_EQ(r.paths[0].second, 7.0);
}

TEST(MaxFlow, LineBottleneck) {
  Graph g(3, {{0, 1}, {1, 2}});
  std::vector<double> caps(g.arc_count(), 10.0);
  caps[forward_arc(1)] = 3.0;  // 1->2 direction capacity 3
  const auto r = max_flow(g, 0, 2, caps);
  EXPECT_DOUBLE_EQ(r.value, 3.0);
}

TEST(MaxFlow, ParallelPathsAdd) {
  // Two disjoint 0->3 paths with caps 4 and 6.
  Graph g(4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}});
  std::vector<double> caps(g.arc_count(), 0.0);
  caps[forward_arc(0)] = 4;
  caps[forward_arc(1)] = 4;
  caps[forward_arc(2)] = 6;
  caps[forward_arc(3)] = 6;
  const auto r = max_flow(g, 0, 3, caps);
  EXPECT_DOUBLE_EQ(r.value, 10.0);
  double total = 0;
  for (const auto& [p, v] : r.paths) {
    EXPECT_TRUE(p.valid(g));
    EXPECT_EQ(p.source, 0u);
    EXPECT_EQ(p.destination(g), 3u);
    total += v;
  }
  EXPECT_DOUBLE_EQ(total, r.value);
}

TEST(MaxFlow, ClassicCancellationInstance) {
  // Diamond with a crossing middle edge: requires residual cancellation.
  Graph g(4, {{0, 1},  // e0
              {0, 2},  // e1
              {1, 2},  // e2 (cross)
              {1, 3},  // e3
              {2, 3}});  // e4
  std::vector<double> caps(g.arc_count(), 0.0);
  caps[forward_arc(0)] = 10;
  caps[forward_arc(1)] = 10;
  caps[forward_arc(2)] = 1;
  caps[forward_arc(3)] = 10;
  caps[forward_arc(4)] = 10;
  EXPECT_DOUBLE_EQ(max_flow_value(g, 0, 3, caps), 20.0);
}

TEST(MaxFlow, LimitStopsEarlyAndExact) {
  const Graph g = topology::make_complete(5);
  const auto r = max_flow(g, 0, 4, uniform_caps(g, 10.0), 12.5);
  EXPECT_DOUBLE_EQ(r.value, 12.5);
}

TEST(MaxFlow, LimitAboveMaxReturnsMax) {
  Graph g(2, {{0, 1}});
  const auto r = max_flow(g, 0, 1, uniform_caps(g, 5.0), 100.0);
  EXPECT_DOUBLE_EQ(r.value, 5.0);
}

TEST(MaxFlow, ZeroCapacityYieldsZero) {
  Graph g(2, {{0, 1}});
  const auto r = max_flow(g, 0, 1, uniform_caps(g, 0.0));
  EXPECT_DOUBLE_EQ(r.value, 0.0);
  EXPECT_TRUE(r.paths.empty());
}

TEST(MaxFlow, BadArgumentsThrow) {
  Graph g(2, {{0, 1}});
  EXPECT_THROW((void)max_flow(g, 0, 0, uniform_caps(g, 1.0)),
               std::invalid_argument);
  EXPECT_THROW((void)max_flow(g, 0, 1, std::vector<double>{1.0}),
               std::invalid_argument);
}

// Properties on random graphs: conservation at internal nodes, capacity
// respected, decomposition sums to the value, and asymmetric directional
// capacities are honoured.
class MaxFlowPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaxFlowPropertyTest, FlowIsFeasibleAndDecomposes) {
  const std::uint64_t seed = GetParam();
  const Graph g = topology::make_erdos_renyi(12, 0.35, seed);
  std::mt19937_64 rng(seed * 31 + 7);
  std::uniform_real_distribution<double> cap_dist(0.0, 20.0);
  std::vector<double> caps(g.arc_count());
  for (double& c : caps) c = cap_dist(rng);

  const auto r = max_flow(g, 0, static_cast<NodeId>(g.node_count() - 1),
                          caps);
  // Capacity feasibility.
  for (ArcId a = 0; a < g.arc_count(); ++a) {
    EXPECT_LE(r.flow[a], caps[a] + 1e-9);
    EXPECT_GE(r.flow[a], -1e-9);
    // Net flow representation: both directions never positive.
    EXPECT_TRUE(r.flow[a] < 1e-9 || r.flow[reverse(a)] < 1e-9);
  }
  // Conservation at internal nodes; +value at source, -value at sink.
  for (NodeId v = 0; v < g.node_count(); ++v) {
    double net = 0;
    for (const ArcId a : g.out_arcs(v)) {
      net += r.flow[a] - r.flow[reverse(a)];
    }
    if (v == 0) {
      EXPECT_NEAR(net, r.value, 1e-6);
    } else if (v == g.node_count() - 1) {
      EXPECT_NEAR(net, -r.value, 1e-6);
    } else {
      EXPECT_NEAR(net, 0.0, 1e-6);
    }
  }
  // Decomposition adds up.
  double total = 0;
  for (const auto& [p, v] : r.paths) {
    EXPECT_TRUE(p.valid(g));
    total += v;
  }
  EXPECT_NEAR(total, r.value, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxFlowPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace spider::graph
