// End-to-end property tests: determinism, conservation, and metric
// sanity for both simulators across topology families and seeds.

#include <gtest/gtest.h>

#include "graph/topology.hpp"
#include "schemes/schemes.hpp"
#include "sim/flow_sim.hpp"
#include "sim/packet_sim.hpp"
#include "workload/workload.hpp"

namespace spider {
namespace {

using core::Amount;
using core::from_units;

graph::Graph make_topology(const std::string& kind, std::uint64_t seed) {
  if (kind == "ring") return graph::topology::make_ring(12);
  if (kind == "grid") return graph::topology::make_grid(4, 5);
  if (kind == "isp32") return graph::topology::make_isp32();
  if (kind == "lightning") {
    return graph::topology::make_lightning_like(80, seed);
  }
  if (kind == "er") return graph::topology::make_erdos_renyi(30, 0.2, seed);
  throw std::logic_error("unknown topology kind");
}

sim::Metrics run_flow(const graph::Graph& g, const workload::Trace& trace,
                      sim::RoutingScheme& scheme) {
  sim::FlowSimConfig cfg;
  cfg.end_time = 30.0;
  sim::FlowSimulator fs(
      g, std::vector<Amount>(g.edge_count(), from_units(500)), scheme, cfg);
  for (const core::PaymentRequest& req : trace) fs.add_payment(req);
  sim::Metrics m = fs.run(fluid::PaymentGraph(g.node_count()));
  EXPECT_TRUE(fs.network().conserves_funds());
  EXPECT_EQ(fs.network().total_funds(),
            static_cast<Amount>(g.edge_count()) * from_units(500));
  return m;
}

class TopologySweepTest : public ::testing::TestWithParam<std::string> {};

TEST_P(TopologySweepTest, FlowSimInvariantsHoldEverywhere) {
  const graph::Graph g = make_topology(GetParam(), 3);
  workload::WorkloadConfig wcfg = workload::isp_workload(800, 30.0, 5);
  wcfg.mean_size = 20.0;
  wcfg.max_size = 200.0;
  const workload::Trace trace = workload::generate_trace(g, wcfg);
  for (const char* name : {"shortest-path", "spider-waterfilling",
                           "max-flow", "speedy-murmurs"}) {
    const auto scheme = schemes::make_scheme(name);
    const sim::Metrics m = run_flow(g, trace, *scheme);
    EXPECT_EQ(m.attempted, 800u) << name;
    EXPECT_EQ(m.succeeded + m.partial + m.failed, m.attempted) << name;
    EXPECT_LE(m.delivered_volume, m.attempted_volume) << name;
    EXPECT_GE(m.success_volume(), m.completed_volume == 0
                                      ? 0.0
                                      : static_cast<double>(m.completed_volume) /
                                            static_cast<double>(
                                                m.attempted_volume))
        << name;
    EXPECT_GT(m.succeeded, 0u) << name << " on " << GetParam();
  }
}

TEST_P(TopologySweepTest, PacketSimConservesEverywhere) {
  const graph::Graph g = make_topology(GetParam(), 7);
  workload::WorkloadConfig wcfg = workload::isp_workload(300, 20.0, 9);
  wcfg.mean_size = 15.0;
  wcfg.max_size = 100.0;
  const workload::Trace trace = workload::generate_trace(g, wcfg);
  sim::PacketSimConfig cfg;
  cfg.end_time = 25.0;
  cfg.mtu = from_units(5);
  sim::PacketSimulator ps(
      g, std::vector<Amount>(g.edge_count(), from_units(300)), cfg);
  for (core::PaymentRequest req : trace) {
    req.deadline = req.arrival + 10.0;
    ps.submit(req);
  }
  const sim::Metrics m = ps.run();
  EXPECT_TRUE(ps.network().conserves_funds());
  EXPECT_GT(m.succeeded, 0u);
  EXPECT_EQ(m.succeeded + m.partial + m.failed, m.attempted);
}

INSTANTIATE_TEST_SUITE_P(Topologies, TopologySweepTest,
                         ::testing::Values("ring", "grid", "isp32",
                                           "lightning", "er"));

class DeterminismTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeterminismTest, IdenticalSeedsGiveIdenticalMetrics) {
  const graph::Graph g = graph::topology::make_isp32();
  const workload::Trace trace =
      workload::generate_trace(g, workload::isp_workload(500, 20.0,
                                                         GetParam()));
  auto run_once = [&]() {
    schemes::WaterfillingScheme scheme(4);
    return run_flow(g, trace, scheme);
  };
  const sim::Metrics a = run_once();
  const sim::Metrics b = run_once();
  EXPECT_EQ(a.succeeded, b.succeeded);
  EXPECT_EQ(a.partial, b.partial);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.delivered_volume, b.delivered_volume);
  EXPECT_EQ(a.units_sent, b.units_sent);
  EXPECT_EQ(a.total_attempt_rounds, b.total_attempt_rounds);
  EXPECT_DOUBLE_EQ(a.sum_completion_latency, b.sum_completion_latency);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismTest,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace spider
