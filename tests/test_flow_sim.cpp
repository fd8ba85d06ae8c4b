#include "sim/flow_sim.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "graph/topology.hpp"
#include "schemes/schemes.hpp"

namespace spider::sim {
namespace {

using core::Amount;
using core::from_units;

PaymentRequest payment(core::NodeId src, core::NodeId dst, double units,
                       TimePoint arrival) {
  PaymentRequest req;
  req.src = src;
  req.dst = dst;
  req.amount = from_units(units);
  req.arrival = arrival;
  return req;
}

fluid::PaymentGraph no_demand(std::size_t n) { return fluid::PaymentGraph(n); }

TEST(FlowSim, SinglePaymentSucceeds) {
  const graph::Graph g = graph::topology::make_line(3);
  schemes::ShortestPathScheme scheme;
  FlowSimConfig cfg;
  cfg.end_time = 10;
  FlowSimulator sim(g, std::vector<Amount>(g.edge_count(), from_units(100)),
                    scheme, cfg);
  sim.add_payment(payment(0, 2, 10, 1.0));
  const Metrics m = sim.run(no_demand(3));
  EXPECT_EQ(m.attempted, 1u);
  EXPECT_EQ(m.succeeded, 1u);
  EXPECT_DOUBLE_EQ(m.success_ratio(), 1.0);
  EXPECT_DOUBLE_EQ(m.success_volume(), 1.0);
  // One in-flight delay of 0.5 s.
  EXPECT_NEAR(m.mean_completion_latency(), 0.5, 1e-9);
  EXPECT_TRUE(sim.network().conserves_funds());
}

TEST(FlowSim, FundsActuallyMove) {
  const graph::Graph g = graph::topology::make_line(2);
  schemes::ShortestPathScheme scheme;
  FlowSimConfig cfg;
  cfg.end_time = 5;
  FlowSimulator sim(g, std::vector<Amount>{from_units(100)}, scheme, cfg);
  sim.add_payment(payment(0, 1, 20, 0.5));
  (void)sim.run(no_demand(2));
  EXPECT_EQ(sim.network().available(graph::forward_arc(0)),
            from_units(30));
  EXPECT_EQ(sim.network().available(graph::backward_arc(0)),
            from_units(70));
}

TEST(FlowSim, NonAtomicPartialDeliveryByCapacity) {
  // Channel can carry only 50 units outbound; 80 requested; the rest can
  // never complete (no reverse traffic), leaving a partial payment.
  const graph::Graph g = graph::topology::make_line(2);
  schemes::ShortestPathScheme scheme;
  FlowSimConfig cfg;
  cfg.end_time = 20;
  FlowSimulator sim(g, std::vector<Amount>{from_units(100)}, scheme, cfg);
  sim.add_payment(payment(0, 1, 80, 1.0));
  const Metrics m = sim.run(no_demand(2));
  EXPECT_EQ(m.succeeded, 0u);
  EXPECT_EQ(m.partial, 1u);
  EXPECT_EQ(m.delivered_volume, from_units(50));
  EXPECT_NEAR(m.success_volume(), 50.0 / 80.0, 1e-9);
}

TEST(FlowSim, RetryCompletesAfterReverseTrafficRestoresBalance) {
  // 0 -> 1 exhausts its side, then 1 -> 0 replenishes it; the retry queue
  // finishes the first payment (packet-switching benefit, §4).
  const graph::Graph g = graph::topology::make_line(2);
  schemes::ShortestPathScheme scheme;
  FlowSimConfig cfg;
  cfg.end_time = 30;
  FlowSimulator sim(g, std::vector<Amount>{from_units(100)}, scheme, cfg);
  sim.add_payment(payment(0, 1, 80, 1.0));
  sim.add_payment(payment(1, 0, 60, 5.0));
  const Metrics m = sim.run(no_demand(2));
  EXPECT_EQ(m.succeeded, 2u);
  EXPECT_DOUBLE_EQ(m.success_volume(), 1.0);
  EXPECT_GT(m.total_attempt_rounds, 2u);  // retries happened
}

TEST(FlowSim, AtomicSchemeFailsWhenCapacityShort) {
  const graph::Graph g = graph::topology::make_line(2);
  schemes::MaxFlowScheme scheme;
  FlowSimConfig cfg;
  cfg.end_time = 20;
  FlowSimulator sim(g, std::vector<Amount>{from_units(100)}, scheme, cfg);
  sim.add_payment(payment(0, 1, 80, 1.0));   // > 50 available: fails
  sim.add_payment(payment(0, 1, 30, 10.0));  // fits: succeeds
  const Metrics m = sim.run(no_demand(2));
  EXPECT_EQ(m.succeeded, 1u);
  EXPECT_EQ(m.failed, 1u);
  EXPECT_EQ(m.partial, 0u);
  EXPECT_EQ(m.delivered_volume, from_units(30));
}

TEST(FlowSim, MaxFlowUsesMultiplePaths) {
  // Two disjoint 25-unit paths; a 40-unit atomic payment needs both.
  const graph::Graph g = graph::topology::make_ring(4);
  schemes::MaxFlowScheme scheme;
  FlowSimConfig cfg;
  cfg.end_time = 10;
  FlowSimulator sim(g, std::vector<Amount>(4, from_units(50)), scheme, cfg);
  sim.add_payment(payment(0, 2, 40, 1.0));
  const Metrics m = sim.run(no_demand(4));
  EXPECT_EQ(m.succeeded, 1u);
}

TEST(FlowSim, InflightFundsUnavailableUntilDelta) {
  // Two same-direction payments 0.1 s apart; the channel holds 50+50:
  // the first locks 50, the second finds nothing until funds settle --
  // and they settle on the *receiver* side, so it still finds nothing.
  const graph::Graph g = graph::topology::make_line(2);
  schemes::ShortestPathScheme scheme;
  FlowSimConfig cfg;
  cfg.end_time = 3;
  FlowSimulator sim(g, std::vector<Amount>{from_units(100)}, scheme, cfg);
  sim.add_payment(payment(0, 1, 50, 1.0));
  sim.add_payment(payment(0, 1, 50, 1.1));
  const Metrics m = sim.run(no_demand(2));
  EXPECT_EQ(m.succeeded, 1u);
  EXPECT_EQ(m.failed, 1u);
}

TEST(FlowSim, DeadlineClosesPayment) {
  const graph::Graph g = graph::topology::make_line(2);
  schemes::ShortestPathScheme scheme;
  FlowSimConfig cfg;
  cfg.end_time = 30;
  FlowSimulator sim(g, std::vector<Amount>{from_units(100)}, scheme, cfg);
  PaymentRequest req = payment(0, 1, 80, 1.0);
  req.deadline = 2.0;  // not enough time for retries to matter
  sim.add_payment(req);
  PaymentRequest late = payment(1, 0, 60, 10.0);
  sim.add_payment(late);
  const Metrics m = sim.run(no_demand(2));
  // Reverse traffic arrives only after the deadline: partial delivery.
  EXPECT_EQ(m.partial, 1u);
  EXPECT_EQ(m.succeeded, 1u);  // the reverse payment itself
}

TEST(FlowSim, SeriesCollection) {
  const graph::Graph g = graph::topology::make_line(2);
  schemes::ShortestPathScheme scheme;
  FlowSimConfig cfg;
  cfg.end_time = 10;
  cfg.collect_series = true;
  cfg.series_bucket = 1.0;
  FlowSimulator sim(g, std::vector<Amount>{from_units(100)}, scheme, cfg);
  sim.add_payment(payment(0, 1, 10, 0.2));
  sim.add_payment(payment(0, 1, 10, 5.2));
  const Metrics m = sim.run(no_demand(2));
  ASSERT_GE(m.delivered_series.size(), 6u);
  EXPECT_DOUBLE_EQ(m.delivered_series[0], 10.0);  // completes at 0.7
  EXPECT_DOUBLE_EQ(m.delivered_series[5], 10.0);  // completes at 5.7
}

TEST(FlowSim, ArrivalsAfterEndIgnored) {
  const graph::Graph g = graph::topology::make_line(2);
  schemes::ShortestPathScheme scheme;
  FlowSimConfig cfg;
  cfg.end_time = 5;
  FlowSimulator sim(g, std::vector<Amount>{from_units(100)}, scheme, cfg);
  sim.add_payment(payment(0, 1, 10, 9.0));
  const Metrics m = sim.run(no_demand(2));
  EXPECT_EQ(m.attempted, 0u);
}

TEST(FlowSim, ApiMisuseThrows) {
  const graph::Graph g = graph::topology::make_line(2);
  schemes::ShortestPathScheme scheme;
  FlowSimulator sim(g, std::vector<Amount>{from_units(100)}, scheme, {});
  EXPECT_THROW(sim.add_payment(payment(0, 0, 10, 1.0)),
               std::invalid_argument);
  EXPECT_THROW(sim.add_payment(payment(0, 9, 10, 1.0)),
               std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(sim.add_payment(payment(0, 1, 10, nan)), std::invalid_argument);
  (void)sim.run(no_demand(2));
  EXPECT_THROW((void)sim.run(no_demand(2)), std::logic_error);
  EXPECT_THROW(sim.add_payment(payment(0, 1, 10, 1.0)), std::logic_error);
}

TEST(FlowSim, RejectsNonFiniteDurations) {
  // An infinite horizon used to poll forever; NaN slipped past "<= 0".
  const graph::Graph g = graph::topology::make_line(2);
  schemes::ShortestPathScheme scheme;
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), 0.0}) {
    for (double FlowSimConfig::*field :
         {&FlowSimConfig::delta, &FlowSimConfig::poll_interval,
          &FlowSimConfig::end_time}) {
      FlowSimConfig cfg;
      cfg.*field = bad;
      EXPECT_THROW(
          FlowSimulator(g, std::vector<Amount>{from_units(100)}, scheme, cfg),
          std::invalid_argument)
          << bad;
    }
  }
}

TEST(FlowSim, OnChainRebalancingUnblocksOneWayTraffic) {
  // Pure one-way demand exhausts the channel; with on-chain rebalancing
  // enabled (§5.2.3) the router tops up its side and traffic continues.
  const graph::Graph g = graph::topology::make_line(2);
  const auto run = [&](bool rebalance) {
    schemes::ShortestPathScheme scheme;
    FlowSimConfig cfg;
    cfg.end_time = 60;
    cfg.enable_rebalancing = rebalance;
    cfg.rebalance_interval = 2.0;
    cfg.rebalance_delay = 1.0;
    FlowSimulator sim(g, std::vector<Amount>{from_units(100)}, scheme, cfg);
    for (int i = 0; i < 10; ++i) {
      sim.add_payment(payment(0, 1, 30, 1.0 + i));
    }
    auto m = sim.run(no_demand(2));
    EXPECT_TRUE(sim.network().conserves_funds());
    return m;
  };
  const Metrics without = run(false);
  const Metrics with = run(true);
  EXPECT_EQ(without.rebalance_events, 0u);
  EXPECT_GT(with.rebalance_events, 0u);
  EXPECT_GT(with.rebalanced_volume, 0);
  EXPECT_GT(with.succeeded, without.succeeded);
  EXPECT_GT(with.delivered_volume, without.delivered_volume);
}

TEST(FlowSim, ConservationAcrossABusyRun) {
  const graph::Graph g = graph::topology::make_isp32();
  schemes::WaterfillingScheme scheme(4);
  FlowSimConfig cfg;
  cfg.end_time = 10;
  FlowSimulator sim(
      g, std::vector<Amount>(g.edge_count(), from_units(200)), scheme, cfg);
  for (int i = 0; i < 200; ++i) {
    sim.add_payment(payment(static_cast<core::NodeId>(i % 32),
                            static_cast<core::NodeId>((i * 7 + 3) % 32),
                            5.0 + (i % 11), 0.01 * i));
  }
  const Metrics m = sim.run(no_demand(32));
  EXPECT_GT(m.succeeded, 0u);
  EXPECT_TRUE(sim.network().conserves_funds());
  EXPECT_EQ(sim.network().total_funds(),
            static_cast<Amount>(g.edge_count()) * from_units(200));
}

}  // namespace
}  // namespace spider::sim
