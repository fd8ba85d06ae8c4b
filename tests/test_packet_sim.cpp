#include "sim/packet_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <tuple>
#include <vector>

#include "graph/topology.hpp"

namespace spider::sim {
namespace {

using core::Amount;
using core::from_units;
using core::PaymentKind;
using core::PaymentRequest;

PaymentRequest payment(core::NodeId src, core::NodeId dst, double units,
                       TimePoint arrival, PaymentKind kind,
                       TimePoint deadline = core::kNever) {
  PaymentRequest req;
  req.src = src;
  req.dst = dst;
  req.amount = from_units(units);
  req.arrival = arrival;
  req.kind = kind;
  req.deadline = deadline;
  return req;
}

TEST(PacketSim, SingleNonAtomicPaymentDelivers) {
  const graph::Graph g = graph::topology::make_line(3);
  PacketSimConfig cfg;
  cfg.end_time = 20;
  cfg.mtu = from_units(10);
  PacketSimulator sim(g, std::vector<Amount>(2, from_units(100)), cfg);
  sim.submit(payment(0, 2, 35, 1.0, PaymentKind::kNonAtomic));
  const Metrics m = sim.run();
  EXPECT_EQ(m.succeeded, 1u);
  EXPECT_EQ(m.delivered_volume, from_units(35));
  // ceil(35/10) = 4 transaction units.
  EXPECT_EQ(m.units_sent, 4u);
  EXPECT_TRUE(sim.network().conserves_funds());
}

TEST(PacketSim, FundsMoveAcrossEveryHop) {
  const graph::Graph g = graph::topology::make_line(3);
  PacketSimConfig cfg;
  cfg.end_time = 20;
  cfg.mtu = from_units(5);
  PacketSimulator sim(g, std::vector<Amount>(2, from_units(100)), cfg);
  sim.submit(payment(0, 2, 20, 1.0, PaymentKind::kNonAtomic));
  (void)sim.run();
  EXPECT_EQ(sim.network().available(graph::forward_arc(0)), from_units(30));
  EXPECT_EQ(sim.network().available(graph::backward_arc(0)), from_units(70));
  EXPECT_EQ(sim.network().available(graph::forward_arc(1)), from_units(30));
  EXPECT_EQ(sim.network().available(graph::backward_arc(1)), from_units(70));
}

TEST(PacketSim, AtomicPaymentAllOrNothingSuccess) {
  const graph::Graph g = graph::topology::make_line(2);
  PacketSimConfig cfg;
  cfg.end_time = 20;
  cfg.mtu = from_units(10);
  PacketSimulator sim(g, std::vector<Amount>{from_units(100)}, cfg);
  sim.submit(payment(0, 1, 30, 1.0, PaymentKind::kAtomic));
  const Metrics m = sim.run();
  EXPECT_EQ(m.succeeded, 1u);
  EXPECT_EQ(m.delivered_volume, from_units(30));
}

TEST(PacketSim, AtomicPaymentFailsCleanlyWhenShort) {
  // 80 requested, only 50 available: atomic delivers nothing and, after
  // the deadline, all held funds return.
  const graph::Graph g = graph::topology::make_line(2);
  PacketSimConfig cfg;
  cfg.end_time = 30;
  cfg.mtu = from_units(10);
  PacketSimulator sim(g, std::vector<Amount>{from_units(100)}, cfg);
  sim.submit(payment(0, 1, 80, 1.0, PaymentKind::kAtomic, /*deadline=*/5.0));
  const Metrics m = sim.run();
  EXPECT_EQ(m.succeeded, 0u);
  EXPECT_EQ(m.failed, 1u);
  EXPECT_EQ(m.delivered_volume, 0);
  EXPECT_TRUE(sim.network().conserves_funds());
}

TEST(PacketSim, UnitsQueueAtDryChannelAndDrainLater) {
  // A 0->1 payment drains the channel; a later 1->0 payment refills it,
  // releasing the queued units (Fig. 3 behaviour).
  const graph::Graph g = graph::topology::make_line(2);
  PacketSimConfig cfg;
  cfg.end_time = 60;
  cfg.mtu = from_units(10);
  PacketSimulator sim(g, std::vector<Amount>{from_units(100)}, cfg);
  sim.submit(payment(0, 1, 80, 1.0, PaymentKind::kNonAtomic));
  sim.submit(payment(1, 0, 60, 5.0, PaymentKind::kNonAtomic));
  const Metrics m = sim.run();
  EXPECT_EQ(m.succeeded, 2u);
  EXPECT_EQ(m.delivered_volume, from_units(140));
  EXPECT_EQ(sim.queued_units(), 0u);
}

TEST(PacketSim, ExpiredQueuedUnitsAreFailed) {
  const graph::Graph g = graph::topology::make_line(2);
  PacketSimConfig cfg;
  cfg.end_time = 30;
  cfg.mtu = from_units(10);
  PacketSimulator sim(g, std::vector<Amount>{from_units(100)}, cfg);
  sim.submit(payment(0, 1, 80, 1.0, PaymentKind::kNonAtomic,
                     /*deadline=*/4.0));
  const Metrics m = sim.run();
  EXPECT_EQ(m.partial, 1u);
  EXPECT_EQ(m.delivered_volume, from_units(50));
  EXPECT_EQ(sim.queued_units(), 0u);  // expired units swept
  EXPECT_TRUE(sim.network().conserves_funds());
}

TEST(PacketSim, MultipathSplitsAcrossDisjointPaths) {
  // Ring: two disjoint 0->2 paths of 50 each; a 80-unit payment needs
  // both (widest-path unit placement alternates as balances drain).
  const graph::Graph g = graph::topology::make_ring(4);
  PacketSimConfig cfg;
  cfg.end_time = 30;
  cfg.mtu = from_units(10);
  PacketSimulator sim(g, std::vector<Amount>(4, from_units(100)), cfg);
  sim.submit(payment(0, 2, 80, 1.0, PaymentKind::kNonAtomic));
  const Metrics m = sim.run();
  EXPECT_EQ(m.succeeded, 1u);
  EXPECT_EQ(m.delivered_volume, from_units(80));
}

TEST(PacketSim, RoundRobinPathPolicy) {
  const graph::Graph g = graph::topology::make_ring(4);
  PacketSimConfig cfg;
  cfg.end_time = 30;
  cfg.mtu = from_units(10);
  cfg.path_policy = UnitPathPolicy::kRoundRobin;
  PacketSimulator sim(g, std::vector<Amount>(4, from_units(100)), cfg);
  sim.submit(payment(0, 2, 60, 1.0, PaymentKind::kNonAtomic));
  const Metrics m = sim.run();
  EXPECT_EQ(m.succeeded, 1u);
}

TEST(PacketSim, DisconnectedDestinationFails) {
  graph::Graph g(3, {{0, 1}});  // node 2 isolated
  PacketSimConfig cfg;
  cfg.end_time = 10;
  PacketSimulator sim(g, std::vector<Amount>{from_units(100)}, cfg);
  sim.submit(payment(0, 2, 10, 1.0, PaymentKind::kNonAtomic));
  const Metrics m = sim.run();
  EXPECT_EQ(m.failed, 1u);
  EXPECT_EQ(m.delivered_volume, 0);
}

TEST(PacketSim, ApiMisuseThrows) {
  const graph::Graph g = graph::topology::make_line(2);
  PacketSimulator sim(g, std::vector<Amount>{from_units(100)}, {});
  EXPECT_THROW(sim.submit(payment(0, 0, 10, 1.0, PaymentKind::kNonAtomic)),
               std::invalid_argument);
  // A NaN arrival has no place in the arrival order.
  for (const double t : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(sim.submit(payment(0, 1, 10, t, PaymentKind::kNonAtomic)),
                 std::invalid_argument);
  }
  (void)sim.run();
  EXPECT_THROW((void)sim.run(), std::logic_error);
  PacketSimConfig bad;
  bad.mtu = 0;
  EXPECT_THROW(
      PacketSimulator(g, std::vector<Amount>{from_units(100)}, bad),
      std::invalid_argument);
}

TEST(PacketSim, SubmitRejectsDecreasingArrival) {
  // Payment ids are submission indices and arrivals fire in submission
  // order, so an arrival earlier than the previous one is refused.
  const graph::Graph g = graph::topology::make_line(2);
  PacketSimulator sim(g, std::vector<Amount>{from_units(100)}, {});
  EXPECT_EQ(sim.submit(payment(0, 1, 10, 2.0, PaymentKind::kNonAtomic)), 0u);
  EXPECT_EQ(sim.submit(payment(1, 0, 10, 2.0, PaymentKind::kNonAtomic)), 1u);
  EXPECT_THROW(sim.submit(payment(0, 1, 10, 1.0, PaymentKind::kNonAtomic)),
               std::invalid_argument);
  const Metrics m = sim.run();
  EXPECT_EQ(m.attempted, 2u);
}

TEST(PacketSim, BatchRunRetiresResolvedPayments) {
  // run() retires resolved payments every few simulated seconds, so
  // with deadlines far shorter than the trace only a window of
  // payments is ever live, and every payment is still classified once.
  const graph::Graph g = graph::topology::make_isp32();
  PacketSimConfig cfg;
  cfg.end_time = 40;
  cfg.mtu = from_units(5);
  PacketSimulator sim(g, std::vector<Amount>(g.edge_count(), from_units(80)),
                      cfg);
  constexpr int kPayments = 300;
  for (int i = 0; i < kPayments; ++i) {
    sim.submit(payment(static_cast<core::NodeId>(i % 32),
                       static_cast<core::NodeId>((i * 7 + 3) % 32),
                       2.0 + (i % 13), 0.1 * i, PaymentKind::kNonAtomic,
                       /*deadline=*/0.1 * i + 2.0));
  }
  const Metrics m = sim.run();
  EXPECT_EQ(m.attempted, static_cast<std::uint64_t>(kPayments));
  EXPECT_EQ(m.succeeded + m.partial + m.failed, m.attempted);
  EXPECT_GT(m.succeeded, 0u);
  EXPECT_GT(sim.peak_live_payments(), 0u);
  EXPECT_LT(sim.peak_live_payments(), static_cast<std::size_t>(kPayments));
  EXPECT_TRUE(sim.network().conserves_funds());
}

TEST(PacketSim, CongestionControlStillDeliversEverything) {
  const graph::Graph g = graph::topology::make_ring(4);
  PacketSimConfig cfg;
  cfg.end_time = 60;
  cfg.mtu = from_units(5);
  cfg.cc_mode = CongestionControlMode::kFailureWindow;
  cfg.cc_initial_window = 2.0;
  PacketSimulator sim(g, std::vector<Amount>(4, from_units(100)), cfg);
  sim.submit(payment(0, 2, 80, 1.0, PaymentKind::kNonAtomic));
  const Metrics m = sim.run();
  EXPECT_EQ(m.succeeded, 1u);
  EXPECT_EQ(m.delivered_volume, from_units(80));
  EXPECT_EQ(sim.backlog_units(), 0u);
  EXPECT_TRUE(sim.network().conserves_funds());
}

TEST(PacketSim, CongestionControlPacesInjection) {
  // With a window of 2 and 8 units to send, the host may not have more
  // than 2 units in the network at once; everything still delivers.
  const graph::Graph g = graph::topology::make_line(3);
  PacketSimConfig cfg;
  cfg.end_time = 60;
  cfg.mtu = from_units(10);
  cfg.cc_mode = CongestionControlMode::kFailureWindow;
  cfg.cc_initial_window = 2.0;
  cfg.cc_max_window = 2.0;  // clamp: no growth
  PacketSimulator sim(g, std::vector<Amount>(2, from_units(200)), cfg);
  sim.submit(payment(0, 2, 80, 1.0, PaymentKind::kNonAtomic));
  const Metrics m = sim.run();
  EXPECT_EQ(m.succeeded, 1u);
  // Units can only be in flight two at a time; with hop+ack delays of
  // 0.05 s a full window turn takes ~0.2 s, so completion is strictly
  // later than the un-paced case (which pipelines all 8 at once).
  EXPECT_GT(m.mean_completion_latency(), 0.5);
}

TEST(PacketSim, CongestionControlHandlesUnroutablePairs) {
  graph::Graph g(3, {{0, 1}});  // node 2 unreachable
  PacketSimConfig cfg;
  cfg.end_time = 20;
  cfg.mtu = from_units(5);
  cfg.cc_mode = CongestionControlMode::kFailureWindow;
  PacketSimulator sim(g, std::vector<Amount>{from_units(100)}, cfg);
  sim.submit(payment(0, 2, 50, 1.0, PaymentKind::kNonAtomic));
  const Metrics m = sim.run();
  EXPECT_EQ(m.failed, 1u);
  EXPECT_EQ(sim.backlog_units(), 0u);
}

TEST(PacketSim, CongestionControlAbandonsExpiredBacklogUnits) {
  // The backlog drain skips units whose deadline already passed (the
  // abandon_unit branch of cc_unit_left): they are written off without
  // ever being launched.
  //
  // Setup: a warm-up payment drains the 0->1 direction, so the probe
  // payment's first unit queues at the router, expires, and is failed by
  // the sweep -- whose cc_unit_left call drains the backlog *after* the
  // probe's deadline. Its two backlogged units must be abandoned, not
  // launched.
  const graph::Graph g = graph::topology::make_line(2);
  PacketSimConfig cfg;
  cfg.end_time = 10;
  cfg.mtu = from_units(10);
  cfg.cc_mode = CongestionControlMode::kFailureWindow;
  cfg.cc_initial_window = 1.0;
  cfg.cc_max_window = 1.0;  // clamp: keep the pair serialized
  PacketSimulator sim(g, std::vector<Amount>{from_units(100)}, cfg);
  // Warm-up: moves all 50 available units of the 0->1 direction.
  sim.submit(payment(0, 1, 50, 0.5, PaymentKind::kNonAtomic));
  // Probe: 3 units, deadline 2.0. Unit 1 queues at the dry router; units
  // 2 and 3 sit in the backlog behind the window of 1.
  sim.submit(payment(0, 1, 30, 1.5, PaymentKind::kNonAtomic,
                     /*deadline=*/2.0));
  const Metrics m = sim.run();
  EXPECT_EQ(m.succeeded, 1u);  // warm-up
  EXPECT_EQ(m.failed, 1u);     // probe delivered nothing
  // 5 warm-up units + the probe's first unit; the backlogged units were
  // abandoned without a launch.
  EXPECT_EQ(m.units_sent, 6u);
  EXPECT_EQ(sim.backlog_units(), 0u);
  EXPECT_EQ(sim.queued_units(), 0u);
  EXPECT_TRUE(sim.network().conserves_funds());
}

TEST(PacketSim, CongestionControlHalvesWindowOnSynchronousNoRouteFailure) {
  // A launched unit can fail before any event fires (select_path finds
  // no route). That failure re-enters cc_unit_left from inside the
  // backlog drain: the window halves down to its floor of 1 and the
  // `draining` guard turns the cascade into a loop instead of
  // recursion. Every unit must be written off synchronously during the
  // arrival -- none launched, backlog left empty.
  graph::Graph g(3, {{0, 1}});  // node 2 unreachable
  PacketSimConfig cfg;
  cfg.end_time = 20;
  cfg.mtu = from_units(1);
  cfg.cc_mode = CongestionControlMode::kFailureWindow;
  cfg.cc_initial_window = 8.0;
  PacketSimulator sim(g, std::vector<Amount>{from_units(100)}, cfg);
  // 500 units: deep enough that un-guarded recursion through the drain
  // would be a real stack hazard.
  sim.submit(payment(0, 2, 500, 1.0, PaymentKind::kNonAtomic));
  const Metrics m = sim.run();
  EXPECT_EQ(m.failed, 1u);
  EXPECT_EQ(m.delivered_volume, 0);
  EXPECT_EQ(m.units_sent, 0u);  // no-route units never enter the network
  EXPECT_EQ(sim.backlog_units(), 0u);
}

TEST(PacketSim, CongestionControlSteadyBacklogKeepsFifoOrder) {
  // Window 1 on a one-hop pair serves one unit per 0.1 s (hop + ack
  // delay) while arrivals bring 15 units/s, so the host backlog never
  // empties. Both drains compact the consumed prefix of such a backlog;
  // FIFO order, and so every metric, must stay as if nothing moved.
  for (const CongestionControlMode mode :
       {CongestionControlMode::kFailureWindow,
        CongestionControlMode::kSpiderCc}) {
    const graph::Graph g = graph::topology::make_line(2);
    PacketSimConfig cfg;
    cfg.end_time = 30;
    cfg.mtu = from_units(1);
    cfg.cc_mode = mode;
    cfg.cc_initial_window = 1.0;
    cfg.cc_max_window = 1.0;
    PacketSimulator sim(g, std::vector<Amount>{from_units(100000)}, cfg);
    std::uint64_t units = 0;
    for (int i = 0; i < 140; ++i) {
      sim.submit(payment(0, 1, 3, 0.5 + 0.2 * i, PaymentKind::kNonAtomic));
      units += 3;
    }
    const Metrics m = sim.run();
    SCOPED_TRACE(static_cast<int>(mode));
    EXPECT_EQ(m.units_sent, 295u);
    // Every unit was launched or still waits in the backlog: none was
    // dropped or launched twice by the compaction.
    EXPECT_EQ(m.units_sent + sim.backlog_units(), units);
    // FIFO: the first 98 payments completed in arrival order; the
    // 99th has one unit in flight at end_time and the rest never
    // launched one.
    EXPECT_EQ(m.succeeded, 98u);
    EXPECT_EQ(m.partial, 0u);
    EXPECT_EQ(m.failed, 42u);
    EXPECT_EQ(m.delivered_volume, from_units(294));
    EXPECT_TRUE(sim.network().conserves_funds());
  }
}

TEST(PacketSim, RoundRobinPathSelectionIsDeterministic) {
  // Same seed, same workload -> bit-identical metrics. Guards the dense
  // per-pair table (round-robin cursors included) against any iteration-
  // order dependence the old std::map keyed state could have hidden.
  const auto run_once = []() {
    const graph::Graph g = graph::topology::make_isp32();
    PacketSimConfig cfg;
    cfg.end_time = 25;
    cfg.mtu = from_units(5);
    cfg.path_policy = UnitPathPolicy::kRoundRobin;
    cfg.cc_mode = CongestionControlMode::kFailureWindow;
    cfg.seed = 7;
    PacketSimulator sim(
        g, std::vector<Amount>(g.edge_count(), from_units(80)), cfg);
    for (int i = 0; i < 120; ++i) {
      sim.submit(payment(static_cast<core::NodeId>(i % 32),
                         static_cast<core::NodeId>((i * 7 + 3) % 32),
                         2.0 + (i % 13), 0.1 * i, PaymentKind::kNonAtomic,
                         /*deadline=*/0.1 * i + 10.0));
    }
    const Metrics m = sim.run();
    return std::tuple(m.succeeded, m.partial, m.failed, m.delivered_volume,
                      m.completed_volume, m.units_sent,
                      m.sum_completion_latency, sim.events_processed());
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_GT(std::get<0>(a), 0u);  // the workload actually exercises paths
}

TEST(PacketSim, SpiderCcCleanAcksGrowWindowsAdditively) {
  // Uncongested line: every ack comes back clean, so the used path's
  // AIMD window must end strictly above its initial value (additive
  // increase, cc_alpha / w per ack) and no decrease may fire.
  const graph::Graph g = graph::topology::make_line(3);
  PacketSimConfig cfg;
  cfg.end_time = 60;
  cfg.mtu = from_units(5);
  cfg.cc_mode = CongestionControlMode::kSpiderCc;
  cfg.cc_initial_window = 2.0;
  cfg.cc_max_window = 64.0;
  cfg.cc_alpha = 1.0;
  PacketSimulator sim(g, std::vector<Amount>(2, from_units(200)), cfg);
  sim.submit(payment(0, 2, 60, 1.0, PaymentKind::kNonAtomic));
  const Metrics m = sim.run();
  EXPECT_EQ(m.succeeded, 1u);
  EXPECT_EQ(m.delivered_volume, from_units(60));
  EXPECT_EQ(m.cc_marked_acks, 0u);
  EXPECT_EQ(m.cc_window_decreases, 0u);
  const std::vector<double> wins = sim.cc_windows(0, 2);
  ASSERT_FALSE(wins.empty());
  double widest = 0.0;
  for (const double w : wins) widest = std::max(widest, w);
  EXPECT_GT(widest, 2.0);  // 12 clean acks of additive increase
  EXPECT_TRUE(sim.network().conserves_funds());
}

TEST(PacketSim, SpiderCcMarkedAcksShrinkWindowsMultiplicatively) {
  // Units that sit in a dry channel's queue accumulate queueing delay;
  // when a reverse payment refills the channel they are serviced with
  // ~1 s of measured delay, the router's EWMA crosses the threshold,
  // and their acks carry the mark. Each marked ack applies a
  // multiplicative decrease, so the pair's window ends below its
  // (growth-clamped) initial value.
  const graph::Graph g = graph::topology::make_line(2);
  PacketSimConfig cfg;
  cfg.end_time = 30;
  cfg.mtu = from_units(10);
  cfg.cc_mode = CongestionControlMode::kSpiderCc;
  cfg.cc_initial_window = 4.0;
  cfg.cc_max_window = 4.0;  // clamp: isolate the decrease
  cfg.cc_mark_threshold = 0.3;
  PacketSimulator sim(g, std::vector<Amount>{from_units(100)}, cfg);
  // Drains 0->1 completely, then the probe queues at the dry channel.
  sim.submit(payment(0, 1, 50, 0.5, PaymentKind::kNonAtomic));
  sim.submit(payment(0, 1, 30, 1.0, PaymentKind::kNonAtomic));
  // Refill at t=3: the probe's queued units are serviced ~2 s late.
  sim.submit(payment(1, 0, 80, 3.0, PaymentKind::kNonAtomic));
  const Metrics m = sim.run();
  EXPECT_EQ(m.succeeded, 3u);
  EXPECT_GT(m.cc_marked_acks, 0u);
  EXPECT_GT(m.cc_window_decreases, 0u);
  const std::vector<double> wins = sim.cc_windows(0, 1);
  ASSERT_EQ(wins.size(), 1u);
  EXPECT_LT(wins[0], 4.0);
  EXPECT_TRUE(sim.network().conserves_funds());
}

TEST(PacketSim, CcWindowsAccessorContract) {
  const graph::Graph g = graph::topology::make_ring(4);
  PacketSimConfig cfg;
  cfg.end_time = 20;
  cfg.mtu = from_units(5);
  cfg.cc_mode = CongestionControlMode::kSpiderCc;
  cfg.cc_initial_window = 3.0;
  PacketSimulator sim(g, std::vector<Amount>(4, from_units(100)), cfg);
  sim.submit(payment(0, 2, 20, 1.0, PaymentKind::kNonAtomic));
  (void)sim.run();
  // A touched pair: one window per candidate path (the ring offers two
  // edge-disjoint 0 -> 2 paths).
  EXPECT_EQ(sim.cc_windows(0, 2).size(), 2u);
  // Never touched: the reverse pair, another source, another
  // destination.
  EXPECT_TRUE(sim.cc_windows(2, 0).empty());
  EXPECT_TRUE(sim.cc_windows(1, 3).empty());
  EXPECT_TRUE(sim.cc_windows(0, 3).empty());
  // Out-of-range endpoints are not an error.
  EXPECT_TRUE(sim.cc_windows(4, 0).empty());
  EXPECT_TRUE(sim.cc_windows(0, 4).empty());
  EXPECT_TRUE(sim.cc_windows(graph::kInvalidNode, 2).empty());

  // Without spider-cc there are no per-path windows, touched or not.
  PacketSimConfig plain = cfg;
  plain.cc_mode = CongestionControlMode::kFailureWindow;
  PacketSimulator other(g, std::vector<Amount>(4, from_units(100)), plain);
  other.submit(payment(0, 2, 20, 1.0, PaymentKind::kNonAtomic));
  (void)other.run();
  EXPECT_TRUE(other.cc_windows(0, 2).empty());
}

TEST(PacketSim, SpiderCcTimesOutStuckUnitsAndRetries) {
  // A unit stuck in a dry channel's queue past cc_unit_timeout is
  // dropped by the expiry sweep, its locks refund, and -- because the
  // payment itself has no deadline pressure -- it re-enters the host
  // backlog and relaunches. When a reverse payment later refills the
  // channel, the retried unit completes: the timeout converts a
  // would-be-permanent gridlock into a delayed success.
  const graph::Graph g = graph::topology::make_line(2);
  PacketSimConfig cfg;
  cfg.end_time = 40;
  cfg.mtu = from_units(10);
  cfg.cc_mode = CongestionControlMode::kSpiderCc;
  cfg.cc_unit_timeout = 2.0;
  PacketSimulator sim(g, std::vector<Amount>{from_units(100)}, cfg);
  sim.submit(payment(0, 1, 50, 0.5, PaymentKind::kNonAtomic));  // drain
  sim.submit(payment(0, 1, 10, 1.0, PaymentKind::kNonAtomic));  // sticks
  sim.submit(payment(1, 0, 60, 10.0, PaymentKind::kNonAtomic));  // refill
  const Metrics m = sim.run();
  EXPECT_EQ(m.succeeded, 3u);
  EXPECT_GT(m.cc_timeout_retries, 0u);
  EXPECT_GT(m.cc_window_decreases, 0u);  // a timeout is a loss signal
  EXPECT_EQ(sim.queued_units(), 0u);
  EXPECT_EQ(sim.backlog_units(), 0u);
  EXPECT_TRUE(sim.network().conserves_funds());
}

TEST(PacketSim, SpiderCcKnobsAreInertWhenDisabled) {
  // Differential guard: with cc_mode kNone the simulator must be
  // byte-identical to the pre-spider-cc packet sim, no matter what the
  // spider-cc knobs say. Any divergence means the new plumbing leaks
  // into the default hot path.
  const auto run_once = [](bool poison_knobs) {
    const graph::Graph g = graph::topology::make_isp32();
    PacketSimConfig cfg;
    cfg.end_time = 15;
    cfg.mtu = from_units(5);
    cfg.seed = 11;
    if (poison_knobs) {
      cfg.cc_initial_window = 1.0;
      cfg.cc_max_window = 2.0;
      cfg.cc_alpha = 9.0;
      cfg.cc_beta = 0.9;
      cfg.cc_min_window = 0.5;
      cfg.cc_mark_threshold = 0.001;
      cfg.cc_mark_unmark_fraction = 0.9;
      cfg.cc_mark_ewma_gain = 1.0;
      cfg.cc_unit_timeout = 0.25;
    }
    PacketSimulator sim(
        g, std::vector<Amount>(g.edge_count(), from_units(100)), cfg);
    for (int i = 0; i < 150; ++i) {
      sim.submit(payment(static_cast<core::NodeId>(i % 32),
                         static_cast<core::NodeId>((i * 11 + 5) % 32),
                         3.0 + (i % 17), 0.05 * i, PaymentKind::kNonAtomic,
                         /*deadline=*/0.05 * i + 8.0));
    }
    const Metrics m = sim.run();
    return std::tuple(m.succeeded, m.partial, m.failed, m.delivered_volume,
                      m.completed_volume, m.units_sent,
                      m.sum_completion_latency, m.cc_marked_acks,
                      m.cc_window_decreases, m.cc_timeout_retries,
                      sim.events_processed());
  };
  const auto base = run_once(false);
  const auto poisoned = run_once(true);
  EXPECT_EQ(base, poisoned);
  EXPECT_EQ(std::get<7>(base), 0u);   // no marked acks
  EXPECT_EQ(std::get<9>(base), 0u);   // no timeout retries
}

TEST(PacketSim, ConservationUnderLoad) {
  const graph::Graph g = graph::topology::make_isp32();
  PacketSimConfig cfg;
  cfg.end_time = 15;
  cfg.mtu = from_units(5);
  PacketSimulator sim(
      g, std::vector<Amount>(g.edge_count(), from_units(100)), cfg);
  for (int i = 0; i < 150; ++i) {
    sim.submit(payment(static_cast<core::NodeId>(i % 32),
                       static_cast<core::NodeId>((i * 11 + 5) % 32),
                       3.0 + (i % 17), 0.05 * i, PaymentKind::kNonAtomic,
                       /*deadline=*/0.05 * i + 8.0));
  }
  const Metrics m = sim.run();
  EXPECT_GT(m.succeeded, 100u);
  EXPECT_TRUE(sim.network().conserves_funds());
  EXPECT_EQ(sim.network().total_funds(),
            static_cast<Amount>(g.edge_count()) * from_units(100));
}

}  // namespace
}  // namespace spider::sim
