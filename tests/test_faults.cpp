// Unit and differential tests of the fault-injection subsystem
// (src/faults/): plan/profile values, injector state machine, the
// empty-plan byte-identity guarantee for both simulators, and the
// degradation machinery (down sources, closed channels, withholding,
// stale probes) observed through sim::Metrics.

#include "faults/fault_plan.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "exp/report.hpp"
#include "exp/sweep.hpp"
#include "faults/fault_profile.hpp"
#include "faults/injector.hpp"
#include "graph/topology.hpp"
#include "schemes/schemes.hpp"
#include "sim/audit.hpp"
#include "sim/flow_sim.hpp"
#include "sim/packet_sim.hpp"

namespace spider::faults {
namespace {

using core::Amount;
using core::from_units;

// ---------------------------------------------------------------------
// FaultPlan: value semantics, normalize, validate.
// ---------------------------------------------------------------------

TEST(FaultPlan, NormalizeIsAStableSortByTime) {
  FaultPlan plan;
  plan.add({5.0, FaultKind::kNodeDown, 1, 2.0});
  plan.add({1.0, FaultKind::kWithhold, 0, 1.0});
  plan.add({5.0, FaultKind::kChannelClose, 0, 0.0});  // ties keep order
  plan.normalize();
  EXPECT_EQ(plan.at(0).kind, FaultKind::kWithhold);
  EXPECT_EQ(plan.at(1).kind, FaultKind::kNodeDown);
  EXPECT_EQ(plan.at(2).kind, FaultKind::kChannelClose);
}

TEST(FaultPlan, ValidateRejectsMalformedEvents) {
  const graph::Graph g = graph::topology::make_line(3);  // 3 nodes, 2 edges
  {
    FaultPlan p;
    p.add({1.0, FaultKind::kNodeDown, 3, 1.0});  // node out of range
    EXPECT_THROW(p.validate(g), std::invalid_argument);
  }
  {
    FaultPlan p;
    p.add({1.0, FaultKind::kChannelClose, 2, 0.0});  // edge out of range
    EXPECT_THROW(p.validate(g), std::invalid_argument);
  }
  {
    FaultPlan p;
    p.add({-1.0, FaultKind::kNodeDown, 0, 1.0});  // negative time
    EXPECT_THROW(p.validate(g), std::invalid_argument);
  }
  {
    FaultPlan p;
    p.add({1.0, FaultKind::kProbeStale, 2, 1.0});  // stale target must be 0
    EXPECT_THROW(p.validate(g), std::invalid_argument);
  }
  {
    FaultPlan p;
    p.add({1.0, FaultKind::kNodeDown, 2, 1.0});
    p.add({2.0, FaultKind::kChannelClose, 1, 0.0});
    p.add({3.0, FaultKind::kProbeStale, 0, 2.0});
    EXPECT_NO_THROW(p.validate(g));
  }
}

TEST(FaultKindNames, AreStable) {
  EXPECT_EQ(to_string(FaultKind::kNodeDown), "node-down");
  EXPECT_EQ(to_string(FaultKind::kChannelClose), "channel-close");
  EXPECT_EQ(to_string(FaultKind::kWithhold), "withhold");
  EXPECT_EQ(to_string(FaultKind::kProbeStale), "probe-stale");
}

// ---------------------------------------------------------------------
// FaultProfile: spec parsing and seeded generation.
// ---------------------------------------------------------------------

TEST(FaultProfile, SpecRoundTripsThroughToString) {
  FaultProfile p;
  p.seed = 42;
  p.horizon = 120.0;
  p.node_churn_rate = 0.05;
  p.mean_downtime = 4.5;
  p.channel_close_rate = 0.01;
  p.withhold_rate = 0.2;
  p.mean_withhold = 1.5;
  p.stale_rate = 0.02;
  p.mean_stale = 3.0;
  EXPECT_EQ(parse_profile(to_string(p)), p);
}

TEST(FaultProfile, ParseAcceptsBothSeparators) {
  const FaultProfile a = parse_profile("churn=0.1,downtime=3,seed=9");
  const FaultProfile b = parse_profile("churn=0.1;downtime=3;seed=9");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.node_churn_rate, 0.1);
  EXPECT_EQ(a.mean_downtime, 3.0);
  EXPECT_EQ(a.seed, 9u);
}

TEST(FaultProfile, ParseRejectsUnknownKeysAndBadValues) {
  EXPECT_THROW((void)parse_profile("chrn=0.1"), std::invalid_argument);
  EXPECT_THROW((void)parse_profile("churn=abc"), std::invalid_argument);
  EXPECT_THROW((void)parse_profile("churn"), std::invalid_argument);
  EXPECT_TRUE(parse_profile("").quiet());
}

TEST(FaultProfile, GeneratePlanIsDeterministic) {
  const graph::Graph g = graph::topology::make_ring(8);
  const FaultProfile p = parse_profile(
      "churn=0.2;downtime=3;close=0.05;withhold=0.3;hold=1;stale=0.1;"
      "staledur=2;seed=7;horizon=60");
  const FaultPlan a = generate_plan(p, g);
  const FaultPlan b = generate_plan(p, g);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

TEST(FaultProfile, FaultKindsDrawIndependentStreams) {
  // Enabling channel closures must not perturb the node-down schedule:
  // each kind draws from its own salted engine.
  const graph::Graph g = graph::topology::make_ring(8);
  const FaultProfile churn_only =
      parse_profile("churn=0.2;downtime=3;seed=7;horizon=60");
  const FaultProfile churn_and_close =
      parse_profile("churn=0.2;downtime=3;close=0.1;seed=7;horizon=60");
  const FaultPlan plan_a = generate_plan(churn_only, g);
  const FaultPlan plan_b = generate_plan(churn_and_close, g);
  std::vector<FaultEvent> downs_a;
  for (const FaultEvent& ev : plan_a.events()) {
    if (ev.kind == FaultKind::kNodeDown) downs_a.push_back(ev);
  }
  std::vector<FaultEvent> downs_b;
  for (const FaultEvent& ev : plan_b.events()) {
    if (ev.kind == FaultKind::kNodeDown) downs_b.push_back(ev);
  }
  EXPECT_EQ(downs_a, downs_b);
  EXPECT_FALSE(downs_a.empty());
}

TEST(FaultProfile, QuietProfileGeneratesEmptyPlan) {
  const graph::Graph g = graph::topology::make_ring(4);
  FaultProfile p;
  p.horizon = 100.0;
  EXPECT_TRUE(p.quiet());
  EXPECT_TRUE(generate_plan(p, g).empty());
}

TEST(FaultProfile, GenerateWithoutHorizonThrows) {
  const graph::Graph g = graph::topology::make_ring(4);
  const FaultProfile p = parse_profile("churn=0.1");
  EXPECT_THROW(generate_plan(p, g), std::invalid_argument);
}

// ---------------------------------------------------------------------
// FaultInjector: the runtime state machine.
// ---------------------------------------------------------------------

TEST(FaultInjector, OverlappingDowntimeWindowsNest) {
  const graph::Graph g = graph::topology::make_line(3);
  FaultPlan plan;
  plan.add({1.0, FaultKind::kNodeDown, 1, 5.0});  // window A: [1, 6)
  plan.add({2.0, FaultKind::kNodeDown, 1, 2.0});  // window B: [2, 4)
  FaultInjector inj(plan);
  inj.bind(g);

  const auto a = inj.apply(0, 1.0);
  EXPECT_TRUE(a.needs_end_event);
  EXPECT_TRUE(a.became_active);
  EXPECT_EQ(a.until, 6.0);
  EXPECT_TRUE(inj.node_down(1));

  const auto b = inj.apply(1, 2.0);
  EXPECT_FALSE(b.became_active);  // already down
  // Window B ends first: the node must stay down until A also ends.
  EXPECT_FALSE(inj.expire(FaultKind::kNodeDown, 1));
  EXPECT_TRUE(inj.node_down(1));
  EXPECT_TRUE(inj.expire(FaultKind::kNodeDown, 1));
  EXPECT_FALSE(inj.node_down(1));
  // Underflow is a protocol bug, not a silent no-op.
  EXPECT_THROW(inj.expire(FaultKind::kNodeDown, 1), std::logic_error);
}

TEST(FaultInjector, ClosuresArePermanentAndWithholdingSelfExpires) {
  const graph::Graph g = graph::topology::make_line(3);
  FaultPlan plan;
  plan.add({1.0, FaultKind::kChannelClose, 0, 0.0});
  plan.add({2.0, FaultKind::kWithhold, 2, 3.0});  // withhold until t=5
  plan.add({3.0, FaultKind::kWithhold, 2, 1.0});  // shorter: keeps max
  FaultInjector inj(plan);
  inj.bind(g);

  const auto c = inj.apply(0, 1.0);
  EXPECT_FALSE(c.needs_end_event);  // permanent: no end event
  EXPECT_TRUE(inj.edge_closed(0));

  inj.apply(1, 2.0);
  inj.apply(2, 3.0);
  EXPECT_TRUE(inj.withholding(2, 3.5));
  EXPECT_EQ(inj.withhold_until(2), 5.0);  // max of the two spells
  EXPECT_FALSE(inj.withholding(2, 5.0));  // self-expired

  // bind() resets everything for the next run.
  inj.bind(g);
  EXPECT_FALSE(inj.edge_closed(0));
  EXPECT_FALSE(inj.withholding(2, 3.5));
}

TEST(FaultInjector, PackEndRoundTrips) {
  const std::uint64_t w =
      FaultInjector::pack_end(FaultKind::kProbeStale, 0xabcdefu);
  EXPECT_EQ(FaultInjector::unpack_end_kind(w), FaultKind::kProbeStale);
  EXPECT_EQ(FaultInjector::unpack_end_target(w), 0xabcdefu);
}

TEST(FaultInjector, PathBlockedSemantics) {
  // line-4: 0 -1- 2 -3 with edges 0,1,2; forward arcs 0,2,4.
  const graph::Graph g = graph::topology::make_line(4);
  const graph::Path path{0,
                         {graph::forward_arc(0), graph::forward_arc(1),
                          graph::forward_arc(2)}};
  FaultPlan plan;
  plan.add({1.0, FaultKind::kNodeDown, 1, 2.0});  // intermediate hop
  plan.add({1.0, FaultKind::kNodeDown, 0, 2.0});  // the source itself
  plan.add({1.0, FaultKind::kNodeDown, 3, 2.0});  // the destination
  plan.add({1.0, FaultKind::kChannelClose, 1, 0.0});
  FaultInjector inj(plan);

  inj.bind(g);
  EXPECT_FALSE(inj.path_blocked(path, g));
  inj.apply(0, 1.0);  // intermediate node down
  EXPECT_TRUE(inj.path_blocked(path, g));

  inj.bind(g);
  inj.apply(1, 1.0);  // source down: the originator's problem, not the
  EXPECT_FALSE(inj.path_blocked(path, g));  // path's

  inj.bind(g);
  inj.apply(2, 1.0);  // destination down
  EXPECT_TRUE(inj.path_blocked(path, g));

  inj.bind(g);
  inj.apply(3, 1.0);  // middle channel closed
  EXPECT_TRUE(inj.path_blocked(path, g));
}

// ---------------------------------------------------------------------
// Empty-plan byte-identity: an injector with no events must leave both
// simulators bit-for-bit identical to runs without the subsystem.
// ---------------------------------------------------------------------

sim::Metrics run_packet(const graph::Graph& g, FaultInjector* inj) {
  sim::PacketSimConfig cfg;
  cfg.end_time = 40.0;
  cfg.seed = 3;
  cfg.cc_mode = sim::CongestionControlMode::kFailureWindow;
  cfg.collect_series = true;
  cfg.faults = inj;
  sim::PacketSimulator sim(
      g, std::vector<Amount>(g.edge_count(), from_units(50)), cfg);
  core::PaymentRequest req;
  for (core::NodeId v = 0; v < 8; ++v) {
    req.src = v;
    req.dst = (v + 3) % 8;
    req.amount = from_units(30);
    req.arrival = 0.5 * static_cast<double>(v);
    req.deadline = req.arrival + 20.0;
    sim.submit(req);
  }
  return sim.run();
}

TEST(FaultDifferential, EmptyPlanPacketSimIsByteIdentical) {
  const graph::Graph g = graph::topology::make_ring(8);
  const sim::Metrics without = run_packet(g, nullptr);
  FaultInjector empty;
  const sim::Metrics with_empty = run_packet(g, &empty);
  EXPECT_EQ(without, with_empty);
  EXPECT_EQ(with_empty.fault_events_applied, 0u);
}

sim::Metrics run_flow(const graph::Graph& g, FaultInjector* inj) {
  schemes::WaterfillingScheme scheme;
  sim::FlowSimConfig cfg;
  cfg.end_time = 30.0;
  cfg.collect_series = true;
  cfg.faults = inj;
  sim::FlowSimulator fs(
      g, std::vector<Amount>(g.edge_count(), from_units(40)), scheme, cfg);
  core::PaymentRequest req;
  for (core::NodeId v = 0; v < 6; ++v) {
    req.src = v;
    req.dst = (v + 2) % 6;
    req.amount = from_units(25);
    req.arrival = 0.4 * static_cast<double>(v);
    fs.add_payment(req);
  }
  return fs.run(fluid::PaymentGraph(g.node_count()));
}

TEST(FaultDifferential, EmptyPlanFlowSimIsByteIdentical) {
  const graph::Graph g = graph::topology::make_ring(6);
  const sim::Metrics without = run_flow(g, nullptr);
  FaultInjector empty;
  const sim::Metrics with_empty = run_flow(g, &empty);
  EXPECT_EQ(without, with_empty);
  EXPECT_EQ(with_empty.fault_events_applied, 0u);
}

// The published-table path: a fig6-style tiny trial with an all-zero
// fault profile (non-empty spec, empty generated plan) must reproduce
// the no-subsystem metrics bit for bit -- pinning the exact grid the CI
// smoke job runs, like the auditor's differential test.
TEST(FaultDifferential, Fig6TinyTrialWithQuietProfileIsBitIdentical) {
  exp::TrialSpec spec;
  spec.scheme = "spider-waterfilling";
  spec.topology = "ring-8";
  spec.workload = "isp";
  spec.txns = 400;
  spec.end_time = 30.0;
  spec.capacity_units = 200.0;

  const exp::TrialResult plain = exp::run_trial(spec);
  spec.faults = "churn=0;close=0;withhold=0;stale=0";
  const exp::TrialResult quiet = exp::run_trial(spec);
  EXPECT_GT(plain.metrics.attempted, 0u);
  EXPECT_EQ(plain.metrics, quiet.metrics);
}

TEST(FaultDifferential, FaultyTrialIsDeterministicAndDegrades) {
  exp::TrialSpec spec;
  spec.scheme = "spider-waterfilling";
  spec.topology = "ring-8";
  spec.workload = "isp";
  spec.txns = 400;
  spec.end_time = 30.0;
  spec.capacity_units = 200.0;
  const exp::TrialResult plain = exp::run_trial(spec);

  spec.faults = "churn=0.2;downtime=4;close=0.02;seed=17";
  spec.audit = true;  // the degradation machinery must keep funds sound
  const exp::TrialResult a = exp::run_trial(spec);
  const exp::TrialResult b = exp::run_trial(spec);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_GT(a.metrics.fault_events_applied, 0u);
  EXPECT_GT(a.metrics.fault_node_downs, 0u);
  // Faults hurt, they never help: delivered volume cannot exceed the
  // fault-free run's.
  EXPECT_LE(a.metrics.delivered_volume, plain.metrics.delivered_volume);
}

// ---------------------------------------------------------------------
// Degradation machinery, one fault kind at a time.
// ---------------------------------------------------------------------

// Regression for the sweep-expiry hazard: failing (or launching) a unit
// whose source is down must abandon it at the host, never enqueue it at
// the dead router. Before the launch guard, the unit would sit in the
// down node's queue and block the head of the queue after recovery.
TEST(FaultDegradation, DownSourceAbandonsLaunchesInsteadOfQueueing) {
  const graph::Graph g = graph::topology::make_line(3);
  FaultPlan plan;
  plan.add({0.5, FaultKind::kNodeDown, 0, 10.0});  // source down [0.5, 10.5)
  FaultInjector inj(plan);

  sim::AuditConfig acfg;
  acfg.check_every_events = 1;
  acfg.throw_on_violation = true;
  sim::InvariantAuditor auditor(acfg);

  sim::PacketSimConfig cfg;
  cfg.end_time = 20.0;
  cfg.faults = &inj;
  cfg.auditor = &auditor;
  sim::PacketSimulator sim(
      g, std::vector<Amount>(g.edge_count(), from_units(50)), cfg);
  core::PaymentRequest req;
  req.src = 0;
  req.dst = 2;
  req.amount = from_units(20);
  req.arrival = 1.0;  // launches while the source is down
  req.deadline = 15.0;
  sim.submit(req);
  const sim::Metrics m = sim.run();
  EXPECT_GT(m.fault_units_failed, 0u);
  EXPECT_EQ(m.succeeded, 0u);
  EXPECT_EQ(sim.queued_units(), 0u);  // nothing stranded in a dead queue
  EXPECT_TRUE(auditor.ok()) << auditor.summary();
}

TEST(FaultDegradation, MidRunChannelCloseFailsCrossingUnitsAndConserves) {
  const graph::Graph g = graph::topology::make_ring(4);
  FaultPlan plan;
  plan.add({2.0, FaultKind::kChannelClose, 0, 0.0});
  FaultInjector inj(plan);

  sim::AuditConfig acfg;
  acfg.check_every_events = 1;
  acfg.throw_on_violation = true;
  sim::InvariantAuditor auditor(acfg);

  sim::PacketSimConfig cfg;
  cfg.end_time = 30.0;
  cfg.faults = &inj;
  cfg.auditor = &auditor;
  sim::PacketSimulator sim(
      g, std::vector<Amount>(g.edge_count(), from_units(40)), cfg);
  core::PaymentRequest req;
  for (core::NodeId v = 0; v < 4; ++v) {
    req.src = v;
    req.dst = (v + 2) % 4;
    req.amount = from_units(30);
    req.arrival = 0.25 * static_cast<double>(v);
    req.deadline = req.arrival + 20.0;
    sim.submit(req);
  }
  const sim::Metrics m = sim.run();
  EXPECT_EQ(m.fault_channel_closures, 1u);
  EXPECT_TRUE(auditor.ok()) << auditor.summary();
}

TEST(FaultDegradation, WithholdingDelaysFlowCompletionPastDelta) {
  const graph::Graph g = graph::topology::make_line(2);
  FaultPlan plan;
  plan.add({0.5, FaultKind::kWithhold, 1, 6.0});  // dst withholds [0.5,6.5)
  FaultInjector inj(plan);

  schemes::ShortestPathScheme scheme;
  sim::FlowSimConfig cfg;
  cfg.end_time = 20.0;
  cfg.faults = &inj;
  sim::FlowSimulator fs(g, std::vector<Amount>(1, from_units(100)), scheme,
                        cfg);
  core::PaymentRequest req;
  req.src = 0;
  req.dst = 1;
  req.amount = from_units(10);
  req.arrival = 1.0;
  fs.add_payment(req);
  const sim::Metrics m = fs.run(fluid::PaymentGraph(g.node_count()));
  EXPECT_EQ(m.succeeded, 1u);
  EXPECT_GE(m.fault_withheld_acks, 1u);
  // Settled only once the spell expired at t=6.5: latency spans it.
  EXPECT_GE(m.mean_completion_latency(), 5.0);
}

TEST(FaultDegradation, StaleProbesAreCountedAndClear) {
  exp::TrialSpec spec;
  spec.scheme = "spider-waterfilling";
  spec.topology = "ring-8";
  spec.txns = 400;
  spec.end_time = 30.0;
  spec.capacity_units = 200.0;
  spec.audit = true;
  spec.faults = "stale=0.2;staledur=3;seed=5";
  const exp::TrialResult r = exp::run_trial(spec);
  EXPECT_GT(r.metrics.fault_stale_spells, 0u);
  EXPECT_GT(r.metrics.fault_stale_decisions, 0u);
  EXPECT_GT(r.metrics.succeeded, 0u);  // stale signals degrade, not halt
}

TEST(FaultDegradation, DownEndpointsBackOffExponentially) {
  const graph::Graph g = graph::topology::make_line(2);
  FaultPlan plan;
  plan.add({0.5, FaultKind::kNodeDown, 1, 8.0});  // dst down [0.5, 8.5)
  FaultInjector inj(plan);

  schemes::ShortestPathScheme scheme;
  sim::FlowSimConfig cfg;
  cfg.end_time = 30.0;
  cfg.faults = &inj;
  sim::FlowSimulator fs(g, std::vector<Amount>(1, from_units(100)), scheme,
                        cfg);
  core::PaymentRequest req;
  req.src = 0;
  req.dst = 1;
  req.amount = from_units(10);
  req.arrival = 1.0;
  fs.add_payment(req);
  const sim::Metrics m = fs.run(fluid::PaymentGraph(g.node_count()));
  // The payment eventually completes after the downtime window ends at
  // t=8.5 (latency spans the outage)...
  EXPECT_EQ(m.succeeded, 1u);
  EXPECT_GE(m.mean_completion_latency(), 7.0);
  // ...and the outage was spent deferring in backoff, not attempting:
  // the deferral counter is exercised on every poll that lands inside
  // a backoff window.
  EXPECT_GT(m.fault_backoff_retries, 0u);
}

// ---------------------------------------------------------------------
// Report plumbing: the fault counters survive both serializations.
// ---------------------------------------------------------------------

TEST(FaultReport, CountersRoundTripThroughJsonAndCsv) {
  exp::TrialSpec spec;
  spec.scheme = "shortest-path";
  spec.topology = "ring-8";
  spec.txns = 300;
  spec.end_time = 20.0;
  spec.capacity_units = 200.0;
  spec.faults = "churn=0.3;downtime=3;withhold=0.3;hold=1;seed=3";
  const sim::Metrics m = exp::run_trial(spec).metrics;
  ASSERT_GT(m.fault_events_applied, 0u);

  const sim::Metrics from_json =
      exp::report::metrics_from_json(exp::report::metrics_to_json(m));
  EXPECT_EQ(m, from_json);

  // The CSV row carries every counter but not the latency histogram the
  // derived percentiles come from; lend it back and compare whole rows.
  const std::string row = exp::report::metrics_csv_row(m);
  sim::Metrics from_csv = exp::report::metrics_from_csv_row(row);
  from_csv.latency_hist = m.latency_hist;
  EXPECT_EQ(exp::report::metrics_csv_row(from_csv), row);
}

}  // namespace
}  // namespace spider::faults
