#include "sim/audit.hpp"

#include <gtest/gtest.h>

#include "exp/sweep.hpp"
#include "graph/topology.hpp"
#include "schemes/schemes.hpp"
#include "sim/flow_sim.hpp"
#include "sim/packet_sim.hpp"

namespace spider::sim {
namespace {

using core::Amount;
using core::ChannelNetwork;
using core::Side;
using core::from_units;

constexpr core::Preimage kKey = 7;
const core::LockHash kLock = core::hash_preimage(kKey);

// ---------------------------------------------------------------------
// Detection: deliberately corrupted state must be reported.
// ---------------------------------------------------------------------

TEST(InvariantAuditor, DetectsCorruptedChannelBalance) {
  const graph::Graph g = graph::topology::make_line(3);
  ChannelNetwork net(g, std::vector<Amount>(2, 1000));
  InvariantAuditor auditor;
  auditor.attach_network(net);
  auditor.run_checks(0.0, 0);
  ASSERT_TRUE(auditor.ok());

  // Corrupt a balance: escrow appears out of nowhere, as an off-by-one
  // in settlement would make it. A legitimate deposit would have gone
  // through note_external_deposit.
  net.deposit(0, Side::kA, 123);
  auditor.run_checks(1.0, 10);

  ASSERT_FALSE(auditor.ok());
  ASSERT_EQ(auditor.violations().size(), 1u);
  const AuditViolation& v = auditor.violations().front();
  EXPECT_EQ(v.check, "conservation");
  EXPECT_EQ(v.time, 1.0);
  EXPECT_EQ(v.event_index, 10u);
  EXPECT_NE(v.detail.find("initial endowment"), std::string::npos);
}

TEST(InvariantAuditor, RecordedDepositIsNotAViolation) {
  const graph::Graph g = graph::topology::make_line(2);
  ChannelNetwork net(g, std::vector<Amount>(1, 1000));
  InvariantAuditor auditor;
  auditor.attach_network(net);

  net.deposit(0, Side::kB, 400);
  auditor.note_external_deposit(400);
  auditor.run_checks(1.0, 1);
  EXPECT_TRUE(auditor.ok());
}

TEST(InvariantAuditor, DetectsLeakedHtlcHold) {
  const graph::Graph g = graph::topology::make_line(3);
  ChannelNetwork net(g, std::vector<Amount>(2, 1000));
  InvariantAuditor auditor;
  auditor.attach_network(net);

  // The "simulator" tracks the value it believes is locked in flight.
  Amount claimed = 0;
  auditor.set_claimed_holds_provider([&claimed] { return claimed; });

  graph::Path p{0, {graph::forward_arc(0), graph::forward_arc(1)}};
  auto rl = net.lock_route(p, 100, kLock);
  ASSERT_TRUE(rl.has_value());
  claimed = rl->total_held;
  EXPECT_EQ(claimed, 200);  // 100 held on each of 2 hops
  auditor.run_checks(1.0, 1);
  EXPECT_TRUE(auditor.ok());

  // Leak: the simulator forgets the hold (as a unit released without
  // settling or failing its HTLCs would) while the channels still hold
  // the pending value.
  claimed = 0;
  auditor.run_checks(2.0, 2);
  ASSERT_FALSE(auditor.ok());
  EXPECT_EQ(auditor.violations().front().check, "htlc-holds");

  net.settle_route(*rl, kKey);
}

TEST(InvariantAuditor, HtlcBookMatchesPendingWithHoldsInFlight) {
  const graph::Graph g = graph::topology::make_line(3);
  ChannelNetwork net(g, std::vector<Amount>(2, 1000));
  EXPECT_EQ(audit_htlc_book(net), std::nullopt);
  graph::Path p{0, {graph::forward_arc(0), graph::forward_arc(1)}};
  const auto rl = net.lock_route(p, 100, kLock);
  ASSERT_TRUE(rl.has_value());
  const auto back = net.offer_htlc(graph::backward_arc(1), 40, kLock);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(audit_htlc_book(net), std::nullopt);
  ASSERT_TRUE(net.settle_route(*rl, kKey));
  EXPECT_EQ(audit_htlc_book(net), std::nullopt);
  ASSERT_TRUE(net.fail_htlc(graph::backward_arc(1), *back));
  EXPECT_EQ(audit_htlc_book(net), std::nullopt);
  EXPECT_EQ(net.htlc_book().live(), 0u);
}

TEST(InvariantAuditor, DetectsBackwardsTime) {
  InvariantAuditor auditor;
  auditor.run_checks(5.0, 1);
  auditor.run_checks(3.0, 2);
  ASSERT_FALSE(auditor.ok());
  EXPECT_EQ(auditor.violations().front().check, "monotone-time");
}

TEST(InvariantAuditor, CustomCheckAndThrowOnViolation) {
  AuditConfig cfg;
  cfg.throw_on_violation = true;
  InvariantAuditor auditor(cfg);
  bool broken = false;
  auditor.add_check("custom", [&broken]() -> std::optional<std::string> {
    if (broken) return "broken";
    return std::nullopt;
  });
  EXPECT_NO_THROW(auditor.run_checks(1.0, 1));
  broken = true;
  EXPECT_THROW(auditor.run_checks(2.0, 2), AuditFailure);
}

TEST(InvariantAuditor, ViolationCapBoundsMemory) {
  AuditConfig cfg;
  cfg.max_violations = 3;
  InvariantAuditor auditor(cfg);
  auditor.add_check("always", [] { return std::optional<std::string>("x"); });
  for (std::uint64_t i = 0; i < 10; ++i) {
    auditor.run_checks(static_cast<TimePoint>(i), i);
  }
  EXPECT_EQ(auditor.violations().size(), 3u);
}

// ---------------------------------------------------------------------
// Clean runs: real simulations under audit report zero violations, and
// the audit actually looked (checks_run > 0).
// ---------------------------------------------------------------------

TEST(InvariantAuditor, CleanPacketSimRunHasZeroViolations) {
  const graph::Graph g = graph::topology::make_ring(8);
  AuditConfig acfg;
  acfg.check_every_events = 16;  // aggressive cadence for coverage
  InvariantAuditor auditor(acfg);

  PacketSimConfig cfg;
  cfg.end_time = 40.0;
  cfg.seed = 3;
  cfg.cc_mode = CongestionControlMode::kFailureWindow;
  cfg.auditor = &auditor;
  PacketSimulator sim(g, std::vector<Amount>(g.edge_count(), from_units(50)),
                      cfg);
  core::PaymentRequest req;
  for (core::NodeId v = 0; v < 8; ++v) {
    req.src = v;
    req.dst = (v + 3) % 8;
    req.amount = from_units(30);
    req.arrival = 0.5 * static_cast<double>(v);
    req.deadline = req.arrival + 20.0;
    sim.submit(req);
  }
  const Metrics m = sim.run();
  EXPECT_GT(m.attempted, 0u);
  EXPECT_TRUE(auditor.ok()) << auditor.summary();
  EXPECT_TRUE(auditor.finished());
  EXPECT_GT(auditor.checks_run(), 1u);
}

TEST(InvariantAuditor, CleanFlowSimRunWithRebalancingHasZeroViolations) {
  const graph::Graph g = graph::topology::make_ring(6);
  AuditConfig acfg;
  acfg.check_every_events = 8;
  InvariantAuditor auditor(acfg);

  schemes::ShortestPathScheme scheme;
  FlowSimConfig cfg;
  cfg.end_time = 30.0;
  cfg.enable_rebalancing = true;  // exercises note_external_deposit
  cfg.rebalance_interval = 4.0;
  cfg.auditor = &auditor;
  FlowSimulator fs(g, std::vector<Amount>(g.edge_count(), from_units(40)),
                   scheme, cfg);
  core::PaymentRequest req;
  for (core::NodeId v = 0; v < 6; ++v) {
    req.src = v;
    req.dst = (v + 2) % 6;
    req.amount = from_units(25);
    req.arrival = 0.4 * static_cast<double>(v);
    fs.add_payment(req);
  }
  const Metrics m = fs.run(fluid::PaymentGraph(g.node_count()));
  EXPECT_GT(m.attempted, 0u);
  EXPECT_TRUE(auditor.ok()) << auditor.summary();
  EXPECT_GT(auditor.checks_run(), 1u);
}

// The published-table path: a fig6-style tiny sweep trial (the exact
// grid the CI smoke job runs) audits clean, and auditing does not
// change a single metric bit.
TEST(InvariantAuditor, Fig6TinySweepTrialAuditsCleanAndBitIdentical) {
  exp::TrialSpec spec;
  spec.scheme = "spider-waterfilling";
  spec.topology = "ring-8";
  spec.workload = "isp";
  spec.txns = 400;
  spec.end_time = 30.0;
  spec.capacity_units = 200.0;

  spec.audit = false;
  const exp::TrialResult plain = exp::run_trial(spec);
  spec.audit = true;
  exp::TrialResult audited;
  ASSERT_NO_THROW(audited = exp::run_trial(spec));  // zero violations
  EXPECT_GT(audited.metrics.attempted, 0u);
  EXPECT_EQ(plain.metrics, audited.metrics);
}

}  // namespace
}  // namespace spider::sim
