// Chaos property tests: ~200 seeded random fault schedules on small
// topologies, every run under the strict InvariantAuditor. The
// properties are universal, not example-based:
//   * no fault schedule can violate conservation / queue accounting
//     (auditor throws on the first violation);
//   * the same profile seed always reproduces the identical run,
//     byte for byte, in both simulators.
// Each CASE below derives its profile from the loop index, so the 200
// schedules cover aggressive churn, closures, withholding, and stale
// probes in every combination the salted generators emit.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exp/sweep.hpp"
#include "faults/fault_profile.hpp"
#include "faults/injector.hpp"
#include "graph/topology.hpp"
#include "sim/audit.hpp"
#include "sim/metrics.hpp"
#include "sim/packet_sim.hpp"
#include "workload/stream.hpp"

namespace spider {
namespace {

constexpr std::size_t kFlowSchedules = 100;
constexpr std::size_t kPacketSchedules = 100;

/// Aggressive profile spec varying by seed: every third case drops one
/// fault family so absence is fuzzed too, not just presence. The
/// adversarial families (HTLC jamming, griefing, targeted hub outages)
/// cycle on their own moduli so every background/attack combination
/// appears across the schedules.
std::string chaos_profile(std::size_t seed) {
  char spec[256];
  const double churn = (seed % 3 == 0) ? 0.0 : 0.3;
  const double close = (seed % 3 == 1) ? 0.0 : 0.04;
  const double withhold = (seed % 3 == 2) ? 0.0 : 0.3;
  const double stale = (seed % 2 == 0) ? 0.15 : 0.0;
  const double jam = (seed % 4 == 0) ? 0.0 : 0.12;
  const double jamfrac = 0.25 + 0.25 * static_cast<double>(seed % 4);
  const double grief = (seed % 5 == 0) ? 0.0 : 0.1;
  const double huboutage = (seed % 4 == 2) ? 0.12 : 0.0;
  std::snprintf(spec, sizeof spec,
                "churn=%g;downtime=2;close=%g;withhold=%g;hold=1;stale=%g;"
                "staledur=2;jam=%g;jamhold=3;jamfrac=%g;grief=%g;"
                "griefhold=2;griefhubs=3;huboutage=%g;hubdown=2;hubs=2;"
                "seed=%zu",
                churn, close, withhold, stale, jam, jamfrac, grief, huboutage,
                seed);
  return spec;
}

exp::TrialSpec chaos_flow_spec(std::size_t seed) {
  exp::TrialSpec spec;
  static const char* const kSchemes[] = {
      "spider-waterfilling", "shortest-path", "max-flow", "speedy-murmurs"};
  static const char* const kTopologies[] = {"ring-8", "line-6",
                                            "scalefree-12"};
  spec.scheme = kSchemes[seed % 4];
  spec.topology = kTopologies[seed % 3];
  spec.txns = 150;
  spec.end_time = 15.0;
  spec.capacity_units = 150.0;
  spec.workload_seed = 100 + seed;
  spec.audit = true;  // run_trial arms a throwing auditor
  spec.faults = chaos_profile(seed);
  return spec;
}

TEST(ChaosFlow, RandomScheduleskeepInvariantsUnderStrictAudit) {
  for (std::size_t seed = 0; seed < kFlowSchedules; ++seed) {
    const exp::TrialSpec spec = chaos_flow_spec(seed);
    ASSERT_NO_THROW((void)exp::run_trial(spec))
        << "schedule seed " << seed << " profile " << spec.faults;
  }
}

TEST(ChaosFlow, SameSeedIsByteIdentical) {
  for (std::size_t seed = 0; seed < 10; ++seed) {
    const exp::TrialSpec spec = chaos_flow_spec(seed);
    const sim::Metrics a = exp::run_trial(spec).metrics;
    const sim::Metrics b = exp::run_trial(spec).metrics;
    EXPECT_EQ(a, b) << "schedule seed " << seed;
  }
}

sim::Metrics run_packet_chaos(std::size_t seed) {
  const graph::Graph g = (seed % 2 == 0) ? graph::topology::make_ring(8)
                                         : graph::topology::make_line(6);
  faults::FaultProfile profile =
      faults::parse_profile(chaos_profile(seed));
  profile.horizon = 25.0;
  faults::FaultInjector injector(faults::generate_plan(profile, g));

  sim::AuditConfig acfg;
  acfg.check_every_events = 64;
  acfg.throw_on_violation = true;
  sim::InvariantAuditor auditor(acfg);

  sim::PacketSimConfig cfg;
  cfg.end_time = 25.0;
  cfg.seed = 1000 + seed;
  // Cycle all three congestion-control modes through the fault storm:
  // ungated, the failure-driven window, and spider-cc with its
  // marking/AIMD/timeout machinery (aggressive knobs so marks and
  // per-launch timeouts actually fire against the fault schedules).
  switch (seed % 3) {
    case 1:
      cfg.cc_mode = sim::CongestionControlMode::kFailureWindow;
      break;
    case 2:
      cfg.cc_mode = sim::CongestionControlMode::kSpiderCc;
      cfg.cc_initial_window = 1.0 + static_cast<double>(seed % 5);
      cfg.cc_mark_threshold = (seed % 4 == 0) ? 0.05 : 0.3;
      cfg.cc_unit_timeout = 1.0 + 0.5 * static_cast<double>(seed % 4);
      break;
    default:
      break;  // kNone: the ungated baseline
  }
  cfg.faults = &injector;
  cfg.auditor = &auditor;
  sim::PacketSimulator sim(
      g,
      std::vector<core::Amount>(g.edge_count(), core::from_units(60)),
      cfg);

  const std::size_t n = g.node_count();
  core::PaymentRequest req;
  for (std::size_t i = 0; i < 30; ++i) {
    req.src = static_cast<core::NodeId>(i % n);
    req.dst = static_cast<core::NodeId>((i % n + 1 + i % (n - 1)) % n);
    if (req.dst == req.src) req.dst = (req.src + 1) % n;
    req.amount = core::from_units(15 + 5 * static_cast<double>(i % 4));
    req.arrival = 0.3 * static_cast<double>(i);
    req.deadline = req.arrival + 12.0;
    sim.submit(req);
  }
  return sim.run();
}

TEST(ChaosPacket, RandomSchedulesKeepInvariantsUnderStrictAudit) {
  for (std::size_t seed = 0; seed < kPacketSchedules; ++seed) {
    ASSERT_NO_THROW((void)run_packet_chaos(seed))
        << "schedule seed " << seed << " profile " << chaos_profile(seed);
  }
}

TEST(ChaosPacket, SameSeedIsByteIdentical) {
  for (std::size_t seed = 0; seed < 10; ++seed) {
    const sim::Metrics a = run_packet_chaos(seed);
    const sim::Metrics b = run_packet_chaos(seed);
    EXPECT_EQ(a, b) << "schedule seed " << seed;
  }
}

/// Asserts every channel of `net` has conserved escrow and no residual
/// HTLC holds: refunds/settlements released each hold exactly once
/// (a double release would inflate a balance above the escrow; a leak
/// would leave pending != 0). `caps[e]` is the edge's total escrow.
void expect_channels_quiescent_and_conserved(
    const core::ChannelNetwork& net, const graph::Graph& g,
    const std::vector<core::Amount>& caps) {
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
    const core::Channel& ch = net.channel(e);
    EXPECT_EQ(ch.pending(core::Side::kA), 0) << "edge " << e;
    EXPECT_EQ(ch.pending(core::Side::kB), 0) << "edge " << e;
    EXPECT_EQ(ch.balance(core::Side::kA) + ch.balance(core::Side::kB), caps[e])
        << "edge " << e;
  }
}

TEST(ChaosPacket, ExpiredMultiHopUnitRefundConservesValue) {
  // A payment from node 0 to node 5 on line-6 locks four hops, then
  // starves at the last (deliberately tiny) channel, queues at node 4,
  // expires there, and refunds every upstream hold back to the sender.
  const graph::Graph g = graph::topology::make_line(6);
  std::vector<core::Amount> caps(g.edge_count(), core::from_units(100));
  caps[4] = core::from_units(4);  // 4--5 can never carry a 10-unit lock

  sim::AuditConfig acfg;
  acfg.check_every_events = 1;  // audit between every two events
  acfg.throw_on_violation = true;
  sim::InvariantAuditor auditor(acfg);

  sim::PacketSimConfig cfg;
  cfg.end_time = 20.0;
  cfg.auditor = &auditor;
  sim::PacketSimulator sim(g, caps, cfg);

  core::PaymentRequest req;
  req.src = 0;
  req.dst = 5;
  req.amount = core::from_units(10);
  req.arrival = 0.5;
  req.deadline = 5.0;  // expires long before end_time
  sim.submit(req);
  const sim::Metrics m = sim.run();

  EXPECT_EQ(m.failed, 1u);  // the unit could not be delivered
  EXPECT_EQ(sim.queued_units(), 0u);
  expect_channels_quiescent_and_conserved(sim.network(), g, caps);
}

TEST(ChaosPacket, CcTimeoutExpiryReleasesEachHoldExactlyOnce) {
  // Spider-cc per-launch timeout: units from node 0 get stuck in node
  // 3's router queue, holding locks on the three hops behind them, and
  // the expiry sweep drops them there for a retry. Each hold must
  // release exactly once -- conservation after the run plus the strict
  // auditor (every event) prove no double release and no leak.
  const graph::Graph g = graph::topology::make_line(6);
  std::vector<core::Amount> caps(g.edge_count(), core::from_units(100));
  caps[3] = core::from_units(12);  // 6 a side: a 10-unit lock never fits

  sim::AuditConfig acfg;
  acfg.check_every_events = 1;
  acfg.throw_on_violation = true;
  sim::InvariantAuditor auditor(acfg);

  sim::PacketSimConfig cfg;
  cfg.end_time = 30.0;
  cfg.cc_mode = sim::CongestionControlMode::kSpiderCc;
  cfg.cc_unit_timeout = 1.5;  // timeouts fire while queued
  cfg.auditor = &auditor;
  sim::PacketSimulator sim(g, caps, cfg);

  core::PaymentRequest req;
  for (std::size_t i = 0; i < 4; ++i) {
    req.src = 0;
    req.dst = 5;
    req.amount = core::from_units(10);
    req.arrival = 0.2 + 0.1 * static_cast<double>(i);
    req.deadline = req.arrival + 8.0;
    sim.submit(req);
  }
  const sim::Metrics m = sim.run();

  EXPECT_GT(m.cc_timeout_retries, 0u);  // queued expiries fired
  EXPECT_EQ(sim.queued_units(), 0u);
  expect_channels_quiescent_and_conserved(sim.network(), g, caps);
}

// ---------------------------------------------------------------------
// Service-mode chaos: the same fault storms against the streaming
// driver, cycling all three synthetic stream generators. The driver is
// exercised at the PacketSimulator service API so the strict throwing
// auditor rides along, and the run is advanced in seed-dependent chunks
// with periodic retirement -- chunk boundaries and retirement must
// never perturb outcomes (the pull points are a pure function of the
// event sequence).
// ---------------------------------------------------------------------

std::optional<core::PaymentRequest> pull_stream(void* ctx) {
  auto* stream = static_cast<workload::StreamGenerator*>(ctx);
  std::optional<core::PaymentRequest> req = stream->next();
  if (req.has_value()) req->deadline = req->arrival + 8.0;
  return req;
}

/// One streamed chaos run; `chunk` sets the run_service_until stride.
struct ServiceChaosResult {
  sim::Metrics metrics;
  std::uint64_t checksum = 0;
  std::uint64_t txns = 0;
};

ServiceChaosResult run_service_chaos(std::size_t seed, double chunk) {
  const graph::Graph g = (seed % 2 == 0) ? graph::topology::make_ring(8)
                                         : graph::topology::make_line(6);
  static const char* const kStreams[] = {
      "steady;rate=6;seed=%zu",
      "diurnal;rate=6;amp=0.7;period=12;seed=%zu",
      "flash;rate=4;boost=6;every=8;blen=3;seed=%zu",
  };
  char spec[96];
  std::snprintf(spec, sizeof spec, kStreams[seed % 3], 300 + seed);
  std::unique_ptr<workload::StreamGenerator> stream =
      workload::make_stream(spec, g);

  faults::FaultProfile profile = faults::parse_profile(chaos_profile(seed));
  profile.horizon = 25.0;
  faults::FaultInjector injector(faults::generate_plan(profile, g));

  sim::AuditConfig acfg;
  acfg.check_every_events = 64;
  acfg.throw_on_violation = true;
  sim::InvariantAuditor auditor(acfg);

  sim::PacketSimConfig cfg;
  cfg.end_time = 25.0;
  cfg.seed = 2000 + seed;
  if (seed % 3 == 2) cfg.cc_mode = sim::CongestionControlMode::kSpiderCc;
  cfg.faults = &injector;
  cfg.auditor = &auditor;
  sim::PacketSimulator sim(
      g,
      std::vector<core::Amount>(g.edge_count(), core::from_units(60)),
      cfg);
  sim.start_service(&pull_stream, stream.get());
  for (double t = chunk; t < 25.0; t += chunk) {
    sim.run_service_until(t);
    (void)sim.retire_resolved();
  }
  ServiceChaosResult r;
  r.metrics = sim.finish_service();
  r.checksum = sim.state_checksum();
  r.txns = sim.txns_streamed();
  return r;
}

TEST(ChaosService, StreamedSchedulesKeepInvariantsUnderStrictAudit) {
  // 100 seeded schedules x {steady, diurnal, flash} generators, all
  // under the throwing auditor.
  for (std::size_t seed = 0; seed < 100; ++seed) {
    const double chunk = 1.0 + 0.5 * static_cast<double>(seed % 5);
    ASSERT_NO_THROW((void)run_service_chaos(seed, chunk))
        << "schedule seed " << seed << " profile " << chaos_profile(seed);
  }
}

TEST(ChaosService, ChunkingNeverChangesStreamedOutcomes) {
  // Same seed, different driver strides: metrics, stream position, and
  // the canonical state checksum must all match.
  for (std::size_t seed = 0; seed < 6; ++seed) {
    const ServiceChaosResult ref = run_service_chaos(seed, 25.0);
    EXPECT_GT(ref.txns, 0u) << "seed " << seed;
    const ServiceChaosResult fine = run_service_chaos(seed, 0.7);
    EXPECT_EQ(fine.metrics, ref.metrics) << "seed " << seed;
    EXPECT_EQ(fine.checksum, ref.checksum) << "seed " << seed;
    EXPECT_EQ(fine.txns, ref.txns) << "seed " << seed;
    const ServiceChaosResult coarse = run_service_chaos(seed, 3.0);
    EXPECT_EQ(coarse.metrics, ref.metrics) << "seed " << seed;
    EXPECT_EQ(coarse.checksum, ref.checksum) << "seed " << seed;
  }
}

}  // namespace
}  // namespace spider
