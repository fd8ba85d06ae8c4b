// Byte-level golden of the flow simulator's retry loop. Each case runs a
// small isp32 trace through sim::FlowSimulator and pins the FNV-1a hash
// of the full metrics JSON (exp::report::metrics_to_json), so any change
// to which payment is retried when -- batch membership and order,
// per-poll budget use, attempt rounds, what a scheme answers on a retry
// -- shows up as a different hash. The hashes were recorded with the
// binary-heap retry queue and no route() memo; the sorted retry run and
// the dry-pair memo must reproduce them exactly.
//
// Cases: five non-atomic schemes under all four retry policies; SRPT
// with an unbounded (0) and a binding per-poll budget; on-chain
// rebalancing; a non-zero fee policy with per-payment fee budgets; and
// two fault profiles (staleness spikes, closures, churn, withholding).

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/report.hpp"
#include "exp/sweep.hpp"
#include "faults/fault_profile.hpp"
#include "faults/injector.hpp"
#include "schemes/schemes.hpp"
#include "sim/audit.hpp"
#include "sim/flow_sim.hpp"
#include "workload/workload.hpp"

namespace {

using namespace spider;

constexpr double kEndTime = 30.0;
/// The CI sanitizer job's fault profile. Over 30 s it draws staleness
/// spikes only, so a denser profile covers closures, churn and
/// withholding too.
constexpr const char* kFaults =
    "stale=0.3;staledur=3;close=0.02;churn=0.05;downtime=5;withhold=0.02;"
    "seed=11";
constexpr const char* kDenseFaults =
    "stale=0.2;staledur=2;close=0.3;churn=0.3;downtime=3;withhold=0.3;"
    "hold=2;seed=5";

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

struct Case {
  const char* scheme;
  const char* variant;  // see configure()
  std::uint64_t hash;
};

/// Applies a named variant to the config and trace of one case.
void configure(const std::string& variant, sim::FlowSimConfig& cfg,
               workload::Trace& trace) {
  cfg.max_retries_per_poll = 2000;
  if (variant == "srpt") {
    cfg.retry_policy = core::SchedulingPolicy::kSrpt;
  } else if (variant == "fifo") {
    cfg.retry_policy = core::SchedulingPolicy::kFifo;
  } else if (variant == "lifo") {
    cfg.retry_policy = core::SchedulingPolicy::kLifo;
  } else if (variant == "edf") {
    // Spread deadlines so EDF order differs from arrival order and some
    // payments expire while queued.
    cfg.retry_policy = core::SchedulingPolicy::kEdf;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      trace[i].deadline =
          trace[i].arrival + 4.0 + 3.0 * static_cast<double>(i % 5);
    }
  } else if (variant == "budget0") {
    cfg.max_retries_per_poll = 0;
  } else if (variant == "budget7") {
    cfg.max_retries_per_poll = 7;
  } else if (variant == "rebalance") {
    cfg.enable_rebalancing = true;
    cfg.rebalance_interval = 2.0;
  } else if (variant == "fees") {
    cfg.fee_policy = core::FeePolicy{core::from_units(0.05), 5000};
    for (std::size_t i = 0; i < trace.size(); i += 2) {
      trace[i].max_fee = trace[i].amount / 200;
    }
  } else if (variant != "faults" && variant != "dense-faults") {
    throw std::invalid_argument("unknown variant " + variant);
  }
}

std::uint64_t run_case(const Case& c) {
  const graph::Graph g = exp::make_named_topology("isp32");
  workload::Trace trace = workload::generate_trace(
      g, workload::isp_workload(1500, kEndTime, exp::derive_seed(44, 0)));
  sim::FlowSimConfig cfg;
  cfg.end_time = kEndTime;
  configure(c.variant, cfg, trace);
  faults::FaultInjector injector;
  const std::string variant = c.variant;
  if (variant == "faults" || variant == "dense-faults") {
    faults::FaultProfile profile =
        faults::parse_profile(variant == "faults" ? kFaults : kDenseFaults);
    profile.horizon = kEndTime;
    injector = faults::FaultInjector(faults::generate_plan(profile, g));
    cfg.faults = &injector;
  }
  // The auditor is observation-only; it also checks that the retry
  // queue's size matches the payments flagged as enqueued.
  sim::InvariantAuditor auditor;
  cfg.auditor = &auditor;
  const auto scheme = schemes::make_scheme(c.scheme);
  sim::FlowSimulator fs(
      g, std::vector<core::Amount>(g.edge_count(), core::from_units(400.0)),
      *scheme, cfg);
  for (const core::PaymentRequest& req : trace) fs.add_payment(req);
  // Spider (LP) solves its dense simplex over the estimate's pairs; an
  // estimate from the first 100 payments keeps that solve small.
  const workload::Trace head(trace.begin(), trace.begin() + 100);
  const sim::Metrics m =
      fs.run(workload::estimate_demand(g.node_count(), head, kEndTime));
  EXPECT_TRUE(auditor.ok()) << auditor.summary();
  EXPECT_GT(m.total_attempt_rounds, m.attempted);  // retries happened
  if (cfg.faults != nullptr) EXPECT_GT(m.fault_stale_spells, 0u);
  if (variant == "dense-faults") {
    EXPECT_GT(m.fault_node_downs, 0u);
    EXPECT_GT(m.fault_channel_closures, 0u);
    EXPECT_GT(m.fault_withhold_spells, 0u);
  }
  return fnv1a(exp::report::metrics_to_json(m).dump());
}

const Case kCases[] = {
    {"shortest-path", "srpt", 3080484545521228892ull},
    {"shortest-path", "fifo", 16078058839574945801ull},
    {"shortest-path", "lifo", 10617796696589482651ull},
    {"shortest-path", "edf", 18192295371329426072ull},
    {"spider-waterfilling", "srpt", 10767529926760264141ull},
    {"spider-waterfilling", "fifo", 18270017486612255181ull},
    {"spider-waterfilling", "lifo", 3263803749851446535ull},
    {"spider-waterfilling", "edf", 5507438432242964635ull},
    {"spider-lp", "srpt", 14745056001510409520ull},
    {"spider-lp", "fifo", 2195009815784469600ull},
    {"spider-lp", "lifo", 101403306792292571ull},
    {"spider-lp", "edf", 18159658817428695964ull},
    {"spider-primal-dual", "srpt", 17308394585197160343ull},
    {"spider-primal-dual", "fifo", 14232022508673096859ull},
    {"spider-primal-dual", "lifo", 8649091692285391250ull},
    {"spider-primal-dual", "edf", 6423112819891628455ull},
    {"spider-waterfilling-stale", "srpt", 17258991427927927810ull},
    {"spider-waterfilling-stale", "fifo", 4252042427888815564ull},
    {"spider-waterfilling-stale", "lifo", 15911975118588227395ull},
    {"spider-waterfilling-stale", "edf", 11234307807714718635ull},
    {"shortest-path", "budget0", 3080484545521228892ull},
    {"spider-waterfilling", "budget0", 10767529926760264141ull},
    {"shortest-path", "budget7", 7618876328474166620ull},
    {"spider-waterfilling", "budget7", 6359239457065738775ull},
    {"spider-lp", "budget7", 2705260353684013452ull},
    {"shortest-path", "rebalance", 6248850521467688946ull},
    {"spider-waterfilling", "rebalance", 12031007934590137774ull},
    {"spider-lp", "rebalance", 1758028617572463294ull},
    {"shortest-path", "fees", 17992259938969573003ull},
    {"spider-waterfilling", "fees", 4959060328418827542ull},
    {"spider-primal-dual", "fees", 12090485006471718747ull},
    {"shortest-path", "faults", 8797700147255084218ull},
    {"spider-waterfilling", "faults", 6339061747045930738ull},
    {"spider-lp", "faults", 13592711911425723040ull},
    {"spider-primal-dual", "faults", 2360325333384545077ull},
    {"spider-waterfilling-stale", "faults", 14289764255186863744ull},
    {"shortest-path", "dense-faults", 14760747492245334006ull},
    {"spider-waterfilling", "dense-faults", 14293912220802334887ull},
    {"spider-lp", "dense-faults", 17834657853387822855ull},
    {"spider-primal-dual", "dense-faults", 1063488432907770813ull},
    {"spider-waterfilling-stale", "dense-faults", 18410205352204761662ull},
};

TEST(FlowGolden, RetryLoopMetricsAreByteIdentical) {
  for (const Case& c : kCases) {
    SCOPED_TRACE(std::string(c.scheme) + " / " + c.variant);
    EXPECT_EQ(run_case(c), c.hash);
  }
}

}  // namespace
