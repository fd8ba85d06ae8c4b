// End-to-end integration: a miniature version of the paper's §6
// evaluation. Runs every scheme over the same ISP-topology workload and
// checks the qualitative ordering the paper reports, plus global fund
// conservation. (Small trace => generous tolerances; the full-size runs
// live in bench/.)

#include <gtest/gtest.h>

#include <map>

#include "graph/topology.hpp"
#include "schemes/schemes.hpp"
#include "sim/flow_sim.hpp"
#include "workload/workload.hpp"

namespace spider {
namespace {

using core::Amount;
using core::from_units;

struct RunResult {
  sim::Metrics metrics;
  bool conserved = false;
};

RunResult run_scheme(const std::string& name, const graph::Graph& g,
                     const workload::Trace& trace,
                     const fluid::PaymentGraph& demand, double cap_units,
                     double end_time) {
  const auto scheme = schemes::make_scheme(name);
  sim::FlowSimConfig cfg;
  cfg.end_time = end_time;
  cfg.delta = 0.5;
  cfg.poll_interval = 0.2;
  sim::FlowSimulator fs(
      g, std::vector<Amount>(g.edge_count(), from_units(cap_units)), *scheme,
      cfg);
  for (const core::PaymentRequest& req : trace) fs.add_payment(req);
  RunResult r;
  r.metrics = fs.run(demand);
  r.conserved = fs.network().conserves_funds();
  return r;
}

class EvaluationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph_ = new graph::Graph(graph::topology::make_isp32());
    trace_ = new workload::Trace(
        workload::generate_trace(*graph_, workload::isp_workload(4000, 40.0,
                                                                 11)));
    demand_ = new fluid::PaymentGraph(
        workload::estimate_demand(graph_->node_count(), *trace_, 40.0));
    for (const std::string& name : schemes::all_scheme_names()) {
      (*results_)[name] =
          run_scheme(name, *graph_, *trace_, *demand_, 2000.0, 40.0);
    }
  }
  static void TearDownTestSuite() {
    delete graph_;
    delete trace_;
    delete demand_;
    results_->clear();
  }

  static graph::Graph* graph_;
  static workload::Trace* trace_;
  static fluid::PaymentGraph* demand_;
  static std::map<std::string, RunResult>* results_;
};

graph::Graph* EvaluationTest::graph_ = nullptr;
workload::Trace* EvaluationTest::trace_ = nullptr;
fluid::PaymentGraph* EvaluationTest::demand_ = nullptr;
std::map<std::string, RunResult>* EvaluationTest::results_ =
    new std::map<std::string, RunResult>();

TEST_F(EvaluationTest, EverySchemeConservesFundsAndDeliversSomething) {
  for (const auto& [name, r] : *results_) {
    EXPECT_TRUE(r.conserved) << name;
    EXPECT_EQ(r.metrics.attempted, 4000u) << name;
    EXPECT_GT(r.metrics.succeeded, 0u) << name;
    EXPECT_GT(r.metrics.success_volume(), 0.0) << name;
    EXPECT_LE(r.metrics.success_volume(), 1.0) << name;
    EXPECT_LE(r.metrics.succeeded + r.metrics.partial + r.metrics.failed,
              r.metrics.attempted)
        << name;
  }
}

TEST_F(EvaluationTest, PacketSwitchedSchemesBeatAtomicBaselines) {
  // Paper Fig. 6: even shortest-path with SRPT retries beats the atomic
  // embedding/landmark baselines on success ratio.
  const double sp = (*results_)["shortest-path"].metrics.success_ratio();
  const double sm = (*results_)["speedy-murmurs"].metrics.success_ratio();
  const double sw = (*results_)["silent-whispers"].metrics.success_ratio();
  EXPECT_GT(sp, sm);
  EXPECT_GT(sp, sw);
}

TEST_F(EvaluationTest, SpiderWaterfillingNearMaxFlow) {
  // Paper Fig. 6: Spider (Waterfilling) within ~5% of max-flow despite
  // using only 4 paths. Allow a wider band on this small trace.
  const double wf =
      (*results_)["spider-waterfilling"].metrics.success_ratio();
  const double mf = (*results_)["max-flow"].metrics.success_ratio();
  EXPECT_GT(wf, mf - 0.10);
  // And Spider beats the prior path-discovery approaches.
  EXPECT_GT(wf, (*results_)["speedy-murmurs"].metrics.success_ratio());
  EXPECT_GT(wf, (*results_)["silent-whispers"].metrics.success_ratio());
}

TEST_F(EvaluationTest, SpiderLpOnlyServesNonStarvedPairs) {
  const auto& lp = (*results_)["spider-lp"].metrics;
  // LP starves zero-rate pairs, so it completes fewer payments than
  // waterfilling but still moves a meaningful volume.
  EXPECT_GT(lp.success_volume(), 0.05);
  EXPECT_LE(lp.success_ratio(),
            (*results_)["spider-waterfilling"].metrics.success_ratio());
}

}  // namespace
}  // namespace spider
