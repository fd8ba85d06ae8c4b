// Harness fidelity: at small sizes, the benchmark's way of running each
// workload produces sim::Metrics equal to the library's own entry
// points. The wrapper, the precomputed path table and the window-by-
// window Service loop only observe; they must never change an outcome.

#include <gtest/gtest.h>

#include "exp/sweep.hpp"
#include "service/service.hpp"
#include "workloads.hpp"

namespace {

constexpr std::uint64_t kSeed = 3;

TEST(Fidelity, WrappedFig6TrialsMatchRunTrial) {
  const std::uint64_t wseed = perfbench::workload_seed(kSeed);
  for (const spider::exp::TrialSpec& spec :
       perfbench::fig6_trials(wseed, 600, 300)) {
    for (const bool time_routes : {false, true}) {
      perfbench::SchemeStats stats;
      const spider::sim::Metrics wrapped =
          perfbench::run_flow_trial_wrapped(spec, stats, time_routes);
      EXPECT_EQ(wrapped, spider::exp::run_trial(spec).metrics)
          << spec.scheme << "/" << spec.topology;
      EXPECT_GT(stats.route_calls, 0u) << spec.scheme;
      EXPECT_LE(stats.route_sends, stats.route_calls);
      EXPECT_EQ(stats.route_us.count(), time_routes ? stats.route_calls : 0u);
    }
  }
}

TEST(Fidelity, PrecomputedPacketTrialsMatchLazyPaths) {
  const std::vector<spider::exp::TrialSpec> trials =
      perfbench::ripple_packet_trials(perfbench::workload_seed(kSeed), 400);
  for (const std::size_t threads : {1u, 2u}) {
    const std::vector<spider::sim::Metrics> got =
        perfbench::run_packet_trials_precomputed(trials, threads);
    ASSERT_EQ(got.size(), trials.size());
    for (std::size_t i = 0; i < trials.size(); ++i) {
      EXPECT_EQ(got[i], spider::exp::run_trial(trials[i]).metrics)
          << trials[i].scheme << " at " << threads << " threads";
    }
  }
}

TEST(Fidelity, WindowDrivenServiceMatchesOneShotFinish) {
  const spider::service::ServiceConfig cfg =
      perfbench::service_config(perfbench::workload_seed(kSeed), 30.0);
  spider::service::Service one_shot(cfg);
  const spider::sim::Metrics expected = one_shot.finish();
  EXPECT_GT(expected.attempted, 0u);
  EXPECT_EQ(perfbench::run_service_windowed(cfg), expected);
}

TEST(Harness, InterpolatedQuantileStaysInsideTheLibraryBucket) {
  spider::exp::Histogram h;
  EXPECT_EQ(perfbench::interpolated_quantile(h, 0.99), 0.0);
  h.add(2.5);
  EXPECT_EQ(perfbench::interpolated_quantile(h, 0.99), 2.5);
  for (int i = 1; i <= 1000; ++i) h.add(0.01 * i);
  double prev = 0;
  for (const double q : {0.1, 0.5, 0.9, 0.99, 1.0}) {
    const double v = perfbench::interpolated_quantile(h, q);
    EXPECT_GE(v, prev) << q;
    EXPECT_NEAR(v / h.quantile(q), 1.0, h.relative_error()) << q;
    prev = v;
  }
}

TEST(Fidelity, WorkloadSeedsDifferAndRepeat) {
  EXPECT_EQ(perfbench::workload_seed(1), perfbench::workload_seed(1));
  EXPECT_NE(perfbench::workload_seed(1), perfbench::workload_seed(2));
}

}  // namespace
