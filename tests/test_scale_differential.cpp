// Differential pin of the CSR substrate against the seed build: the
// golden values below were produced by the pre-CSR adjacency-list
// implementation (same trial specs, Runner(1)) and hard-coded here.
// Every scheme family -- flow shortest-path/waterfilling/LP/primal-dual
// and the packet-backed spider-cc/packet-widest -- must reproduce them
// to the last bit, on both the isp32 and full-Ripple-style topologies,
// or the graph-substrate port changed observable behaviour.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "exp/sweep.hpp"

namespace {

using namespace spider;

struct GoldenRow {
  const char* scheme;
  const char* topology;
  std::size_t capacity;
  double success_ratio;
  double success_volume;
  double latency_p95;
};

// Seed-build output (fig6/fig7-style mini sweep, txns=600, end_time=40,
// workload_seed=derive_seed(33, seed_index)) printed at %.17g.
const GoldenRow kGolden[] = {
    {"shortest-path", "isp32", 1500, 0.73333333333333328, 0.75571516943407202,
     6.0429639023813282},
    {"spider-waterfilling", "isp32", 1500, 0.93999999999999995,
     0.95563396013209145, 1.9109529749704406},
    {"spider-lp", "isp32", 1500, 0.53000000000000003, 0.55532576069758732,
     3.9241897584845358},
    {"spider-primal-dual", "isp32", 1500, 0.57999999999999996,
     0.59958090598383396, 0.50000000000000355},
    {"spider-cc", "isp32", 1500, 0.93999999999999995, 0.95919211570775287,
     0.29427271762092821},
    {"packet-widest", "isp32", 1500, 0.94833333333333336, 0.95290156600198972,
     0.29427271762092821},
    {"shortest-path", "ripple-400", 1500, 0.70666666666666667,
     0.68451375209335497, 1.4330125702369627},
    {"spider-waterfilling", "ripple-400", 1500, 0.94833333333333336,
     0.95626115603636386, 3.9241897584845358},
    {"spider-lp", "ripple-400", 1500, 0.71999999999999997,
     0.69349977079333791, 1.0746078283213174},
    {"spider-primal-dual", "ripple-400", 1500, 0.80666666666666664,
     0.75853179477004062, 1.6548170999431815},
    {"spider-cc", "ripple-400", 1500, 0.93000000000000005,
     0.93846757755442822, 0.60429639023813286},
    {"packet-widest", "ripple-400", 1500, 0.91833333333333333,
     0.92573774979111911, 0.5232991146814947},
    {"spider-waterfilling", "isp32", 400, 0.6166666666666667,
     0.60804335966246592, 8.0584218776148173},
};

std::vector<exp::TrialSpec> golden_trials() {
  std::vector<exp::TrialSpec> trials;
  const char* schemes[] = {"shortest-path",      "spider-waterfilling",
                           "spider-lp",          "spider-primal-dual",
                           "spider-cc",          "packet-widest"};
  for (const char* topo : {"isp32", "ripple-400"}) {
    for (const char* s : schemes) {
      exp::TrialSpec t;
      t.scheme = s;
      t.topology = topo;
      t.workload =
          std::string(topo).rfind("ripple", 0) == 0 ? "ripple" : "isp";
      t.seed_index = 0;
      t.workload_seed = exp::derive_seed(33, 0);
      t.txns = 600;
      t.end_time = 40.0;
      t.capacity_units = 1500.0;
      trials.push_back(std::move(t));
    }
  }
  // fig7-style capacity point (different seed replica).
  exp::TrialSpec t;
  t.scheme = "spider-waterfilling";
  t.topology = "isp32";
  t.workload = "isp";
  t.seed_index = 1;
  t.workload_seed = exp::derive_seed(33, 1);
  t.txns = 600;
  t.end_time = 40.0;
  t.capacity_units = 400.0;
  trials.push_back(std::move(t));
  return trials;
}

TEST(ScaleDifferential, CsrSubstrateMatchesSeedBuildExactly) {
  const std::vector<exp::TrialSpec> trials = golden_trials();
  ASSERT_EQ(trials.size(), std::size(kGolden));
  const exp::Runner runner(1);
  const std::vector<exp::TrialResult> results =
      exp::run_trials(trials, runner);
  ASSERT_EQ(results.size(), std::size(kGolden));
  for (std::size_t i = 0; i < results.size(); ++i) {
    const GoldenRow& want = kGolden[i];
    const exp::TrialResult& got = results[i];
    SCOPED_TRACE(std::string(want.scheme) + " on " + want.topology +
                 " cap=" + std::to_string(want.capacity));
    ASSERT_EQ(got.spec.scheme, want.scheme);
    ASSERT_EQ(got.spec.topology, want.topology);
    ASSERT_EQ(static_cast<std::size_t>(got.spec.capacity_units),
              want.capacity);
    // Exact double equality on purpose: the CSR port claims
    // byte-identity with the seed build, not "close enough".
    EXPECT_EQ(got.metrics.success_ratio(), want.success_ratio);
    EXPECT_EQ(got.metrics.success_volume(), want.success_volume);
    EXPECT_EQ(got.metrics.latency_p95(), want.latency_p95);
  }
}

TEST(ScaleDifferential, NamedTopologyFingerprintsMatchBenchScale) {
  // BENCH_scale.json's deterministic topology fields: the CSR arena
  // layout and its FNV mix must not drift.
  struct Fingerprint {
    const char* name;
    std::size_t nodes;
    std::size_t edges;
    std::size_t bytes;
    std::uint64_t checksum;
  };
  for (const Fingerprint& want :
       {Fingerprint{"ripple-3774", 3774, 11316, 196156,
                    2520230557224508657ull},
        Fingerprint{"lightning-100k", 100000, 206224, 3699588,
                    16121751590218330925ull}}) {
    SCOPED_TRACE(want.name);
    const graph::Graph g = exp::make_named_topology(want.name);
    EXPECT_EQ(g.node_count(), want.nodes);
    EXPECT_EQ(g.edge_count(), want.edges);
    EXPECT_EQ(g.memory_bytes(), want.bytes);
    EXPECT_EQ(g.checksum(), want.checksum);
  }
}

TEST(ScaleDifferential, ThreadCountDoesNotChangeSweepResults) {
  // The same trials on a multi-threaded runner must reproduce the
  // single-threaded (and therefore seed) metrics exactly.
  std::vector<exp::TrialSpec> trials = golden_trials();
  trials.resize(4);  // keep the cross-thread re-run cheap
  const std::vector<exp::TrialResult> serial =
      exp::run_trials(trials, exp::Runner(1));
  const std::vector<exp::TrialResult> parallel =
      exp::run_trials(trials, exp::Runner(4));
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(trials[i].scheme);
    EXPECT_EQ(serial[i].metrics.success_ratio(),
              parallel[i].metrics.success_ratio());
    EXPECT_EQ(serial[i].metrics.success_volume(),
              parallel[i].metrics.success_volume());
    EXPECT_EQ(serial[i].metrics.latency_p95(),
              parallel[i].metrics.latency_p95());
  }
}

}  // namespace
