// Sharded path precomputation: deterministic chunking, table contents
// identical to lazy per-pair computation, and byte-identical results at
// any thread count (the DESIGN.md §7 contract extended to setup work).
// Also covers the PathTable container and its consumer (PacketSimulator
// cfg.paths) plus the topology-name 'k' suffix fix.

#include <gtest/gtest.h>

#include "exp/path_precompute.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "graph/paths.hpp"
#include "graph/topology.hpp"
#include "sim/packet_sim.hpp"
#include "workload/workload.hpp"

namespace {

using namespace spider;
using graph::Graph;
using graph::NodeId;
using graph::Path;
using graph::PathTable;

std::vector<PathTable::Pair> cross_pairs(NodeId n, NodeId stride) {
  std::vector<PathTable::Pair> pairs;
  for (NodeId s = 0; s < n; s += stride) {
    for (NodeId t = 0; t < n; t += stride) {
      if (s != t) pairs.emplace_back(s, t);
    }
  }
  return pairs;
}

TEST(PathPrecomputePlan, ChunksPartitionThePairList) {
  auto plan = exp::PathPrecomputePlan::make(cross_pairs(32, 4), 10, 7);
  ASSERT_FALSE(plan.pairs.empty());
  ASSERT_FALSE(plan.chunks.empty());
  EXPECT_EQ(plan.chunk_size, 10u);
  std::size_t covered = 0;
  for (std::size_t i = 0; i < plan.chunks.size(); ++i) {
    const exp::PrecomputeChunk& c = plan.chunks[i];
    EXPECT_EQ(c.begin, covered);
    EXPECT_GT(c.end, c.begin);
    EXPECT_LE(c.end - c.begin, 10u);
    EXPECT_EQ(c.seed, exp::derive_seed(7, i));  // per-chunk derived stream
    covered = c.end;
  }
  EXPECT_EQ(covered, plan.pairs.size());
}

TEST(PathPrecomputePlan, CanonicalisesPairOrder) {
  std::vector<PathTable::Pair> shuffled = {{5, 1}, {0, 3}, {5, 1}, {2, 4}};
  auto plan = exp::PathPrecomputePlan::make(shuffled, 2, 1);
  const std::vector<PathTable::Pair> want = {{0, 3}, {2, 4}, {5, 1}};
  EXPECT_EQ(plan.pairs, want);  // sorted, deduplicated
}

TEST(PathPrecomputePlan, DefaultChunkSizeNonZero) {
  auto plan = exp::PathPrecomputePlan::make(cross_pairs(8, 2), 0, 1);
  EXPECT_GT(plan.chunk_size, 0u);
  ASSERT_EQ(plan.chunks.size(), 1u);  // few pairs fit one default chunk
  EXPECT_EQ(plan.chunks[0].end, plan.pairs.size());
}

TEST(PrecomputePaths, MatchesLazyEdgeDisjoint) {
  const Graph g = graph::topology::make_isp32();
  auto plan = exp::PathPrecomputePlan::make(cross_pairs(32, 3), 5, 1);
  const exp::Runner runner(2);
  const PathTable table = exp::precompute_paths(g, plan, 4, runner);
  EXPECT_EQ(table.pair_count(), plan.pairs.size());
  for (const auto& [s, t] : plan.pairs) {
    const auto got = table.find(s, t);
    const auto want = graph::edge_disjoint_shortest_paths(g, s, t, 4);
    ASSERT_EQ(got.size(), want.size()) << s << "->" << t;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << s << "->" << t << " path " << i;
    }
  }
}

TEST(PrecomputePaths, ByteIdenticalAtAnyThreadCount) {
  const Graph g = graph::topology::make_ripple_like(200, 13);
  auto plan = exp::PathPrecomputePlan::make(cross_pairs(200, 17), 8, 3);
  const PathTable serial =
      exp::precompute_paths(g, plan, 4, exp::Runner(1));
  const std::uint64_t want = serial.checksum();
  for (const std::size_t threads : {2u, 4u, 8u}) {
    const PathTable parallel =
        exp::precompute_paths(g, plan, 4, exp::Runner(threads));
    EXPECT_EQ(parallel.checksum(), want) << threads << " threads";
    ASSERT_EQ(parallel.pair_count(), serial.pair_count());
    ASSERT_EQ(parallel.path_count(), serial.path_count());
    for (const auto& [s, t] : plan.pairs) {
      const auto a = serial.find(s, t);
      const auto b = parallel.find(s, t);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
    }
  }
}

TEST(PathTable, MissingPairYieldsEmptyAndNoCoverage) {
  const PathTable empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(empty.find(0, 1).empty());
  EXPECT_FALSE(empty.has_pair(0, 1));

  const Graph g = graph::topology::make_fig4_example();
  auto plan = exp::PathPrecomputePlan::make({{0, 4}}, 1, 1);
  const PathTable table =
      exp::precompute_paths(g, plan, 4, exp::Runner(1));
  EXPECT_TRUE(table.has_pair(0, 4));
  EXPECT_FALSE(table.find(0, 4).empty());
  EXPECT_FALSE(table.has_pair(1, 2));  // computable but not covered
  EXPECT_TRUE(table.find(1, 2).empty());
}

TEST(PathTable, CoveredDisconnectedPairIsEmptyButPresent) {
  Graph g(3, {{0, 1}});  // node 2 is isolated
  auto plan = exp::PathPrecomputePlan::make({{0, 1}, {0, 2}}, 4, 1);
  const PathTable table =
      exp::precompute_paths(g, plan, 4, exp::Runner(1));
  EXPECT_TRUE(table.has_pair(0, 2));
  EXPECT_TRUE(table.find(0, 2).empty());
  EXPECT_EQ(table.find(0, 1).size(), 1u);
}

TEST(PacketSim, PrecomputedTableIsByteIdenticalToLazy) {
  const Graph g = graph::topology::make_isp32();
  const workload::WorkloadConfig wc = workload::isp_workload(400, 30.0, 99);
  const workload::Trace trace = workload::generate_trace(g, wc);

  std::vector<PathTable::Pair> pairs;
  for (const core::PaymentRequest& tx : trace) {
    pairs.emplace_back(tx.src, tx.dst);
  }
  auto plan = exp::PathPrecomputePlan::make(std::move(pairs), 16, 1);
  const PathTable table =
      exp::precompute_paths(g, plan, 4, exp::Runner(2));

  auto run = [&](const PathTable* warm) {
    sim::PacketSimConfig cfg;
    cfg.end_time = 30.0;
    cfg.seed = 99;
    cfg.paths = warm;
    sim::PacketSimulator ps(
        g, std::vector<core::Amount>(g.edge_count(), core::from_units(500.0)),
        cfg);
    for (const core::PaymentRequest& req : trace) ps.submit(req);
    return ps.run();
  };
  const sim::Metrics lazy = run(nullptr);
  const sim::Metrics warmed = run(&table);
  EXPECT_EQ(exp::report::metrics_to_json(lazy).dump(),
            exp::report::metrics_to_json(warmed).dump());
  EXPECT_GT(lazy.succeeded, 0u);
}

TEST(NamedTopology, KSuffixMultipliesByThousand) {
  // "lightning-1k" must be 1000 nodes -- std::stoull used to silently
  // parse "1k" as 1 and build a graph 1000x too small.
  const Graph g = exp::make_named_topology("lightning-1k");
  EXPECT_EQ(g.node_count(), 1000u);
  const Graph r = exp::make_named_topology("ripple-3774");
  EXPECT_EQ(r.node_count(), 3774u);
}

TEST(NamedTopology, RejectsMalformedSizeSuffixes) {
  EXPECT_THROW((void)exp::make_named_topology("ripple-"),
               std::invalid_argument);
  EXPECT_THROW((void)exp::make_named_topology("ripple-12x"),
               std::invalid_argument);
  EXPECT_THROW((void)exp::make_named_topology("ripple-k"),
               std::invalid_argument);
  EXPECT_THROW((void)exp::make_named_topology("ripple-1k2"),
               std::invalid_argument);
}

}  // namespace
