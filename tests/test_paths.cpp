#include "graph/paths.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "exp/sweep.hpp"
#include "graph/csr.hpp"
#include "graph/topology.hpp"
#include "workload/workload.hpp"

namespace spider::graph {
namespace {

ArcWeightFn unit_weight() {
  return [](ArcId) { return 1.0; };
}

TEST(BfsShortestPath, LineGraph) {
  const Graph g = topology::make_line(5);
  const auto p = bfs_shortest_path(g, 0, 4);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->length(), 4u);
  EXPECT_TRUE(p->valid(g));
  EXPECT_EQ(p->destination(g), 4u);
}

TEST(BfsShortestPath, SameSourceAndTarget) {
  const Graph g = topology::make_line(3);
  const auto p = bfs_shortest_path(g, 1, 1);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->empty());
}

TEST(BfsShortestPath, Unreachable) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_FALSE(bfs_shortest_path(g, 0, 3).has_value());
}

TEST(BfsShortestPath, BlockedEdges) {
  const Graph g = topology::make_ring(4);  // 0-1-2-3-0
  std::vector<char> blocked(g.edge_count(), 0);
  blocked[0] = 1;  // block 0-1
  const auto p = bfs_shortest_path(g, 0, 1, blocked);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->length(), 3u);  // forced the long way round
}

TEST(Dijkstra, PrefersLightPath) {
  // Triangle where the direct edge is heavy.
  Graph g(3);
  const EdgeId direct = g.add_edge(0, 2);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  auto w = [direct](ArcId a) {
    return edge_of(a) == direct ? 10.0 : 1.0;
  };
  const auto p = dijkstra_shortest_path(g, 0, 2, w);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->length(), 2u);
  EXPECT_DOUBLE_EQ(path_weight(*p, w), 2.0);
}

TEST(Dijkstra, NegativeWeightThrows) {
  const Graph g = topology::make_line(3);
  EXPECT_THROW(
      (void)dijkstra_shortest_path(g, 0, 2, [](ArcId) { return -1.0; }),
      std::invalid_argument);
}

TEST(Yen, FindsDistinctPathsInOrder) {
  const Graph g = topology::make_fig4_example();
  // From node 0 to node 3: 0-1-3 (2 hops), 0-1-2-3 (3 hops).
  const auto paths = yen_k_shortest_paths(g, 0, 3, 4);
  ASSERT_GE(paths.size(), 2u);
  EXPECT_EQ(paths[0].length(), 2u);
  EXPECT_EQ(paths[1].length(), 3u);
  std::set<std::vector<ArcId>> distinct;
  for (const Path& p : paths) {
    EXPECT_TRUE(p.valid(g)) << to_string(p, g);
    EXPECT_EQ(p.source, 0u);
    EXPECT_EQ(p.destination(g), 3u);
    EXPECT_TRUE(distinct.insert(p.arcs).second) << "duplicate path";
  }
  // Non-decreasing lengths under unit weights.
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_LE(paths[i - 1].length(), paths[i].length());
  }
}

TEST(Yen, KZeroAndUnreachable) {
  const Graph g = topology::make_line(3);
  EXPECT_TRUE(yen_k_shortest_paths(g, 0, 2, 0).empty());
  Graph h(3);
  h.add_edge(0, 1);
  EXPECT_TRUE(yen_k_shortest_paths(h, 0, 2, 3).empty());
}

TEST(EdgeDisjoint, PathsShareNoEdges) {
  const Graph g = topology::make_complete(5);
  const auto paths = edge_disjoint_shortest_paths(g, 0, 4, 4);
  EXPECT_EQ(paths.size(), 4u);  // K5 has 4 edge-disjoint 0->4 paths
  std::set<EdgeId> used;
  for (const Path& p : paths) {
    EXPECT_TRUE(p.valid(g));
    for (const ArcId a : p.arcs) {
      EXPECT_TRUE(used.insert(edge_of(a)).second)
          << "edge reused across paths";
    }
  }
  // First path is a shortest path.
  EXPECT_EQ(paths[0].length(), 1u);
}

TEST(EdgeDisjoint, LimitedByCuts) {
  const Graph g = topology::make_line(4);  // single path only
  const auto paths = edge_disjoint_shortest_paths(g, 0, 3, 4);
  EXPECT_EQ(paths.size(), 1u);
}

TEST(WidestPath, PicksHighCapacityRoute) {
  // 0-2 direct has capacity 1; 0-1-2 has capacity 5.
  Graph g(3);
  const EdgeId direct = g.add_edge(0, 2);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  auto cap = [direct](ArcId a) {
    return edge_of(a) == direct ? 1.0 : 5.0;
  };
  const auto p = widest_path(g, 0, 2, cap);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->length(), 2u);
  EXPECT_DOUBLE_EQ(path_bottleneck(*p, cap), 5.0);
}

TEST(WidestPath, TieBrokenByHops) {
  const Graph g = topology::make_ring(6);
  const auto p = widest_path(g, 0, 2, unit_weight());
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->length(), 2u);  // both directions width 1; fewer hops wins
}

TEST(WidestPath, ZeroCapacityArcsUnusable) {
  const Graph g = topology::make_line(3);
  auto cap = [](ArcId a) { return edge_of(a) == 1 ? 0.0 : 3.0; };
  EXPECT_FALSE(widest_path(g, 0, 2, cap).has_value());
}

TEST(EdgeDisjointWidest, DisjointAndOrdered) {
  const Graph g = topology::make_complete(4);
  const auto paths = edge_disjoint_widest_paths(g, 0, 3, 3, unit_weight());
  EXPECT_EQ(paths.size(), 3u);
  std::set<EdgeId> used;
  for (const Path& p : paths) {
    for (const ArcId a : p.arcs) EXPECT_TRUE(used.insert(edge_of(a)).second);
  }
}

TEST(SpanningTree, CoversAllNodes) {
  const Graph g = topology::make_isp32();
  const auto tree = bfs_spanning_tree(g);
  EXPECT_EQ(tree.size(), g.node_count() - 1);
  // A tree path exists between arbitrary nodes and stays inside the tree.
  const Path p = tree_path(g, tree, 3, 27);
  EXPECT_TRUE(p.valid(g));
  std::set<EdgeId> tset(tree.begin(), tree.end());
  for (const ArcId a : p.arcs) EXPECT_TRUE(tset.contains(edge_of(a)));
}

TEST(SpanningTree, DisconnectedThrows) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_THROW((void)bfs_spanning_tree(g), std::invalid_argument);
}

// Property sweep: on random connected graphs, Yen agrees with BFS on the
// first path length, disjoint paths are disjoint, and every returned
// path is a valid trail to the right destination.
class PathPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PathPropertyTest, RandomGraphInvariants) {
  const std::uint64_t seed = GetParam();
  const Graph g = topology::make_erdos_renyi(14, 0.3, seed);
  std::mt19937_64 rng(seed ^ 0xabcdef);
  std::uniform_int_distribution<NodeId> node(0, 13);
  for (int trial = 0; trial < 10; ++trial) {
    const NodeId s = node(rng);
    NodeId t = node(rng);
    if (s == t) continue;
    const auto bfs = bfs_shortest_path(g, s, t);
    ASSERT_TRUE(bfs.has_value());
    const auto yen = yen_k_shortest_paths(g, s, t, 5);
    ASSERT_FALSE(yen.empty());
    EXPECT_EQ(yen[0].length(), bfs->length());
    for (std::size_t i = 1; i < yen.size(); ++i) {
      EXPECT_LE(yen[i - 1].length(), yen[i].length());
      EXPECT_NE(yen[i - 1].arcs, yen[i].arcs);
    }
    const auto disjoint = edge_disjoint_shortest_paths(g, s, t, 4);
    std::set<EdgeId> used;
    for (const Path& p : disjoint) {
      EXPECT_TRUE(p.valid(g));
      EXPECT_EQ(p.source, s);
      EXPECT_EQ(p.destination(g), t);
      for (const ArcId a : p.arcs) {
        EXPECT_TRUE(used.insert(edge_of(a)).second);
      }
    }
    EXPECT_EQ(disjoint[0].length(), bfs->length());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 11, 23, 47));

// ---- bfs_shortest exactness against the forward-BFS oracle -----------
//
// The oracle is a single-direction FIFO BFS with first-discovery
// parents. Its tie-break (the lexicographically smallest shortest path
// by out-arc position) is the contract every path table, golden row and
// BENCH checksum depends on, so the bidirectional search must match it
// path for path.

template <class G>
std::optional<Path> oracle_bfs(const G& g, NodeId s, NodeId t,
                               std::span<const char> blocked) {
  if (s >= g.node_count() || t >= g.node_count()) return std::nullopt;
  if (s == t) return Path{s, {}};
  std::vector<char> seen(g.node_count(), 0);
  std::vector<ArcId> parent(g.node_count(), kInvalidArc);
  std::vector<NodeId> queue{s};
  seen[s] = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (const ArcId a : g.out_arcs(queue[head])) {
      const EdgeId e = edge_of(a);
      if (e < blocked.size() && blocked[e] != 0) continue;
      const NodeId w = g.head(a);
      if (seen[w]) continue;
      seen[w] = 1;
      parent[w] = a;
      if (w == t) {
        Path p{s, {}};
        for (NodeId at = t; at != s; at = g.tail(parent[at])) {
          p.arcs.push_back(parent[at]);
        }
        std::reverse(p.arcs.begin(), p.arcs.end());
        return p;
      }
      queue.push_back(w);
    }
  }
  return std::nullopt;
}

template <class G>
std::vector<Path> oracle_edge_disjoint(const G& g, NodeId s, NodeId t,
                                       std::size_t k) {
  std::vector<Path> result;
  std::vector<char> blocked(g.edge_count(), 0);
  while (result.size() < k) {
    auto p = oracle_bfs(g, s, t, blocked);
    if (!p) break;
    for (const ArcId a : p->arcs) blocked[edge_of(a)] = 1;
    result.push_back(std::move(*p));
  }
  return result;
}

/// Multigraph with parallel edges, isolated nodes and several
/// components (edges only join nodes of the same component).
Graph random_multigraph(std::mt19937_64& rng) {
  const std::size_t n = 1 + rng() % 40;
  const std::size_t comps = 1 + rng() % 3;
  Graph g(n);
  std::vector<std::vector<NodeId>> members(comps);  // isolated nodes: none
  for (NodeId v = 0; v < n; ++v) {
    if (rng() % 8 != 0) members[rng() % comps].push_back(v);
  }
  const std::size_t m = n + rng() % (3 * n);
  for (std::size_t i = 0; i < m; ++i) {
    const std::vector<NodeId>& c = members[rng() % comps];
    if (c.size() < 2) continue;
    const NodeId u = c[rng() % c.size()];
    const NodeId v = c[rng() % c.size()];
    if (u == v) continue;
    g.add_edge(u, v);
    if (rng() % 4 == 0) g.add_edge(v, u);  // parallel, either orientation
  }
  return g;
}

/// Empty, full-length or truncated random blocked-edge mask.
std::vector<char> random_mask(std::mt19937_64& rng, std::size_t edges) {
  const std::size_t shape = rng() % 4;
  if (shape == 0) return {};
  const std::size_t len = shape == 1 ? edges / 2 : edges;
  const unsigned density = 1 + static_cast<unsigned>(rng() % 4);
  std::vector<char> mask(len, 0);
  for (char& b : mask) b = rng() % 16 < density ? 1 : 0;
  return mask;
}

TEST(BfsExactness, RandomMultigraphsMatchForwardOracle) {
  std::mt19937_64 rng(20181115);
  PathFinder finder;  // one finder across graphs of every size
  std::size_t queries = 0;
  std::size_t multi_hop = 0;  // answers where a tie-break can matter
  for (int round = 0; round < 3000; ++round) {
    const Graph g = random_multigraph(rng);
    const CsrGraph csr(g);
    const auto n = static_cast<NodeId>(g.node_count());
    for (int q = 0; q < 12; ++q) {
      const std::vector<char> mask = random_mask(rng, g.edge_count());
      // Include out-of-range ids and s == t.
      const NodeId s = static_cast<NodeId>(rng() % (n + 2));
      const NodeId t = q % 5 == 0 ? s : static_cast<NodeId>(rng() % (n + 2));
      const auto want = oracle_bfs(g, s, t, mask);
      if (want && want->length() >= 2) ++multi_hop;
      ASSERT_EQ(finder.bfs_shortest(g, s, t, mask), want)
          << "round " << round << " s=" << s << " t=" << t;
      ASSERT_EQ(finder.bfs_shortest(csr, s, t, mask), want)
          << "round " << round << " s=" << s << " t=" << t;
      ++queries;
    }
    for (std::size_t k = 1; k <= 6; ++k) {
      const NodeId s = static_cast<NodeId>(rng() % n);
      const NodeId t = static_cast<NodeId>(rng() % n);
      const auto want = oracle_edge_disjoint(g, s, t, k);
      ASSERT_EQ(finder.edge_disjoint(g, s, t, k), want)
          << "round " << round << " k=" << k;
      ASSERT_EQ(finder.edge_disjoint(csr, s, t, k), want)
          << "round " << round << " k=" << k;
      ++queries;
    }
  }
  EXPECT_GT(queries, 50000u);
  EXPECT_GT(multi_hop, 5000u);
}

TEST(BfsExactness, Ripple3774TraceAtK4MatchesForwardOracle) {
  const Graph g = exp::make_named_topology("ripple-3774");
  const CsrGraph csr(g);
  const workload::Trace trace =
      workload::generate_trace(g, workload::ripple_workload(6000, 60.0, 1));
  ASSERT_EQ(trace.size(), 6000u);
  std::set<std::pair<NodeId, NodeId>> pairs;
  for (const workload::Transaction& tx : trace) pairs.emplace(tx.src, tx.dst);
  PathFinder finder;
  for (const auto& [s, t] : pairs) {
    ASSERT_EQ(finder.edge_disjoint(csr, s, t, 4),
              oracle_edge_disjoint(csr, s, t, 4))
        << s << " -> " << t;
  }
}

TEST(BfsExactness, Lightning100kSampleMatchesForwardOracle) {
  const Graph g = exp::make_named_topology("lightning-100k");
  const CsrGraph csr(g);
  std::mt19937_64 rng(100000);
  PathFinder finder;
  for (int i = 0; i < 40; ++i) {
    const auto s = static_cast<NodeId>(rng() % csr.node_count());
    const auto t = static_cast<NodeId>(rng() % csr.node_count());
    ASSERT_EQ(finder.edge_disjoint(csr, s, t, 4),
              oracle_edge_disjoint(csr, s, t, 4))
        << s << " -> " << t;
  }
}

}  // namespace
}  // namespace spider::graph
