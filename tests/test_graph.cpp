// graph::Graph: the CSR arena built from (node count, edge list) must
// list every node's arcs in edge-id order (the byte-identity foundation
// for every differential test downstream), reject what does not fit it,
// and a reused PathFinder must return exactly what the per-call free
// functions return.

#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/paths.hpp"
#include "graph/topology.hpp"

namespace spider::graph {
namespace {

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Graph, AddNodesAndEdges) {
  const Graph g(4, {{0, 1}});
  EXPECT_EQ(g.node_count(), 4u);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.arc_count(), 2u);
  EXPECT_EQ(g.edge_u(0), 0u);
  EXPECT_EQ(g.edge_v(0), 1u);
}

TEST(Graph, IsolatedNodes) {
  const Graph g(4);
  EXPECT_EQ(g.node_count(), 4u);
  for (NodeId u = 0; u < 4; ++u) {
    EXPECT_EQ(g.degree(u), 0u);
    EXPECT_TRUE(g.out_arcs(u).empty());
  }
}

TEST(Graph, ArcHelpers) {
  const Graph g(2, {{0, 1}});
  const ArcId f = forward_arc(0);
  const ArcId b = backward_arc(0);
  EXPECT_EQ(reverse(f), b);
  EXPECT_EQ(reverse(b), f);
  EXPECT_EQ(edge_of(f), 0u);
  EXPECT_EQ(edge_of(b), 0u);
  EXPECT_EQ(g.tail(f), 0u);
  EXPECT_EQ(g.head(f), 1u);
  EXPECT_EQ(g.tail(b), 1u);
  EXPECT_EQ(g.head(b), 0u);
}

TEST(Graph, SelfLoopRejected) {
  EXPECT_THROW((void)Graph(2, {{1, 1}}), std::invalid_argument);
}

TEST(Graph, OutOfRangeNodeRejected) {
  EXPECT_THROW((void)Graph(2, {{0, 5}}), std::out_of_range);
  const Graph g(2, {{0, 1}});
  EXPECT_THROW((void)g.degree(9), std::out_of_range);
  EXPECT_THROW((void)g.find_edge(9, 0), std::out_of_range);
  EXPECT_THROW((void)g.has_edge(0, 9), std::out_of_range);
}

TEST(Graph, RejectsArenaBeyondUint32) {
  // Thrown before the arena is allocated, so no 16 GiB request is made.
  EXPECT_THROW((void)Graph(std::size_t{1} << 32), std::length_error);
  EXPECT_THROW((void)Graph(kInvalidNode), std::length_error);
}

TEST(Graph, ParallelEdgesAllowed) {
  const Graph g(2, {{0, 1}, {0, 1}});
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.out_arcs(0).size(), 2u);
}

TEST(Graph, FindEdge) {
  const Graph g(4, {{0, 1}, {1, 2}});
  EXPECT_EQ(g.find_edge(1, 2), 1u);
  EXPECT_EQ(g.find_edge(2, 1), 1u);
  EXPECT_EQ(g.find_edge(0, 3), kInvalidEdge);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(0, 2));
}

/// Checks every accessor against the edge list itself: node u's arcs
/// are its incident edges in edge-id order, forward arc when u is the
/// first endpoint.
void expect_arena_matches_edges(const Graph& g) {
  std::vector<std::vector<ArcId>> want(g.node_count());
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    want[g.edge_u(e)].push_back(forward_arc(e));
    want[g.edge_v(e)].push_back(backward_arc(e));
    EXPECT_EQ(g.tail(forward_arc(e)), g.edge_u(e));
    EXPECT_EQ(g.head(forward_arc(e)), g.edge_v(e));
  }
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const auto arcs = g.out_arcs(u);
    EXPECT_EQ(g.degree(u), want[u].size());
    ASSERT_EQ(std::vector<ArcId>(arcs.begin(), arcs.end()), want[u])
        << "node " << u;
    for (const ArcId a : arcs) EXPECT_EQ(g.tail(a), u);
  }
}

TEST(Graph, ArenaMatchesEdgeList) {
  expect_arena_matches_edges(topology::make_fig4_example());
  expect_arena_matches_edges(topology::make_isp32());
  expect_arena_matches_edges(topology::make_ripple_like(200, 13));
  expect_arena_matches_edges(Graph(3, {{2, 0}, {0, 1}, {1, 0}, {2, 1}}));
}

// ---- The arena's own guarantees (the CsrGraph suite checks what the
// frozen CSR view guaranteed before Graph became that arena) ----

TEST(CsrGraph, EmptyGraph) {
  const Graph g(0);
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_EQ(g.arc_count(), 0u);
  EXPECT_GT(g.memory_bytes(), 0u);  // the offsets sentinel
}

TEST(CsrGraph, ParallelEdgesPreserved) {
  const Graph g(2, {{0, 1}, {0, 1}});
  expect_arena_matches_edges(g);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.find_edge(0, 1), 0u);  // the first incident match
  EXPECT_EQ(g.find_edge(1, 0), 0u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
}

TEST(CsrGraph, FindEdgeMisses) {
  const Graph g(3, {{0, 1}});
  EXPECT_EQ(g.find_edge(0, 2), kInvalidEdge);
  EXPECT_EQ(g.find_edge(2, 1), kInvalidEdge);
  EXPECT_FALSE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(2, 2));
}

TEST(CsrGraph, PathHelpersWork) {
  const Graph g = topology::make_fig4_example();
  const auto p = bfs_shortest_path(g, 0, 3);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->valid(g));
  EXPECT_EQ(p->destination(g), 3u);
  const std::vector<NodeId> nodes = p->nodes(g);
  ASSERT_EQ(nodes.size(), p->arcs.size() + 1);
  EXPECT_EQ(nodes.front(), 0u);
  EXPECT_EQ(nodes.back(), 3u);
  std::string want = std::to_string(nodes.front());
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    want += " -> " + std::to_string(nodes[i]);
  }
  EXPECT_EQ(to_string(*p, g), want);
}

TEST(Graph, ChecksumFingerprintsTopology) {
  const Graph a = topology::make_isp32();
  const Graph b = topology::make_isp32();
  EXPECT_EQ(a.checksum(), b.checksum());  // same graph, same arena
  EXPECT_NE(a.checksum(), topology::make_ripple_like(100, 13).checksum());
  // Edge order is part of the layout.
  EXPECT_NE(Graph(3, {{0, 1}, {1, 2}}).checksum(),
            Graph(3, {{1, 2}, {0, 1}}).checksum());
}

TEST(Graph, CopyAndMoveKeepViewValid) {
  Graph a = topology::make_isp32();
  const std::uint64_t sum = a.checksum();
  const Graph copy = a;  // index-based bases survive copy and move
  const Graph moved = std::move(a);
  for (const Graph* g : {&copy, &moved}) {
    EXPECT_EQ(g->checksum(), sum);
    expect_arena_matches_edges(*g);
  }
}

TEST(Graph, OutArcsEnumerateNeighbours) {
  const Graph g = topology::make_star(5);
  EXPECT_EQ(g.out_arcs(0).size(), 4u);
  for (const ArcId a : g.out_arcs(0)) {
    EXPECT_EQ(g.tail(a), 0u);
    EXPECT_NE(g.head(a), 0u);
  }
}

TEST(Graph, Connectivity) {
  const Graph split(4, {{0, 1}, {2, 3}});
  EXPECT_FALSE(is_connected(split));
  EXPECT_EQ(reachable_from(split, 0).size(), 2u);
  const Graph joined(4, {{0, 1}, {2, 3}, {1, 2}});
  EXPECT_TRUE(is_connected(joined));
  EXPECT_EQ(reachable_from(joined, 0).size(), 4u);
}

TEST(Graph, ReachableFromOutOfRangeRootThrows) {
  const Graph g = topology::make_line(4);
  EXPECT_THROW((void)reachable_from(g, 7), std::out_of_range);
  EXPECT_THROW((void)reachable_from(Graph{}, 0), std::out_of_range);
}

TEST(Path, ValidAndInvalid) {
  const Graph g = topology::make_line(4);  // 0-1-2-3 edges 0,1,2
  Path p{0, {forward_arc(0), forward_arc(1), forward_arc(2)}};
  EXPECT_TRUE(p.valid(g));
  EXPECT_EQ(p.destination(g), 3u);
  EXPECT_EQ(p.nodes(g), (std::vector<NodeId>{0, 1, 2, 3}));

  Path disconnected{0, {forward_arc(0), forward_arc(2)}};
  EXPECT_FALSE(disconnected.valid(g));

  Path repeated{0, {forward_arc(0), backward_arc(0)}};
  EXPECT_FALSE(repeated.valid(g));  // repeated edge: not a trail

  Path empty{2, {}};
  EXPECT_TRUE(empty.valid(g));
  EXPECT_EQ(empty.destination(g), 2u);

  Path bad_source{99, {}};
  EXPECT_FALSE(bad_source.valid(g));

  Path bad_arc{0, {forward_arc(7)}};
  EXPECT_FALSE(bad_arc.valid(g));
}

TEST(Path, ToString) {
  const Graph g = topology::make_line(3);
  Path p{0, {forward_arc(0), forward_arc(1)}};
  EXPECT_EQ(to_string(p, g), "0 -> 1 -> 2");
}

// ---- PathFinder differentials: one reused finder vs fresh per-call
// free functions (each pays its own scratch setup) ----

class PathFinderDifferential : public ::testing::Test {
 protected:
  static void check_pair(const Graph& g, PathFinder& f, NodeId s, NodeId t) {
    const ArcWeightFn unit_w = [](ArcId) { return 1.0; };
    const ArcWeightFn var_w = [](ArcId a) {
      return 1.0 + static_cast<double>(edge_of(a) % 5);
    };
    const ArcWeightFn cap = [](ArcId a) {
      return 10.0 + static_cast<double>((a * 7) % 13);
    };
    EXPECT_EQ(bfs_shortest_path(g, s, t), f.bfs_shortest(g, s, t));
    EXPECT_EQ(dijkstra_shortest_path(g, s, t, var_w),
              f.dijkstra(g, s, t, var_w));
    EXPECT_EQ(yen_k_shortest_paths(g, s, t, 4, unit_w),
              f.yen(g, s, t, 4, unit_w));
    EXPECT_EQ(yen_k_shortest_paths(g, s, t, 3, var_w),
              f.yen(g, s, t, 3, var_w));
    EXPECT_EQ(edge_disjoint_shortest_paths(g, s, t, 4),
              f.edge_disjoint(g, s, t, 4));
    EXPECT_EQ(widest_path(g, s, t, cap), f.widest(g, s, t, cap));
    EXPECT_EQ(edge_disjoint_widest_paths(g, s, t, 3, cap),
              f.edge_disjoint_widest(g, s, t, 3, cap));
  }
};

TEST_F(PathFinderDifferential, MatchesLegacyOnIsp32) {
  const Graph g = topology::make_isp32();
  PathFinder f;  // one finder, scratch reused across every query
  for (const auto [s, t] : {std::pair<NodeId, NodeId>{0, 31},
                            {8, 20},
                            {0, 20},
                            {3, 3},
                            {15, 2},
                            {31, 0}}) {
    check_pair(g, f, s, t);
  }
}

TEST_F(PathFinderDifferential, MatchesLegacyOnRipple) {
  const Graph g = topology::make_ripple_like(300, 13);
  PathFinder f;
  for (const auto [s, t] : {std::pair<NodeId, NodeId>{0, 299},
                            {250, 10},
                            {42, 43},
                            {299, 1}}) {
    check_pair(g, f, s, t);
  }
}

TEST_F(PathFinderDifferential, ScratchSurvivesGraphSwitches) {
  // The same finder must answer correctly when hopping between graphs
  // of different sizes (buffers grow, stamps invalidate stale marks).
  const Graph small = topology::make_fig4_example();
  const Graph big = topology::make_ripple_like(400, 13);
  PathFinder f;
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(bfs_shortest_path(small, 0, 4), f.bfs_shortest(small, 0, 4));
    EXPECT_EQ(edge_disjoint_shortest_paths(big, 0, 399, 4),
              f.edge_disjoint(big, 0, 399, 4));
    EXPECT_EQ(yen_k_shortest_paths(small, 0, 3, 3), f.yen(small, 0, 3, 3));
  }
}

TEST_F(PathFinderDifferential, BlockedEdgesRespected) {
  const Graph g = topology::make_fig4_example();
  PathFinder f;
  std::vector<char> blocked(g.edge_count(), 0);
  blocked[0] = 1;  // cut 0-1: node 0 is isolated
  EXPECT_EQ(bfs_shortest_path(g, 0, 4, blocked),
            f.bfs_shortest(g, 0, 4, blocked));
  EXPECT_FALSE(f.bfs_shortest(g, 0, 4, blocked).has_value());
}

TEST_F(PathFinderDifferential, DijkstraNegativeWeightThrows) {
  const Graph g = topology::make_fig4_example();
  PathFinder f;
  const ArcWeightFn bad = [](ArcId) { return -1.0; };
  EXPECT_THROW((void)f.dijkstra(g, 0, 4, bad), std::invalid_argument);
}

}  // namespace
}  // namespace spider::graph
