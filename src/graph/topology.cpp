#include "graph/topology.hpp"

#include <random>
#include <set>
#include <stdexcept>
#include <utility>

namespace spider::graph::topology {

namespace {

void require(bool cond, const char* msg) {
  if (!cond) throw std::invalid_argument(msg);
}

}  // namespace

Graph make_line(std::size_t n) {
  require(n >= 1, "make_line: need n >= 1");
  std::vector<EdgeEnds> edges;
  edges.reserve(n - 1);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    edges.push_back({static_cast<NodeId>(i), static_cast<NodeId>(i + 1)});
  }
  return Graph(n, edges);
}

Graph make_ring(std::size_t n) {
  require(n >= 3, "make_ring: need n >= 3");
  std::vector<EdgeEnds> edges;
  edges.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    edges.push_back(
        {static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % n)});
  }
  return Graph(n, edges);
}

Graph make_star(std::size_t n) {
  require(n >= 2, "make_star: need n >= 2");
  std::vector<EdgeEnds> edges;
  edges.reserve(n - 1);
  for (std::size_t i = 1; i < n; ++i) {
    edges.push_back({0, static_cast<NodeId>(i)});
  }
  return Graph(n, edges);
}

Graph make_grid(std::size_t rows, std::size_t cols) {
  require(rows >= 1 && cols >= 1, "make_grid: need rows, cols >= 1");
  std::vector<EdgeEnds> edges;
  edges.reserve(rows * (cols - 1) + (rows - 1) * cols);
  auto id = [cols](std::size_t r, std::size_t c) {
    return static_cast<NodeId>(r * cols + c);
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) edges.push_back({id(r, c), id(r, c + 1)});
      if (r + 1 < rows) edges.push_back({id(r, c), id(r + 1, c)});
    }
  }
  return Graph(rows * cols, edges);
}

Graph make_complete(std::size_t n) {
  require(n >= 1, "make_complete: need n >= 1");
  std::vector<EdgeEnds> edges;
  edges.reserve(n * (n - 1) / 2);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      edges.push_back({static_cast<NodeId>(i), static_cast<NodeId>(j)});
    }
  }
  return Graph(n, edges);
}

Graph make_fig4_example() {
  return Graph(5, {{0, 1},    // paper nodes 1-2
                   {1, 2},    // 2-3
                   {2, 3},    // 3-4
                   {1, 3},    // 2-4
                   {2, 4}});  // 3-5
}

Graph make_erdos_renyi(std::size_t n, double p, std::uint64_t seed) {
  require(n >= 2, "make_erdos_renyi: need n >= 2");
  require(p > 0 && p <= 1, "make_erdos_renyi: need 0 < p <= 1");
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution coin(p);
  for (int attempt = 0; attempt < 1000; ++attempt) {
    std::vector<EdgeEnds> edges;
    edges.reserve(static_cast<std::size_t>(p * static_cast<double>(n) *
                                           static_cast<double>(n - 1) / 2));
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (coin(rng)) {
          edges.push_back({static_cast<NodeId>(i), static_cast<NodeId>(j)});
        }
      }
    }
    Graph g(n, edges);
    if (is_connected(g)) return g;
  }
  throw std::runtime_error(
      "make_erdos_renyi: failed to sample a connected graph (p too small?)");
}

Graph make_scale_free(std::size_t n, std::size_t m, std::uint64_t seed) {
  require(m >= 1, "make_scale_free: need m >= 1");
  require(n > m, "make_scale_free: need n > m");
  std::mt19937_64 rng(seed);
  // m*(m+1)/2 clique edges plus m preferential edges per later node.
  const std::size_t expected_edges = m * (m + 1) / 2 + (n - m - 1) * m;
  std::vector<EdgeEnds> edges;
  edges.reserve(expected_edges);
  // Seed clique over the first m+1 nodes.
  std::vector<NodeId> endpoint_pool;  // each node appears once per degree
  endpoint_pool.reserve(2 * expected_edges);
  for (std::size_t i = 0; i <= m; ++i) {
    for (std::size_t j = i + 1; j <= m; ++j) {
      edges.push_back({static_cast<NodeId>(i), static_cast<NodeId>(j)});
      endpoint_pool.push_back(static_cast<NodeId>(i));
      endpoint_pool.push_back(static_cast<NodeId>(j));
    }
  }
  for (std::size_t v = m + 1; v < n; ++v) {
    std::vector<NodeId> targets;
    while (targets.size() < m) {
      std::uniform_int_distribution<std::size_t> pick(
          0, endpoint_pool.size() - 1);
      const NodeId candidate = endpoint_pool[pick(rng)];
      if (candidate == static_cast<NodeId>(v)) continue;
      bool dup = false;
      for (const NodeId t : targets) dup = dup || (t == candidate);
      if (!dup) targets.push_back(candidate);
    }
    for (const NodeId t : targets) {
      edges.push_back({static_cast<NodeId>(v), t});
      endpoint_pool.push_back(static_cast<NodeId>(v));
      endpoint_pool.push_back(t);
    }
  }
  return Graph(n, edges);
}

Graph make_small_world(std::size_t n, std::size_t k, double beta,
                       std::uint64_t seed) {
  require(n >= 4, "make_small_world: need n >= 4");
  require(k >= 1 && 2 * k < n, "make_small_world: need 1 <= k < n/2");
  require(beta >= 0 && beta <= 1, "make_small_world: need 0 <= beta <= 1");
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution rewire(beta);
  std::uniform_int_distribution<std::size_t> any_node(0, n - 1);
  std::vector<EdgeEnds> edges;
  edges.reserve(n * k);
  // Both orientations of every edge so far: the duplicate check.
  std::set<std::pair<NodeId, NodeId>> present;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t off = 1; off <= k; ++off) {
      NodeId u = static_cast<NodeId>(i);
      NodeId v = static_cast<NodeId>((i + off) % n);
      if (rewire(rng)) {
        // Rewire the far endpoint to a uniform random non-duplicate node.
        for (int tries = 0; tries < 100; ++tries) {
          const auto w = static_cast<NodeId>(any_node(rng));
          if (w != u && !present.contains({u, w})) {
            v = w;
            break;
          }
        }
      }
      if (!present.contains({u, v}) && u != v) {
        edges.push_back({u, v});
        present.insert({u, v});
        present.insert({v, u});
      }
    }
  }
  return Graph(n, edges);
}

Graph make_isp32() {
  // 8 core + 24 edge routers; see header for the construction. The counts
  // are exact: 28 core-mesh + 72 multi-home + 24 ring + 24 chord-3
  // + 4 chord-6 = 152 edges over 32 nodes, matching §6.1.
  constexpr std::size_t kCores = 8;
  constexpr std::size_t kEdges = 24;
  std::vector<EdgeEnds> edges;
  edges.reserve(152);
  for (std::size_t i = 0; i < kCores; ++i) {
    for (std::size_t j = i + 1; j < kCores; ++j) {
      edges.push_back({static_cast<NodeId>(i), static_cast<NodeId>(j)});
    }
  }
  auto edge_router = [](std::size_t j) {
    return static_cast<NodeId>(kCores + j);
  };
  for (std::size_t j = 0; j < kEdges; ++j) {
    for (const std::size_t off : {std::size_t{0}, std::size_t{1},
                                  std::size_t{3}}) {
      edges.push_back(
          {edge_router(j), static_cast<NodeId>((j + off) % kCores)});
    }
  }
  for (std::size_t j = 0; j < kEdges; ++j) {
    edges.push_back({edge_router(j), edge_router((j + 1) % kEdges)});  // ring
  }
  for (std::size_t j = 0; j < kEdges; ++j) {
    edges.push_back({edge_router(j), edge_router((j + 3) % kEdges)});  // chords
  }
  for (std::size_t j = 0; j < 4; ++j) {
    edges.push_back({edge_router(j), edge_router(j + 6)});
  }
  return Graph(kCores + kEdges, edges);
}

Graph make_ripple_like(std::size_t n, std::uint64_t seed) {
  require(n >= 5, "make_ripple_like: need n >= 5");
  return make_scale_free(n, 3, seed);
}

Graph make_lightning_like(std::size_t n, std::uint64_t seed) {
  require(n >= 8, "make_lightning_like: need n >= 8");
  const Graph g = make_scale_free(n, 2, seed);
  std::vector<EdgeEnds> edges;
  edges.reserve(g.edge_count() + n / 16);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    edges.push_back({g.edge_u(e), g.edge_v(e)});
  }
  // Strengthen the hub structure: every 16th node opens a channel to one
  // of the five oldest (highest-degree) nodes, as merchants do towards
  // well-connected Lightning hubs. Each v opens at most one, so only
  // the scale-free edges can duplicate it.
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::uniform_int_distribution<NodeId> hub(0, 4);
  for (std::size_t v = 16; v < n; v += 16) {
    const NodeId h = hub(rng);
    if (!g.has_edge(static_cast<NodeId>(v), h)) {
      edges.push_back({static_cast<NodeId>(v), h});
    }
  }
  return Graph(n, edges);
}

}  // namespace spider::graph::topology
