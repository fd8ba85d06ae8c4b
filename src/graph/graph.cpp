#include "graph/graph.hpp"

#include <deque>
#include <limits>
#include <unordered_set>

namespace spider::graph {

Graph::Graph(std::size_t n, const std::vector<EdgeEnds>& edges) {
  // Every offset, arc id and head must fit a uint32 arena word, with
  // kInvalidNode kept free as the "no node" sentinel.
  constexpr std::size_t kMaxWord = std::numeric_limits<std::uint32_t>::max();
  if (n >= kInvalidNode || edges.size() > kMaxWord / 2) {
    throw std::length_error("Graph: " + std::to_string(n) + " nodes / " +
                            std::to_string(edges.size()) +
                            " edges exceed the uint32 arena");
  }
  nodes_ = static_cast<std::uint32_t>(n);
  edges_ = static_cast<std::uint32_t>(edges.size());
  const std::size_t arcs = arc_count();
  arcs_base_ = n + 1;
  heads_base_ = arcs_base_ + arcs;
  arena_.assign(heads_base_ + arcs, 0);

  // Offsets: degree counts, then an exclusive prefix sum, so arena_[u]
  // starts as node u's first slot in the arcs segment.
  for (const EdgeEnds& ed : edges) {
    check_node(ed.u);
    check_node(ed.v);
    if (ed.u == ed.v) throw std::invalid_argument("Graph: self-loop edge");
    ++arena_[ed.u + 1u];
    ++arena_[ed.v + 1u];
  }
  for (std::size_t u = 0; u < n; ++u) arena_[u + 1] += arena_[u];

  // Arcs in edge-id order per node, using arena_[u] as u's write cursor;
  // afterwards arena_[u] holds u's end (= start of u + 1), so the
  // offsets shift back by one slot. Heads: direct ArcId -> node table.
  for (EdgeId e = 0; e < edges_; ++e) {
    const EdgeEnds& ed = edges[e];
    arena_[arcs_base_ + arena_[ed.u]++] = forward_arc(e);
    arena_[arcs_base_ + arena_[ed.v]++] = backward_arc(e);
    arena_[heads_base_ + forward_arc(e)] = ed.v;
    arena_[heads_base_ + backward_arc(e)] = ed.u;
  }
  for (std::size_t u = n; u-- > 1;) arena_[u] = arena_[u - 1];
  arena_[0] = 0;
}

std::uint64_t Graph::checksum() const noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  auto mix = [&h](std::uint64_t word) {
    h ^= word;
    h *= 0x100000001b3ull;  // FNV prime
  };
  mix(nodes_);
  mix(edges_);
  for (const std::uint32_t word : arena_) mix(word);
  return h;
}

bool Path::valid(const Graph& g) const {
  if (source == kInvalidNode || source >= g.node_count()) return false;
  NodeId at = source;
  // Membership-only duplicate check, never iterated.
  std::unordered_set<EdgeId> used;  // spider-lint: allow(unordered-container)
  used.reserve(arcs.size());
  for (const ArcId a : arcs) {
    if (a >= g.arc_count()) return false;
    if (g.tail(a) != at) return false;
    if (!used.insert(edge_of(a)).second) return false;  // repeated edge
    at = g.head(a);
  }
  return true;
}

std::string to_string(const Path& path, const Graph& g) {
  std::string out = std::to_string(path.source);
  for (const ArcId a : path.arcs) {
    out += " -> ";
    out += std::to_string(g.head(a));
  }
  return out;
}

std::vector<NodeId> reachable_from(const Graph& g, NodeId start) {
  if (start >= g.node_count()) {
    throw std::out_of_range("reachable_from: node id " +
                            std::to_string(start) + " out of range");
  }
  std::vector<char> seen(g.node_count(), 0);
  std::vector<NodeId> order;
  std::deque<NodeId> frontier;
  seen[start] = 1;
  frontier.push_back(start);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop_front();
    order.push_back(u);
    for (const ArcId a : g.out_arcs(u)) {
      const NodeId w = g.head(a);
      if (!seen[w]) {
        seen[w] = 1;
        frontier.push_back(w);
      }
    }
  }
  return order;
}

bool is_connected(const Graph& g) {
  if (g.node_count() == 0) return true;
  return reachable_from(g, 0).size() == g.node_count();
}

}  // namespace spider::graph
