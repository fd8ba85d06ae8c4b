#pragma once
// Core graph substrate for the Spider payment-channel-network library.
//
// A payment channel network is an undirected multigraph whose edges
// (channels) are used in both directions. We therefore store each
// undirected edge as a pair of directed *arcs*: arc `2*e` points from
// `u(e)` to `v(e)` and arc `2*e + 1` points the other way. This is the
// classic arc-pair representation; `reverse(a) == a ^ 1` and
// `edge_of(a) == a >> 1` are O(1).

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace spider::graph {

using NodeId = std::uint32_t;
using EdgeId = std::uint32_t;
using ArcId = std::uint32_t;

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);
inline constexpr EdgeId kInvalidEdge = static_cast<EdgeId>(-1);
inline constexpr ArcId kInvalidArc = static_cast<ArcId>(-1);

/// Returns the opposite direction of arc `a` (same undirected edge).
[[nodiscard]] constexpr ArcId reverse(ArcId a) noexcept { return a ^ 1u; }

/// Returns the undirected edge that arc `a` traverses.
[[nodiscard]] constexpr EdgeId edge_of(ArcId a) noexcept { return a >> 1; }

/// Returns the forward arc (direction u(e) -> v(e)) of edge `e`.
[[nodiscard]] constexpr ArcId forward_arc(EdgeId e) noexcept { return e << 1; }

/// Returns the backward arc (direction v(e) -> u(e)) of edge `e`.
[[nodiscard]] constexpr ArcId backward_arc(EdgeId e) noexcept {
  return (e << 1) | 1u;
}

/// Endpoints of one undirected edge, as handed to the Graph constructor.
struct EdgeEnds {
  NodeId u;
  NodeId v;
};

/// Immutable undirected multigraph with O(1) arc reversal, suitable both
/// for the payment-channel data plane and for the fluid-model analysis.
///
/// Nodes and edges are dense integer ids: edge `e` is `edges[e]` of the
/// constructor. Neither can be added or removed afterwards (payment
/// channels close by having zero funds, not by leaving the topology
/// mid-simulation), so the whole graph lives in one contiguous uint32
/// compressed-sparse-row arena:
///
///   arena_ = [ offsets: n+1 | arcs: 2m | heads: 2m ]
///
/// * `offsets[u] .. offsets[u+1]` delimits node u's slice of the arcs
///   segment; `out_arcs(u)` is a span into the arena listing u's arcs in
///   edge-id order, so every traversal visits neighbours in the same
///   order (the DESIGN.md §7 byte-identity contract).
/// * `heads[a]` is the head node of arc `a`, so `head(a)` is one load and
///   `tail(a)` is `heads[a ^ 1]`.
///
/// All methods are const: build once, then share freely across threads.
class Graph {
 public:
  Graph() = default;

  /// Builds a graph with `n` nodes and one edge per entry of `edges`.
  /// Throws std::length_error (before allocating) if the arena would not
  /// fit uint32 ids, std::out_of_range for an endpoint >= `n`, and
  /// std::invalid_argument for a self-loop (a payment channel with
  /// oneself is meaningless). Parallel edges are allowed (two nodes may
  /// maintain several channels, e.g. to rebalance them one at a time,
  /// see paper §5.2.2).
  explicit Graph(std::size_t n, const std::vector<EdgeEnds>& edges = {});

  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_; }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edges_; }
  /// Number of directed arcs (always `2 * edge_count()`).
  [[nodiscard]] std::size_t arc_count() const noexcept {
    return static_cast<std::size_t>(edges_) * 2;
  }

  /// Arcs leaving node `u` (one per incident edge), in edge-id order.
  [[nodiscard]] std::span<const ArcId> out_arcs(NodeId u) const {
    assert(u < nodes_);
    const std::uint32_t begin = arena_[u];
    const std::uint32_t end = arena_[u + 1u];
    return {arena_.data() + arcs_base_ + begin, end - begin};
  }

  /// Node the arc points towards. One arena load.
  [[nodiscard]] NodeId head(ArcId a) const {
    assert(a < arc_count());
    return arena_[heads_base_ + a];
  }
  /// Node the arc points away from (head of the reverse arc).
  [[nodiscard]] NodeId tail(ArcId a) const { return head(reverse(a)); }

  /// First endpoint of edge `e` (tail of its forward arc).
  [[nodiscard]] NodeId edge_u(EdgeId e) const { return head(backward_arc(e)); }
  /// Second endpoint of edge `e` (head of its forward arc).
  [[nodiscard]] NodeId edge_v(EdgeId e) const { return head(forward_arc(e)); }

  [[nodiscard]] std::size_t degree(NodeId u) const {
    check_node(u);
    return arena_[u + 1u] - arena_[u];
  }

  /// Returns any edge between `u` and `v`, or kInvalidEdge.
  [[nodiscard]] EdgeId find_edge(NodeId u, NodeId v) const {
    check_node(u);
    check_node(v);
    for (const ArcId a : out_arcs(u)) {
      if (head(a) == v) return edge_of(a);
    }
    return kInvalidEdge;
  }

  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const {
    return find_edge(u, v) != kInvalidEdge;
  }

  /// Bytes held by the arena (the whole per-graph footprint).
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return arena_.size() * sizeof(std::uint32_t);
  }

  /// FNV-1a over the node and edge counts and the arena words: a cheap
  /// fingerprint for differential tests and the scale bench ("same
  /// topology, same layout").
  [[nodiscard]] std::uint64_t checksum() const noexcept;

 private:
  void check_node(NodeId n) const {
    if (n >= nodes_) {
      throw std::out_of_range("Graph: node id " + std::to_string(n) +
                              " out of range");
    }
  }

  std::uint32_t nodes_ = 0;
  std::uint32_t edges_ = 0;
  std::size_t arcs_base_ = 0;   // arena_ index of the arcs segment
  std::size_t heads_base_ = 0;  // arena_ index of the heads segment
  // Bases are indices rather than pointers/spans so copied and moved
  // graphs stay valid without a fixup pass.
  std::vector<std::uint32_t> arena_;
};

/// A simple path (trail) through the graph, stored as consecutive arcs.
/// The empty path (zero arcs) represents "source == destination".
struct Path {
  NodeId source = kInvalidNode;
  std::vector<ArcId> arcs;

  [[nodiscard]] std::size_t length() const noexcept { return arcs.size(); }
  [[nodiscard]] bool empty() const noexcept { return arcs.empty(); }

  /// Destination node (source if the path is empty).
  [[nodiscard]] NodeId destination(const Graph& g) const {
    return arcs.empty() ? source : g.head(arcs.back());
  }

  /// Node sequence along the path, source first.
  [[nodiscard]] std::vector<NodeId> nodes(const Graph& g) const {
    std::vector<NodeId> ns;
    ns.reserve(arcs.size() + 1);
    ns.push_back(source);
    for (const ArcId a : arcs) ns.push_back(g.head(a));
    return ns;
  }

  /// True if consecutive arcs connect and no undirected edge repeats
  /// (the paper restricts path sets to trails, §5.2.1).
  [[nodiscard]] bool valid(const Graph& g) const;

  friend bool operator==(const Path&, const Path&) = default;
};

/// Human-readable "0 -> 3 -> 7" rendering for logs and test failures.
[[nodiscard]] std::string to_string(const Path& path, const Graph& g);

/// True if an undirected path exists between every pair of nodes.
[[nodiscard]] bool is_connected(const Graph& g);

/// Nodes reachable from `start` (including `start` itself), in BFS
/// order. Throws std::out_of_range if `start` is not a node of `g`.
[[nodiscard]] std::vector<NodeId> reachable_from(const Graph& g, NodeId start);

}  // namespace spider::graph
