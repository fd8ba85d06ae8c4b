#pragma once
// Path-finding algorithms used by Spider routing and the baselines:
// BFS / Dijkstra single shortest path, Yen's k-shortest paths,
// edge-disjoint shortest paths (the paper's default path set: "4 disjoint
// shortest paths for every source-destination pair", §6.1), and
// k widest (max-bottleneck) paths for waterfilling-style selection.
//
// Every algorithm is generic over the graph view: the mutable
// adjacency-list graph::Graph and the frozen graph::CsrGraph produce
// byte-identical paths (same neighbour order, same priority-queue pop
// sequence -- pinned by the differential tests). Hot consumers hold a
// PathFinder, whose per-query scratch (stamped distance/visit arrays,
// BFS ring buffer, heap storage, blocked-edge mask with an undo list)
// is reused across queries instead of being reallocated per call; the
// free functions below are convenience wrappers that pay one scratch
// setup per call.
//
// Hop-count tie-break contract (bfs_shortest, and through it
// edge_disjoint, tree_path and every caller): among all shortest s->t
// paths, the one returned is the lexicographically smallest sequence of
// out-arc positions -- at each node it takes the earliest arc in
// `out_arcs` order that still lies on a shortest path. This is exactly
// what a forward FIFO BFS with first-discovery parents returns, and it
// is what the implementation reproduces with a bidirectional search:
// the two sides meet at distance d, a sweep back from the meeting layer
// marks the forward-side nodes on some shortest path, and a greedy walk
// from s takes the first unblocked arc whose head is one hop closer to t
// on a shortest path (DESIGN.md §10).

#include <functional>
#include <limits>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "graph/graph.hpp"

namespace spider::graph {

/// Per-arc weight function; must be >= 0 for Dijkstra-family algorithms.
using ArcWeightFn = std::function<double(ArcId)>;

/// Reusable path-query scratch. Not bound to a graph: every method
/// takes the graph view per call (so a moved PathFinder, or one shared
/// across graphs of different sizes, stays valid -- buffers grow on
/// demand). Not thread-safe; use one PathFinder per worker thread.
class PathFinder {
 public:
  /// Shortest path by hop count; nullopt if `t` is unreachable from `s`.
  /// `blocked_edges[e] != 0` removes edge `e` (both directions); the
  /// span may be empty or shorter than `edge_count()`, and edges past
  /// its end are unblocked. Ties follow the contract in the file header.
  template <class G>
  [[nodiscard]] std::optional<Path> bfs_shortest(
      const G& g, NodeId s, NodeId t, std::span<const char> blocked_edges = {});

  /// Shortest path under non-negative per-arc weights.
  template <class G>
  [[nodiscard]] std::optional<Path> dijkstra(
      const G& g, NodeId s, NodeId t, const ArcWeightFn& weight,
      std::span<const char> blocked_edges = {});

  /// Yen's algorithm: up to `k` loopless shortest paths in non-decreasing
  /// weight order. With `weight == nullptr`, hop count is used.
  template <class G>
  [[nodiscard]] std::vector<Path> yen(const G& g, NodeId s, NodeId t,
                                      std::size_t k,
                                      const ArcWeightFn& weight = nullptr);

  /// Up to `k` mutually edge-disjoint paths, chosen greedily
  /// shortest-first (each path's edges are removed before searching for
  /// the next). The paper's path-set construction (§6.1).
  template <class G>
  [[nodiscard]] std::vector<Path> edge_disjoint(const G& g, NodeId s, NodeId t,
                                                std::size_t k);

  /// Single widest (maximum-bottleneck) path under per-arc capacities,
  /// ties broken by fewer hops; nullopt if unreachable.
  template <class G>
  [[nodiscard]] std::optional<Path> widest(
      const G& g, NodeId s, NodeId t, const ArcWeightFn& capacity,
      std::span<const char> blocked_edges = {});

  /// Up to `k` edge-disjoint widest paths (greedy widest-first removal).
  template <class G>
  [[nodiscard]] std::vector<Path> edge_disjoint_widest(
      const G& g, NodeId s, NodeId t, std::size_t k,
      const ArcWeightFn& capacity);

 private:
  /// Sizes node scratch for `g` and opens a fresh stamped query.
  template <class G>
  void begin_query(const G& g);
  /// Ensures `blocked_` covers `g`'s edges and is all-zero.
  template <class G>
  void grow_blocked(const G& g);
  /// Blocks `e`, remembering it on the undo list.
  void block_edge(EdgeId e) {
    blocked_[e] = 1;
    touched_.push_back(e);
  }
  /// Unblocks everything on the undo list (cheaper than an O(E) refill).
  void unblock_all() {
    for (const EdgeId e : touched_) blocked_[e] = 0;
    touched_.clear();
  }

  template <class G>
  Path build_path(const G& g, NodeId s, NodeId t) const;

  /// One side of the bidirectional BFS in bfs_shortest.
  struct BfsSide {
    struct Reach {
      std::uint32_t stamp = 0;  // == stamp_ iff reached in this query
      std::uint32_t dist = 0;   // hops from this side's root
    };
    std::vector<Reach> reach;
    std::vector<NodeId> nodes;        // reached nodes, layer by layer
    std::size_t frontier = 0;         // index of the last layer's first node
    std::size_t frontier_degree = 0;  // out-degree sum of the last layer
    std::uint32_t depth = 0;          // distance of the last layer
  };
  template <class G>
  void bfs_seed(const G& g, BfsSide& side, NodeId root);
  /// Grows `side` by one full layer; true if the new layer touches
  /// `other`. Meeting nodes are marked in mark_ and queued on queue_.
  template <class G>
  bool bfs_expand(const G& g, BfsSide& side, const BfsSide& other,
                  std::span<const char> blocked_edges);

  // Stamped node scratch: entry v is live in the current query iff
  // mark_[v] == stamp_; begin_query bumps the stamp instead of clearing
  // the arrays (semantically identical to fresh +inf / unseen arrays).
  // bfs_shortest uses mark_ as "on a shortest path" and queue_ as the
  // sweep FIFO; its per-side marks share the same stamp.
  std::uint32_t stamp_ = 0;
  std::vector<std::uint32_t> mark_;
  std::vector<double> dist_;        // Dijkstra distance / widest width
  std::vector<std::size_t> hops_;   // widest-path hop tiebreak
  std::vector<ArcId> parent_;
  std::vector<NodeId> queue_;       // FIFO (ring-less: head index)
  BfsSide fwd_, bwd_;               // bfs_shortest sides, rooted at s, t
  std::vector<std::pair<double, NodeId>> heap_;  // Dijkstra binary heap

  struct WidestItem {
    double width;
    std::size_t hops;
    NodeId node;
    bool operator<(const WidestItem& o) const {
      if (width != o.width) return width < o.width;  // max-heap on width
      return hops > o.hops;                          // then min hops
    }
  };
  std::vector<WidestItem> wheap_;

  // Blocked-edge mask, kept all-zero between uses via the undo list.
  std::vector<char> blocked_;
  std::vector<EdgeId> touched_;

  // Yen scratch, hoisted out of the per-call/per-spur loops.
  struct Candidate {
    double cost;
    Path path;
  };
  struct CandLess {
    bool operator()(const Candidate& a, const Candidate& b) const {
      if (a.cost != b.cost) return a.cost < b.cost;
      if (a.path.arcs.size() != b.path.arcs.size())
        return a.path.arcs.size() < b.path.arcs.size();
      return a.path.arcs < b.path.arcs;
    }
  };
  std::set<Candidate, CandLess> cand_;
  std::set<std::vector<ArcId>> known_;
  std::vector<NodeId> prev_nodes_;
};

/// Shortest path by hop count; nullopt if `t` is unreachable from `s`.
/// `blocked_edges[e] != 0` removes edge `e` (both directions).
[[nodiscard]] std::optional<Path> bfs_shortest_path(
    const Graph& g, NodeId s, NodeId t,
    std::span<const char> blocked_edges = {});
[[nodiscard]] std::optional<Path> bfs_shortest_path(
    const CsrGraph& g, NodeId s, NodeId t,
    std::span<const char> blocked_edges = {});

/// Shortest path under non-negative per-arc weights.
[[nodiscard]] std::optional<Path> dijkstra_shortest_path(
    const Graph& g, NodeId s, NodeId t, const ArcWeightFn& weight,
    std::span<const char> blocked_edges = {});
[[nodiscard]] std::optional<Path> dijkstra_shortest_path(
    const CsrGraph& g, NodeId s, NodeId t, const ArcWeightFn& weight,
    std::span<const char> blocked_edges = {});

/// Total weight of a path under `weight`.
[[nodiscard]] double path_weight(const Path& p, const ArcWeightFn& weight);

/// Yen's algorithm: up to `k` loopless shortest paths in non-decreasing
/// weight order. With `weight == nullptr`, hop count is used.
[[nodiscard]] std::vector<Path> yen_k_shortest_paths(
    const Graph& g, NodeId s, NodeId t, std::size_t k,
    const ArcWeightFn& weight = nullptr);
[[nodiscard]] std::vector<Path> yen_k_shortest_paths(
    const CsrGraph& g, NodeId s, NodeId t, std::size_t k,
    const ArcWeightFn& weight = nullptr);

/// Up to `k` mutually edge-disjoint paths, chosen greedily shortest-first
/// (each path's edges are removed before searching for the next). This is
/// the path-set construction the paper's evaluation uses (§6.1).
[[nodiscard]] std::vector<Path> edge_disjoint_shortest_paths(
    const Graph& g, NodeId s, NodeId t, std::size_t k);
[[nodiscard]] std::vector<Path> edge_disjoint_shortest_paths(
    const CsrGraph& g, NodeId s, NodeId t, std::size_t k);

/// Single widest (maximum-bottleneck) path under per-arc capacities,
/// ties broken by fewer hops; nullopt if unreachable.
[[nodiscard]] std::optional<Path> widest_path(
    const Graph& g, NodeId s, NodeId t, const ArcWeightFn& capacity,
    std::span<const char> blocked_edges = {});
[[nodiscard]] std::optional<Path> widest_path(
    const CsrGraph& g, NodeId s, NodeId t, const ArcWeightFn& capacity,
    std::span<const char> blocked_edges = {});

/// Up to `k` edge-disjoint widest paths (greedy widest-first removal).
[[nodiscard]] std::vector<Path> edge_disjoint_widest_paths(
    const Graph& g, NodeId s, NodeId t, std::size_t k,
    const ArcWeightFn& capacity);
[[nodiscard]] std::vector<Path> edge_disjoint_widest_paths(
    const CsrGraph& g, NodeId s, NodeId t, std::size_t k,
    const ArcWeightFn& capacity);

/// Bottleneck (minimum per-arc value) along `p`; +inf for the empty path.
[[nodiscard]] double path_bottleneck(const Path& p,
                                     const ArcWeightFn& capacity);

/// Edges of a BFS spanning tree rooted at `root`. Requires a connected
/// graph (throws std::invalid_argument otherwise). Used by Proposition 1:
/// routing a circulation along any spanning tree is perfectly balanced.
[[nodiscard]] std::vector<EdgeId> bfs_spanning_tree(const Graph& g,
                                                    NodeId root = 0);

/// Unique path between `s` and `t` inside the spanning tree `tree_edges`.
[[nodiscard]] Path tree_path(const Graph& g,
                             std::span<const EdgeId> tree_edges, NodeId s,
                             NodeId t);

}  // namespace spider::graph
