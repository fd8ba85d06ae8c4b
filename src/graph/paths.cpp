// spider-lint: hot-path-file
// Path queries dominate topology setup at 100k-node scale; containers
// here must come from PathFinder's reusable scratch, not per-call
// construction (enforced by the hot-loop-alloc lint rule).

#include "graph/paths.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>

namespace spider::graph {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool edge_blocked(std::span<const char> blocked, EdgeId e) {
  return !blocked.empty() && e < blocked.size() && blocked[e] != 0;
}

}  // namespace

template <class G>
void PathFinder::begin_query(const G& g) {
  const std::size_t n = g.node_count();
  if (mark_.size() < n) {
    mark_.resize(n, 0);
    dist_.resize(n);
    hops_.resize(n);
    parent_.resize(n);
  }
  if (++stamp_ == 0) {  // stamp wrap: old marks could alias a new query
    std::fill(mark_.begin(), mark_.end(), 0);
    for (BfsSide* side : {&fwd_, &bwd_}) {
      std::fill(side->reach.begin(), side->reach.end(), BfsSide::Reach{});
    }
    stamp_ = 1;
  }
  queue_.clear();
  heap_.clear();
  wheap_.clear();
}

template <class G>
void PathFinder::grow_blocked(const G& g) {
  // At rest the mask is all-zero (unblock_all undoes every write), so
  // growing only needs to zero-fill the new tail.
  if (blocked_.size() < g.edge_count()) blocked_.resize(g.edge_count(), 0);
}

template <class G>
Path PathFinder::build_path(const G& g, NodeId s, NodeId t) const {
  Path p;
  p.source = s;
  NodeId at = t;
  while (at != s) {
    const ArcId a = parent_[at];
    p.arcs.push_back(a);
    at = g.tail(a);
  }
  std::reverse(p.arcs.begin(), p.arcs.end());
  return p;
}

template <class G>
void PathFinder::bfs_seed(const G& g, BfsSide& side, NodeId root) {
  if (side.reach.size() < g.node_count()) side.reach.resize(g.node_count());
  side.reach[root] = {stamp_, 0};
  side.nodes.clear();
  side.nodes.push_back(root);
  side.frontier = 0;
  side.frontier_degree = g.out_arcs(root).size();
  side.depth = 0;
}

template <class G>
bool PathFinder::bfs_expand(const G& g, BfsSide& side, const BfsSide& other,
                            std::span<const char> blocked_edges) {
  const std::size_t end = side.nodes.size();
  const std::uint32_t next = side.depth + 1;
  std::size_t degree = 0;
  bool met = false;
  for (std::size_t i = side.frontier; i < end; ++i) {
    for (const ArcId a : g.out_arcs(side.nodes[i])) {
      if (edge_blocked(blocked_edges, edge_of(a))) continue;
      const NodeId w = g.head(a);
      if (side.reach[w].stamp == stamp_) continue;
      side.reach[w] = {stamp_, next};
      side.nodes.push_back(w);
      degree += g.out_arcs(w).size();
      if (other.reach[w].stamp == stamp_) {
        mark_[w] = stamp_;
        queue_.push_back(w);
        met = true;
      }
    }
  }
  side.frontier = end;
  side.frontier_degree = degree;
  side.depth = next;
  return met;
}

template <class G>
std::optional<Path> PathFinder::bfs_shortest(
    const G& g, NodeId s, NodeId t, std::span<const char> blocked_edges) {
  if (s >= g.node_count() || t >= g.node_count()) return std::nullopt;
  if (s == t) return Path{s, {}};
  begin_query(g);
  bfs_seed(g, fwd_, s);
  bfs_seed(g, bwd_, t);
  // Balanced bidirectional BFS: grow the side whose last layer has the
  // smaller degree sum, one full layer at a time. No node is reached by
  // both sides until the first meeting layer, so every meeting node lies
  // at forward distance fwd_.depth and backward distance bwd_.depth, and
  // together they are exactly the nodes of the shortest paths at that
  // forward distance.
  for (bool met = false; !met;) {
    if (fwd_.frontier == fwd_.nodes.size() ||
        bwd_.frontier == bwd_.nodes.size()) {
      return std::nullopt;  // one side ran out: t unreachable
    }
    met = fwd_.frontier_degree <= bwd_.frontier_degree
              ? bfs_expand(g, fwd_, bwd_, blocked_edges)
              : bfs_expand(g, bwd_, fwd_, blocked_edges);
  }
  // Sweep back from the meeting nodes (queued by bfs_expand) through the
  // forward layers: mark_ ends up set on every forward-side node that
  // lies on some shortest s->t path.
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const NodeId v = queue_[head];
    const std::uint32_t dv = fwd_.reach[v].dist;
    for (const ArcId a : g.out_arcs(v)) {
      if (edge_blocked(blocked_edges, edge_of(a))) continue;
      const NodeId u = g.head(a);
      if (mark_[u] == stamp_) continue;
      const BfsSide::Reach& r = fwd_.reach[u];
      if (r.stamp != stamp_ || r.dist + 1 != dv) continue;
      mark_[u] = stamp_;
      queue_.push_back(u);
    }
  }
  // Greedy walk from s: at each step take the first unblocked out-arc
  // whose head is one hop further along some shortest path -- the
  // lexicographically smallest shortest path by out-arc position, which
  // is what forward FIFO BFS with first-discovery parents returns. In
  // the forward layers "on a shortest path" is the sweep's mark; past
  // them it is the backward distance dropping by one.
  const std::uint32_t d = fwd_.depth + bwd_.depth;
  Path p{s, {}};
  p.arcs.reserve(d);
  NodeId v = s;
  for (std::uint32_t i = 0; i < d; ++i) {
    for (const ArcId a : g.out_arcs(v)) {
      if (edge_blocked(blocked_edges, edge_of(a))) continue;
      const NodeId w = g.head(a);
      const BfsSide::Reach& back = bwd_.reach[w];
      const bool next = i < fwd_.depth
                            ? mark_[w] == stamp_ && fwd_.reach[w].dist == i + 1
                            : back.stamp == stamp_ && back.dist == d - i - 1;
      if (next) {
        p.arcs.push_back(a);
        v = w;
        break;
      }
    }
  }
  return p;
}

template <class G>
std::optional<Path> PathFinder::dijkstra(const G& g, NodeId s, NodeId t,
                                         const ArcWeightFn& weight,
                                         std::span<const char> blocked_edges) {
  if (s >= g.node_count() || t >= g.node_count()) return std::nullopt;
  if (s == t) return Path{s, {}};
  begin_query(g);
  // heap_ + push_heap/pop_heap with std::greater<> pops in exactly the
  // order std::priority_queue<.., std::greater<>> would (it is specified
  // in terms of these calls), so results match the legacy implementation.
  dist_[s] = 0;
  mark_[s] = stamp_;
  heap_.emplace_back(0.0, s);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    const auto [d, u] = heap_.back();
    heap_.pop_back();
    if (d > dist_[u]) continue;
    if (u == t) break;
    for (const ArcId a : g.out_arcs(u)) {
      if (edge_blocked(blocked_edges, edge_of(a))) continue;
      const double w = weight(a);
      if (w < 0) throw std::invalid_argument("dijkstra: negative arc weight");
      const NodeId v = g.head(a);
      const double dv = mark_[v] == stamp_ ? dist_[v] : kInf;
      if (dist_[u] + w < dv) {
        dist_[v] = dist_[u] + w;
        mark_[v] = stamp_;
        parent_[v] = a;
        heap_.emplace_back(dist_[v], v);
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
      }
    }
  }
  if (mark_[t] != stamp_) return std::nullopt;
  return build_path(g, s, t);
}

template <class G>
std::vector<Path> PathFinder::yen(const G& g, NodeId s, NodeId t,
                                  std::size_t k, const ArcWeightFn& weight) {
  std::vector<Path> result;
  if (k == 0) return result;
  const ArcWeightFn w =
      weight ? weight : ArcWeightFn([](ArcId) { return 1.0; });

  auto first = dijkstra(g, s, t, w);
  if (!first) return result;
  result.push_back(std::move(*first));

  // Candidate set ordered by (weight, node-sequence) for determinism;
  // the set and the known-paths filter live in PathFinder scratch, and
  // the blocked mask is maintained via the undo list instead of an O(E)
  // refill per spur -- the Yen quadratic-reallocation fix (ISSUE 7).
  cand_.clear();
  known_.clear();
  known_.insert(result[0].arcs);
  grow_blocked(g);

  while (result.size() < k) {
    const Path& prev = result.back();
    prev_nodes_.clear();
    prev_nodes_.push_back(prev.source);
    for (const ArcId a : prev.arcs) prev_nodes_.push_back(g.head(a));
    // Spur from each node of the previous path.
    for (std::size_t i = 0; i < prev.arcs.size(); ++i) {
      const NodeId spur_node = prev_nodes_[i];
      // Root = prev[0..i).
      const auto root_begin = prev.arcs.begin();
      const auto root_end = root_begin + static_cast<std::ptrdiff_t>(i);
      // Block the next edge of every known path sharing this root.
      for (const Path& kp : result) {
        if (kp.arcs.size() > i &&
            std::equal(root_begin, root_end, kp.arcs.begin())) {
          block_edge(edge_of(kp.arcs[i]));
        }
      }
      // Block edges of the root so spur paths stay loopless trails.
      for (auto it = root_begin; it != root_end; ++it) {
        block_edge(edge_of(*it));
      }
      // Also exclude root nodes (other than spur_node) by blocking all
      // their incident edges; keeps node-loopless property.
      for (std::size_t j = 0; j < i; ++j) {
        for (const ArcId a : g.out_arcs(prev_nodes_[j])) {
          block_edge(edge_of(a));
        }
      }
      auto spur = dijkstra(g, spur_node, t, w, blocked_);
      unblock_all();
      if (!spur) continue;
      Path total;
      total.source = s;
      total.arcs.reserve(i + spur->arcs.size());
      total.arcs.assign(root_begin, root_end);
      total.arcs.insert(total.arcs.end(), spur->arcs.begin(),
                        spur->arcs.end());
      if (known_.contains(total.arcs)) continue;
      const double cost = path_weight(total, w);
      cand_.insert(Candidate{cost, std::move(total)});
    }
    if (cand_.empty()) break;
    auto best = cand_.begin();
    known_.insert(best->path.arcs);
    result.push_back(best->path);
    cand_.erase(best);
  }
  return result;
}

template <class G>
std::vector<Path> PathFinder::edge_disjoint(const G& g, NodeId s, NodeId t,
                                            std::size_t k) {
  std::vector<Path> result;
  grow_blocked(g);
  while (result.size() < k) {
    auto p = bfs_shortest(g, s, t, blocked_);
    if (!p) break;
    for (const ArcId a : p->arcs) block_edge(edge_of(a));
    result.push_back(std::move(*p));
  }
  unblock_all();
  return result;
}

template <class G>
std::optional<Path> PathFinder::widest(const G& g, NodeId s, NodeId t,
                                       const ArcWeightFn& capacity,
                                       std::span<const char> blocked_edges) {
  if (s >= g.node_count() || t >= g.node_count()) return std::nullopt;
  if (s == t) return Path{s, {}};
  // Dijkstra variant maximizing min-capacity; ties broken by hop count.
  // Unmarked nodes read as width -1 (i.e. "unreached", as the legacy
  // dense arrays initialised them).
  begin_query(g);
  dist_[s] = kInf;
  hops_[s] = 0;
  mark_[s] = stamp_;
  wheap_.push_back({kInf, 0, s});
  while (!wheap_.empty()) {
    std::pop_heap(wheap_.begin(), wheap_.end());
    const WidestItem it = wheap_.back();
    wheap_.pop_back();
    if (it.width < dist_[it.node] ||
        (it.width == dist_[it.node] && it.hops > hops_[it.node])) {
      continue;
    }
    for (const ArcId a : g.out_arcs(it.node)) {
      if (edge_blocked(blocked_edges, edge_of(a))) continue;
      const double cap = capacity(a);
      if (cap <= 0) continue;
      const NodeId v = g.head(a);
      const double new_width = std::min(it.width, cap);
      const std::size_t new_hops = it.hops + 1;
      const bool unseen = mark_[v] != stamp_;
      const double wv = unseen ? -1.0 : dist_[v];
      const std::size_t hv =
          unseen ? std::numeric_limits<std::size_t>::max() : hops_[v];
      if (new_width > wv || (new_width == wv && new_hops < hv)) {
        dist_[v] = new_width;
        hops_[v] = new_hops;
        mark_[v] = stamp_;
        parent_[v] = a;
        wheap_.push_back({new_width, new_hops, v});
        std::push_heap(wheap_.begin(), wheap_.end());
      }
    }
  }
  if (mark_[t] != stamp_) return std::nullopt;
  return build_path(g, s, t);
}

template <class G>
std::vector<Path> PathFinder::edge_disjoint_widest(
    const G& g, NodeId s, NodeId t, std::size_t k,
    const ArcWeightFn& capacity) {
  std::vector<Path> result;
  grow_blocked(g);
  while (result.size() < k) {
    auto p = widest(g, s, t, capacity, blocked_);
    if (!p) break;
    for (const ArcId a : p->arcs) block_edge(edge_of(a));
    result.push_back(std::move(*p));
  }
  unblock_all();
  return result;
}

// The two graph views the library instantiates the finder for.
template std::optional<Path> PathFinder::bfs_shortest<Graph>(
    const Graph&, NodeId, NodeId, std::span<const char>);
template std::optional<Path> PathFinder::bfs_shortest<CsrGraph>(
    const CsrGraph&, NodeId, NodeId, std::span<const char>);
template std::optional<Path> PathFinder::dijkstra<Graph>(
    const Graph&, NodeId, NodeId, const ArcWeightFn&, std::span<const char>);
template std::optional<Path> PathFinder::dijkstra<CsrGraph>(
    const CsrGraph&, NodeId, NodeId, const ArcWeightFn&,
    std::span<const char>);
template std::vector<Path> PathFinder::yen<Graph>(const Graph&, NodeId,
                                                  NodeId, std::size_t,
                                                  const ArcWeightFn&);
template std::vector<Path> PathFinder::yen<CsrGraph>(const CsrGraph&, NodeId,
                                                     NodeId, std::size_t,
                                                     const ArcWeightFn&);
template std::vector<Path> PathFinder::edge_disjoint<Graph>(const Graph&,
                                                            NodeId, NodeId,
                                                            std::size_t);
template std::vector<Path> PathFinder::edge_disjoint<CsrGraph>(const CsrGraph&,
                                                               NodeId, NodeId,
                                                               std::size_t);
template std::optional<Path> PathFinder::widest<Graph>(
    const Graph&, NodeId, NodeId, const ArcWeightFn&, std::span<const char>);
template std::optional<Path> PathFinder::widest<CsrGraph>(
    const CsrGraph&, NodeId, NodeId, const ArcWeightFn&,
    std::span<const char>);
template std::vector<Path> PathFinder::edge_disjoint_widest<Graph>(
    const Graph&, NodeId, NodeId, std::size_t, const ArcWeightFn&);
template std::vector<Path> PathFinder::edge_disjoint_widest<CsrGraph>(
    const CsrGraph&, NodeId, NodeId, std::size_t, const ArcWeightFn&);

// ---- free-function wrappers (one scratch setup per call) -------------

std::optional<Path> bfs_shortest_path(const Graph& g, NodeId s, NodeId t,
                                      std::span<const char> blocked_edges) {
  PathFinder f;
  return f.bfs_shortest(g, s, t, blocked_edges);
}

std::optional<Path> bfs_shortest_path(const CsrGraph& g, NodeId s, NodeId t,
                                      std::span<const char> blocked_edges) {
  PathFinder f;
  return f.bfs_shortest(g, s, t, blocked_edges);
}

std::optional<Path> dijkstra_shortest_path(const Graph& g, NodeId s, NodeId t,
                                           const ArcWeightFn& weight,
                                           std::span<const char> blocked_edges) {
  PathFinder f;
  return f.dijkstra(g, s, t, weight, blocked_edges);
}

std::optional<Path> dijkstra_shortest_path(const CsrGraph& g, NodeId s,
                                           NodeId t, const ArcWeightFn& weight,
                                           std::span<const char> blocked_edges) {
  PathFinder f;
  return f.dijkstra(g, s, t, weight, blocked_edges);
}

double path_weight(const Path& p, const ArcWeightFn& weight) {
  double total = 0;
  for (const ArcId a : p.arcs) total += weight(a);
  return total;
}

std::vector<Path> yen_k_shortest_paths(const Graph& g, NodeId s, NodeId t,
                                       std::size_t k,
                                       const ArcWeightFn& weight) {
  PathFinder f;
  return f.yen(g, s, t, k, weight);
}

std::vector<Path> yen_k_shortest_paths(const CsrGraph& g, NodeId s, NodeId t,
                                       std::size_t k,
                                       const ArcWeightFn& weight) {
  PathFinder f;
  return f.yen(g, s, t, k, weight);
}

std::vector<Path> edge_disjoint_shortest_paths(const Graph& g, NodeId s,
                                               NodeId t, std::size_t k) {
  PathFinder f;
  return f.edge_disjoint(g, s, t, k);
}

std::vector<Path> edge_disjoint_shortest_paths(const CsrGraph& g, NodeId s,
                                               NodeId t, std::size_t k) {
  PathFinder f;
  return f.edge_disjoint(g, s, t, k);
}

std::optional<Path> widest_path(const Graph& g, NodeId s, NodeId t,
                                const ArcWeightFn& capacity,
                                std::span<const char> blocked_edges) {
  PathFinder f;
  return f.widest(g, s, t, capacity, blocked_edges);
}

std::optional<Path> widest_path(const CsrGraph& g, NodeId s, NodeId t,
                                const ArcWeightFn& capacity,
                                std::span<const char> blocked_edges) {
  PathFinder f;
  return f.widest(g, s, t, capacity, blocked_edges);
}

std::vector<Path> edge_disjoint_widest_paths(const Graph& g, NodeId s,
                                             NodeId t, std::size_t k,
                                             const ArcWeightFn& capacity) {
  PathFinder f;
  return f.edge_disjoint_widest(g, s, t, k, capacity);
}

std::vector<Path> edge_disjoint_widest_paths(const CsrGraph& g, NodeId s,
                                             NodeId t, std::size_t k,
                                             const ArcWeightFn& capacity) {
  PathFinder f;
  return f.edge_disjoint_widest(g, s, t, k, capacity);
}

double path_bottleneck(const Path& p, const ArcWeightFn& capacity) {
  double b = kInf;
  for (const ArcId a : p.arcs) b = std::min(b, capacity(a));
  return b;
}

std::vector<EdgeId> bfs_spanning_tree(const Graph& g, NodeId root) {
  if (g.node_count() == 0) return {};
  if (!is_connected(g)) {
    throw std::invalid_argument("bfs_spanning_tree: graph is not connected");
  }
  std::vector<EdgeId> tree;
  tree.reserve(g.node_count() - 1);
  // Cold path (Proposition 1 setup, not per-query routing).
  // spider-lint: allow(hot-loop-alloc)
  std::vector<char> seen(g.node_count(), 0);
  std::deque<NodeId> frontier{root};
  seen[root] = 1;
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop_front();
    for (const ArcId a : g.out_arcs(u)) {
      const NodeId w = g.head(a);
      if (seen[w]) continue;
      seen[w] = 1;
      tree.push_back(edge_of(a));
      frontier.push_back(w);
    }
  }
  return tree;
}

Path tree_path(const Graph& g, std::span<const EdgeId> tree_edges, NodeId s,
               NodeId t) {
  // BFS restricted to tree edges; the tree guarantees a unique path.
  // Everything starts blocked; tree edges are unblocked in one pass.
  // Cold path (circulation decomposition, not per-query routing).
  // spider-lint: allow(hot-loop-alloc)
  std::vector<char> blocked(g.edge_count(), 1);
  for (const EdgeId e : tree_edges) blocked[e] = 0;
  auto p = bfs_shortest_path(g, s, t, blocked);
  if (!p) {
    throw std::invalid_argument("tree_path: nodes not connected by tree");
  }
  return *p;
}

}  // namespace spider::graph
