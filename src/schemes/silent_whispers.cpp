// SilentWhispers-style landmark routing [18, 20]: a small set of
// well-connected landmark nodes store routing state; a payment from s to
// t travels s -> landmark -> t, split across the landmarks. The scheme is
// atomic: if the landmark paths cannot jointly carry the amount, nothing
// is sent. (The original system also runs privacy-preserving multi-party
// computation to probe credit; capacity probing here reads the simulated
// channel state directly, which is what its simulation-based evaluation
// does too.)

#include <algorithm>
#include <numeric>

#include "graph/paths.hpp"
#include "schemes/schemes.hpp"

namespace spider::schemes {

namespace {

/// Concatenates a->b and b->c shortest paths and removes any loops so the
/// result is a valid trail (distinct nodes).
std::optional<graph::Path> splice_through(graph::PathFinder& finder,
                                          const graph::Graph& g,
                                          graph::NodeId src,
                                          graph::NodeId via,
                                          graph::NodeId dst) {
  const auto first = finder.bfs_shortest(g, src, via);
  const auto second = finder.bfs_shortest(g, via, dst);
  if (!first || !second) return std::nullopt;
  std::vector<graph::ArcId> arcs = first->arcs;
  arcs.insert(arcs.end(), second->arcs.begin(), second->arcs.end());
  // Loop removal: walk the node sequence keeping the last position of
  // each node; on a revisit, drop the arcs in between.
  std::vector<graph::ArcId> clean;
  std::map<graph::NodeId, std::size_t> pos;  // node -> #arcs when seen
  pos[src] = 0;
  for (const graph::ArcId a : arcs) {
    const graph::NodeId h = g.head(a);
    const auto it = pos.find(h);
    if (it != pos.end()) {
      // Unwind back to the earlier visit of h.
      while (clean.size() > it->second) {
        pos.erase(g.head(clean.back()));
        clean.pop_back();
      }
    } else {
      clean.push_back(a);
      pos[h] = clean.size();
    }
  }
  if (clean.empty()) return std::nullopt;
  graph::Path p{src, std::move(clean)};
  return p;
}

}  // namespace

void SilentWhispersScheme::prepare(const graph::Graph& g,
                                   const std::vector<core::Amount>&,
                                   const fluid::PaymentGraph&, double) {
  graph_ = &g;
  cache_.clear();
  // Landmarks: the highest-degree nodes (ties by id), as landmark systems
  // pick well-connected routers.
  std::vector<graph::NodeId> nodes(g.node_count());
  std::iota(nodes.begin(), nodes.end(), 0);
  std::sort(nodes.begin(), nodes.end(),
            [&g](graph::NodeId a, graph::NodeId b) {
              if (g.degree(a) != g.degree(b)) {
                return g.degree(a) > g.degree(b);
              }
              return a < b;
            });
  landmarks_.assign(nodes.begin(),
                    nodes.begin() + static_cast<std::ptrdiff_t>(std::min(
                                        landmark_count_, nodes.size())));
}

std::vector<RouteChoice> SilentWhispersScheme::route(
    const core::PaymentRequest& req, core::Amount remaining,
    const core::ChannelNetwork& net, core::TimePoint /*now*/) {
  const auto key = std::make_pair(req.src, req.dst);
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    std::vector<graph::Path> paths;
    for (const graph::NodeId lm : landmarks_) {
      auto p = splice_through(finder_, *graph_, req.src, lm, req.dst);
      if (!p) continue;
      // Skip duplicates (e.g. two landmarks on the same spine).
      const bool dup = std::any_of(
          paths.begin(), paths.end(),
          [&p](const graph::Path& q) { return q.arcs == p->arcs; });
      if (!dup) paths.push_back(std::move(*p));
    }
    it = cache_.emplace(key, std::move(paths)).first;
  }
  const std::vector<graph::Path>& paths = it->second;
  if (paths.empty()) return {};

  // Capacity-aware atomic split: assign greedily per landmark path
  // against a local copy of availabilities (paths can share channels).
  std::vector<core::Amount> avail(graph_->arc_count());
  for (graph::ArcId a = 0; a < graph_->arc_count(); ++a) {
    avail[a] = net.available(a);
  }
  std::vector<RouteChoice> choices;
  core::Amount left = remaining;
  for (const graph::Path& p : paths) {
    if (left <= 0) break;
    core::Amount bottleneck = left;
    for (const graph::ArcId a : p.arcs) {
      bottleneck = std::min(bottleneck, avail[a]);
    }
    if (bottleneck <= 0) continue;
    for (const graph::ArcId a : p.arcs) avail[a] -= bottleneck;
    choices.push_back(RouteChoice{p, bottleneck});
    left -= bottleneck;
  }
  if (left > 0) return {};  // atomic: landmarks cannot carry the payment
  return choices;
}

}  // namespace spider::schemes
