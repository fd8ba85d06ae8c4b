#include "schemes/path_cache.hpp"

#include <stdexcept>

namespace spider::schemes {

PathCache::Entry& PathCache::entry(graph::NodeId src, graph::NodeId dst) {
  if (graph_ == nullptr) {
    throw std::logic_error("PathCache: not bound to a graph");
  }
  if (Entry* hit = cache_.find(src, dst)) return *hit;

  std::vector<graph::Path> result;
  switch (mode_) {
    case PathMode::kShortest: {
      auto p = finder_.bfs_shortest(*graph_, src, dst);
      if (p) result.push_back(std::move(*p));
      break;
    }
    case PathMode::kEdgeDisjoint:
      result = finder_.edge_disjoint(*graph_, src, dst, k_);
      break;
    case PathMode::kKShortest:
      result = finder_.yen(*graph_, src, dst, k_);
      break;
  }
  return cache_.insert(src, dst, Entry{std::move(result), {}});
}

}  // namespace spider::schemes
