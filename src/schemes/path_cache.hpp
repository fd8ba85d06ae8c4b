#pragma once
// Lazily-computed per-pair path tables shared by the routing schemes.
// The paper's evaluation restricts Spider to 4 edge-disjoint shortest
// paths per pair (§6.1); baselines use the single shortest path.
//
// The cache answers misses through a reusable PathFinder over the bound
// graph, so a cold sweep over a 3774-node Ripple topology does not pay
// per-query scratch allocation. The graph must outlive the cache.

#include <algorithm>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "core/network.hpp"
#include "graph/graph.hpp"
#include "graph/paths.hpp"

namespace spider::schemes {

/// A pair's dry-pair memo (sim/scheme.hpp): the network raise epoch at
/// which every candidate path of the pair had a zero spendable
/// bottleneck. While the network still shows that epoch, the pair
/// routes nothing, whatever the amount.
class DryMark {
 public:
  [[nodiscard]] bool holds(const core::ChannelNetwork& net) const {
    return epoch_ == net.raise_epoch();
  }
  void set(const core::ChannelNetwork& net) { epoch_ = net.raise_epoch(); }

 private:
  std::uint64_t epoch_ = ~std::uint64_t{0};  // no network reaches it
};

/// Per-(src, dst) values that route() looks up on every call: a sorted
/// vector of packed pair keys searched by bisection, instead of a tree
/// walk, with the values in a deque so references to them stay valid
/// as the table grows. Never iterated, so it has no order to leak.
template <class T>
class PairTable {
 public:
  /// The value of (src, dst), or null.
  [[nodiscard]] T* find(graph::NodeId src, graph::NodeId dst) {
    const std::uint64_t k = key(src, dst);
    const auto it = std::lower_bound(keys_.begin(), keys_.end(), k);
    if (it == keys_.end() || *it != k) return nullptr;
    return &values_[slots_[static_cast<std::size_t>(it - keys_.begin())]];
  }

  /// The value of (src, dst), value-initialized first when absent.
  T& operator()(graph::NodeId src, graph::NodeId dst) {
    if (T* v = find(src, dst)) return *v;
    return insert(src, dst, T{});
  }

  /// Adds (src, dst), which must be absent, and returns its value.
  T& insert(graph::NodeId src, graph::NodeId dst, T value) {
    const std::uint64_t k = key(src, dst);
    const auto at = std::lower_bound(keys_.begin(), keys_.end(), k) -
                    keys_.begin();
    keys_.insert(keys_.begin() + at, k);
    slots_.insert(slots_.begin() + at,
                  static_cast<std::uint32_t>(values_.size()));
    values_.push_back(std::move(value));
    return values_.back();
  }

  [[nodiscard]] std::size_t size() const { return values_.size(); }

 private:
  static std::uint64_t key(graph::NodeId src, graph::NodeId dst) {
    return (std::uint64_t{src} << 32) | dst;
  }

  std::vector<std::uint64_t> keys_;   // sorted
  std::vector<std::uint32_t> slots_;  // slots_[i]: value index of keys_[i]
  std::deque<T> values_;
};

enum class PathMode {
  kShortest,          // single BFS shortest path
  kEdgeDisjoint,      // up to k edge-disjoint shortest paths
  kKShortest,         // up to k Yen loopless shortest paths
};

class PathCache {
 public:
  PathCache() = default;
  PathCache(const graph::Graph* g, PathMode mode, std::size_t k)
      : graph_(g), mode_(mode), k_(k) {}

  /// A pair's cached candidate paths and its dry mark.
  struct Entry {
    std::vector<graph::Path> paths;
    DryMark dry;
  };

  /// The entry for (src, dst); its paths are computed on first use.
  Entry& entry(graph::NodeId src, graph::NodeId dst);

  /// Paths for (src, dst), computed on first use and cached.
  const std::vector<graph::Path>& paths(graph::NodeId src, graph::NodeId dst) {
    return entry(src, dst).paths;
  }

  [[nodiscard]] std::size_t cached_pairs() const { return cache_.size(); }

 private:
  const graph::Graph* graph_ = nullptr;
  graph::PathFinder finder_;   // reusable per-query scratch
  PathMode mode_ = PathMode::kShortest;
  std::size_t k_ = 1;
  PairTable<Entry> cache_;
};

}  // namespace spider::schemes
