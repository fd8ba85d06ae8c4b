#include "exp/path_precompute.hpp"

#include <algorithm>

#include "graph/paths.hpp"

namespace spider::exp {

namespace {

// Default pairs per chunk: small enough that a 16-thread pool stays
// busy on a few thousand pairs, large enough that chunk bookkeeping
// and the serial stitch stay negligible next to the path queries.
constexpr std::size_t kDefaultChunkSize = 256;

}  // namespace

std::vector<graph::PathTable::Pair> unique_pairs(
    std::span<const graph::PathTable::Pair> raw) {
  std::vector<graph::PathTable::Pair> pairs(raw.begin(), raw.end());
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

PathPrecomputePlan PathPrecomputePlan::make(
    std::vector<graph::PathTable::Pair> pairs, std::size_t chunk_size,
    std::uint64_t base_seed) {
  PathPrecomputePlan plan;
  plan.pairs = std::move(pairs);
  std::sort(plan.pairs.begin(), plan.pairs.end());
  plan.pairs.erase(std::unique(plan.pairs.begin(), plan.pairs.end()),
                   plan.pairs.end());
  plan.chunk_size = chunk_size == 0 ? kDefaultChunkSize : chunk_size;
  const std::size_t n = plan.pairs.size();
  plan.chunks.reserve((n + plan.chunk_size - 1) / plan.chunk_size);
  for (std::size_t begin = 0; begin < n; begin += plan.chunk_size) {
    PrecomputeChunk c;
    c.begin = begin;
    c.end = std::min(begin + plan.chunk_size, n);
    c.seed = derive_seed(base_seed, plan.chunks.size());
    plan.chunks.push_back(c);
  }
  return plan;
}

graph::PathTable precompute_paths(const graph::Graph& g,
                                  const PathPrecomputePlan& plan,
                                  std::size_t k, const Runner& runner) {
  // Fan out: one private PathFinder per chunk invocation, one result
  // slot per chunk (Runner::map returns slots in chunk-index order no
  // matter which thread ran what). Queries only read the immutable
  // graph, so there is no shared mutable state to race on.
  std::vector<std::vector<std::vector<graph::Path>>> per_chunk = runner.map(
      plan.chunks.size(), [&](std::size_t ci) {
        const PrecomputeChunk& c = plan.chunks[ci];
        graph::PathFinder finder;
        std::vector<std::vector<graph::Path>> out;
        out.reserve(c.end - c.begin);
        for (std::size_t i = c.begin; i < c.end; ++i) {
          const auto [src, dst] = plan.pairs[i];
          out.push_back(finder.edge_disjoint(g, src, dst, k));
        }
        return out;
      });

  // Serial stitch in chunk order: dense offsets + concatenated paths.
  std::vector<std::uint32_t> offsets;
  offsets.reserve(plan.pairs.size() + 1);
  offsets.push_back(0);
  std::size_t total = 0;
  for (const auto& chunk : per_chunk) {
    for (const auto& paths : chunk) {
      total += paths.size();
      offsets.push_back(static_cast<std::uint32_t>(total));
    }
  }
  std::vector<graph::Path> paths;
  paths.reserve(total);
  for (auto& chunk : per_chunk) {
    for (auto& pair_paths : chunk) {
      for (auto& p : pair_paths) paths.push_back(std::move(p));
    }
  }
  return graph::PathTable(plan.pairs, std::move(offsets), std::move(paths));
}

}  // namespace spider::exp
