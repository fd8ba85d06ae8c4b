#pragma once
// Sharded path precomputation over the exp::Runner thread pool.
//
// The paper's evaluation precomputes "4 disjoint shortest paths for
// every source-destination pair" (§6.1). Serially, that setup dominates
// wall time on the full 3774-node Ripple topology and makes 100k-node
// Lightning graphs intractable. Here the (src, dst) pair list is
// partitioned into deterministic fixed-size chunks; each worker owns a
// private PathFinder (reusable scratch, zero shared mutable state) and
// fills its chunk's result slot; the slots are stitched into one dense
// graph::PathTable in chunk order on the calling thread. Path queries
// are pure functions of the frozen CSR arena, so the table is
// byte-identical at any --threads (DESIGN.md §7, pinned by the
// 1-vs-N-thread determinism tests; PathTable::checksum() is the
// fingerprint).
//
// Each chunk also carries a seed derived from (base_seed, chunk_index)
// via derive_seed(). The deterministic path algorithms never consume
// randomness, but the seed rides along for future randomized policies
// (e.g. per-chunk path perturbation) so the sharding contract -- one
// independent, index-derived stream per chunk -- is fixed now.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "exp/runner.hpp"
#include "graph/graph.hpp"
#include "graph/path_table.hpp"

namespace spider::exp {

/// One worker-owned slice of the pair list: pairs [begin, end) of the
/// plan's pair vector, plus the chunk's derived seed.
struct PrecomputeChunk {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::uint64_t seed = 0;
};

/// Deterministic partition of a (src, dst) pair list. The pair order is
/// canonicalised (sorted, deduplicated) at construction so the same
/// pair set always produces the same chunks -- and therefore the same
/// PathTable layout -- regardless of input order or thread count.
struct PathPrecomputePlan {
  std::vector<graph::PathTable::Pair> pairs;  // sorted, unique
  std::vector<PrecomputeChunk> chunks;
  std::size_t chunk_size = 0;

  /// Partitions `pairs` into ceil(n / chunk_size) chunks. `chunk_size`
  /// 0 picks a default that keeps every pool thread busy without
  /// making the serial stitch dominate (currently 256 pairs).
  static PathPrecomputePlan make(std::vector<graph::PathTable::Pair> pairs,
                                 std::size_t chunk_size = 0,
                                 std::uint64_t base_seed = 1);
};

/// All ordered (src, dst) pairs that appear in `trace`-like demand
/// lists; convenience for building plans from workloads.
[[nodiscard]] std::vector<graph::PathTable::Pair> unique_pairs(
    std::span<const graph::PathTable::Pair> raw);

/// Runs the plan over the runner's pool: `k` edge-disjoint shortest
/// paths per pair (what the packet simulator computes lazily), byte-
/// identical at any thread count. The graph must stay alive for the
/// duration of the call only (the table copies everything).
[[nodiscard]] graph::PathTable precompute_paths(const graph::Graph& g,
                                                const PathPrecomputePlan& plan,
                                                std::size_t k,
                                                const Runner& runner);

}  // namespace spider::exp
