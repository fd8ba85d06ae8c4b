#pragma once
// Import/export of channel networks with per-side balances, so real
// snapshots (Lightning `describegraph` dumps, Ripple trust-line exports)
// can be converted to a simple CSV and loaded directly:
//
//     u,v,balance_u_milli,balance_v_milli
//     0,1,1500000,1500000
//     ...
//
// Node ids must be dense integers (preprocess name->id mapping outside).

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "graph/graph.hpp"

namespace spider::core {

/// A parsed snapshot: the topology plus per-side deposits for each edge
/// (indexed like the graph's edges).
struct NetworkSnapshot {
  graph::Graph graph;
  std::vector<std::pair<Amount, Amount>> deposits;
};

/// Writes the header and one row per channel.
void write_channels_csv(std::ostream& os, const graph::Graph& g,
                        const std::vector<std::pair<Amount, Amount>>& deps);

/// Parses a channels CSV. Tolerates a header row, blank lines, and '#'
/// comments; throws std::runtime_error on malformed rows, negative
/// balances, empty channels, or ids too sparse for the row count
/// (graph::CsvNodeCount).
[[nodiscard]] NetworkSnapshot read_channels_csv(std::istream& is);

void save_channels_csv(const std::string& path, const graph::Graph& g,
                       const std::vector<std::pair<Amount, Amount>>& deps);
[[nodiscard]] NetworkSnapshot load_channels_csv(const std::string& path);

}  // namespace spider::core
