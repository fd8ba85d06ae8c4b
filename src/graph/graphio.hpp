#pragma once
// Graph serialization: Graphviz DOT export for debugging and a minimal
// CSV edge-list format ("u,v" per line, '#' comments) so users can load
// real topology snapshots (Topology Zoo exports, Lightning describegraph
// dumps converted to edge lists, ...).

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "graph/graph.hpp"

namespace spider::graph {

/// Writes the graph in Graphviz DOT format (undirected).
void write_dot(std::ostream& os, const Graph& g,
               const std::string& name = "spider");

/// Writes a CSV edge list: header "u,v" then one line per edge.
void write_edge_list_csv(std::ostream& os, const Graph& g);

/// Parses a whole CSV field as a node id: decimal digits only (no sign,
/// blanks or trailing text) and below kInvalidNode; nullopt otherwise.
[[nodiscard]] std::optional<NodeId> parse_node_id(std::string_view field);

/// Reads a CSV edge list as written by `write_edge_list_csv`.
/// Blank lines and lines starting with '#' are skipped; an optional
/// "u,v" header is tolerated. Node count is 1 + max node id seen.
/// Throws std::runtime_error naming the line on malformed input (ids
/// must pass parse_node_id).
[[nodiscard]] Graph read_edge_list_csv(std::istream& is);

/// Convenience file-based wrappers; throw std::runtime_error on I/O error.
void save_edge_list_csv(const std::string& path, const Graph& g);
[[nodiscard]] Graph load_edge_list_csv(const std::string& path);

}  // namespace spider::graph
