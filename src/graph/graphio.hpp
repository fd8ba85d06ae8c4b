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

/// Sizes the graph of a CSV edge list from the endpoints its rows name.
/// Ids are dense: the node count is 1 + the largest id, and it may not
/// pass 2 × rows + kSpareIds. Without that bound the one legal row
/// "0,4000000000" would ask for a ~16 GiB arena.
class CsvNodeCount {
 public:
  /// Isolated ids (named by no row) a small file may hold.
  static constexpr std::size_t kSpareIds = 1024;

  /// Counts one row with endpoints u and v, read on line `line_no`.
  void add(NodeId u, NodeId v, std::size_t line_no);

  /// The node count; throws std::runtime_error, prefixed by `reader`,
  /// naming the line of the largest id if it breaks the bound.
  [[nodiscard]] std::size_t node_count(const char* reader) const;

 private:
  std::size_t rows_ = 0;
  NodeId max_id_ = 0;
  std::size_t max_line_ = 0;
};

/// Reads a CSV edge list as written by `write_edge_list_csv`.
/// Blank lines and lines starting with '#' are skipped; an optional
/// "u,v" header is tolerated. Node count is 1 + max node id seen, sized
/// by CsvNodeCount. Throws std::runtime_error naming the line on
/// malformed input (ids must pass parse_node_id) or sparse ids.
[[nodiscard]] Graph read_edge_list_csv(std::istream& is);

/// Convenience file-based wrappers; throw std::runtime_error on I/O error.
void save_edge_list_csv(const std::string& path, const Graph& g);
[[nodiscard]] Graph load_edge_list_csv(const std::string& path);

}  // namespace spider::graph
