#include "graph/graphio.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace spider::graph {

void write_dot(std::ostream& os, const Graph& g, const std::string& name) {
  os << "graph " << name << " {\n";
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    os << "  " << g.edge_u(e) << " -- " << g.edge_v(e) << ";\n";
  }
  os << "}\n";
}

void write_edge_list_csv(std::ostream& os, const Graph& g) {
  os << "u,v\n";
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    os << g.edge_u(e) << ',' << g.edge_v(e) << '\n';
  }
}

std::optional<NodeId> parse_node_id(std::string_view field) {
  // Parse wider than NodeId so 2^32 and up are rejected, not wrapped.
  std::uint64_t id = 0;
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, id);
  if (ec != std::errc{} || ptr != end || id >= kInvalidNode) {
    return std::nullopt;
  }
  return static_cast<NodeId>(id);
}

void CsvNodeCount::add(NodeId u, NodeId v, std::size_t line_no) {
  const NodeId top = std::max(u, v);
  if (rows_ == 0 || top > max_id_) {
    max_id_ = top;
    max_line_ = line_no;
  }
  ++rows_;
}

std::size_t CsvNodeCount::node_count(const char* reader) const {
  if (rows_ == 0) return 0;
  const std::size_t n = static_cast<std::size_t>(max_id_) + 1;
  if (n > 2 * rows_ + kSpareIds) {
    throw std::runtime_error(
        std::string(reader) + ": node id " + std::to_string(max_id_) +
        " on line " + std::to_string(max_line_) + " asks for " +
        std::to_string(n) + " nodes from " + std::to_string(rows_) +
        " rows (ids must be dense)");
  }
  return n;
}

Graph read_edge_list_csv(std::istream& is) {
  std::vector<EdgeEnds> edges;
  CsvNodeCount nodes;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    if (line_no == 1 && line.rfind("u,v", 0) == 0) continue;  // header
    std::istringstream ss(line);
    std::string a, b;
    if (!std::getline(ss, a, ',') || !std::getline(ss, b, ',')) {
      throw std::runtime_error("read_edge_list_csv: malformed line " +
                               std::to_string(line_no) + ": '" + line + "'");
    }
    const std::optional<NodeId> u = parse_node_id(a);
    const std::optional<NodeId> v = parse_node_id(b);
    if (!u || !v) {
      throw std::runtime_error("read_edge_list_csv: bad node id on line " +
                               std::to_string(line_no) + ": '" + line + "'");
    }
    edges.push_back({*u, *v});
    nodes.add(*u, *v, line_no);
  }
  return Graph(nodes.node_count("read_edge_list_csv"), edges);
}

void save_edge_list_csv(const std::string& path, const Graph& g) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_edge_list_csv: cannot open " + path);
  write_edge_list_csv(out, g);
}

Graph load_edge_list_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_edge_list_csv: cannot open " + path);
  return read_edge_list_csv(in);
}

}  // namespace spider::graph
