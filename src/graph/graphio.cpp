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

Graph read_edge_list_csv(std::istream& is) {
  std::vector<EdgeEnds> edges;
  NodeId max_node = 0;
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
    max_node = std::max({max_node, *u, *v});
  }
  return Graph(edges.empty() ? 0 : static_cast<std::size_t>(max_node) + 1,
               edges);
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
