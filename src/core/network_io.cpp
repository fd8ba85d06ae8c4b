#include "core/network_io.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "graph/graphio.hpp"

namespace spider::core {

namespace {

/// Parses a whole CSV field as an amount; false on any stray character.
bool parse_amount(const std::string& field, Amount& out) {
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

}  // namespace

void write_channels_csv(std::ostream& os, const graph::Graph& g,
                        const std::vector<std::pair<Amount, Amount>>& deps) {
  if (deps.size() != g.edge_count()) {
    throw std::invalid_argument("write_channels_csv: deposits size mismatch");
  }
  os << "u,v,balance_u_milli,balance_v_milli\n";
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
    os << g.edge_u(e) << ',' << g.edge_v(e) << ',' << deps[e].first << ','
       << deps[e].second << '\n';
  }
}

NetworkSnapshot read_channels_csv(std::istream& is) {
  std::vector<graph::EdgeEnds> edges;
  NetworkSnapshot snap;
  graph::NodeId max_node = 0;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    if (line_no == 1 && line.rfind("u,v", 0) == 0) continue;
    std::istringstream ss(line);
    std::string f[4];
    for (int i = 0; i < 4; ++i) {
      if (!std::getline(ss, f[i], ',')) {
        throw std::runtime_error("read_channels_csv: malformed line " +
                                 std::to_string(line_no));
      }
    }
    const std::optional<graph::NodeId> u = graph::parse_node_id(f[0]);
    const std::optional<graph::NodeId> v = graph::parse_node_id(f[1]);
    Amount a = 0;
    Amount b = 0;
    if (!u || !v || !parse_amount(f[2], a) || !parse_amount(f[3], b)) {
      throw std::runtime_error("read_channels_csv: bad field on line " +
                               std::to_string(line_no));
    }
    if (a < 0 || b < 0 || (a == 0 && b == 0)) {
      throw std::runtime_error("read_channels_csv: invalid balances on line " +
                               std::to_string(line_no));
    }
    edges.push_back({*u, *v});
    snap.deposits.emplace_back(a, b);
    max_node = std::max({max_node, *u, *v});
  }
  snap.graph = graph::Graph(
      edges.empty() ? 0 : static_cast<std::size_t>(max_node) + 1, edges);
  return snap;
}

void save_channels_csv(const std::string& path, const graph::Graph& g,
                       const std::vector<std::pair<Amount, Amount>>& deps) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("save_channels_csv: cannot open " + path);
  }
  write_channels_csv(out, g, deps);
}

NetworkSnapshot load_channels_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("load_channels_csv: cannot open " + path);
  }
  return read_channels_csv(in);
}

}  // namespace spider::core
