#include "fluid/throughput.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "graph/paths.hpp"
#include "lp/lp.hpp"

namespace spider::fluid {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void check_capacity(const Graph& g, std::span<const double> edge_capacity) {
  if (edge_capacity.size() != g.edge_count()) {
    throw std::invalid_argument("fluid: edge_capacity size != edge count");
  }
  for (const double c : edge_capacity) {
    if (c < 0 || std::isnan(c)) {
      throw std::invalid_argument("fluid: negative or NaN capacity");
    }
  }
}

// DFS enumeration of all trails (no repeated edges) from s to t.
void enumerate_trails(const Graph& g, NodeId at, NodeId t,
                      std::vector<ArcId>& walk, std::vector<char>& used_edge,
                      std::vector<graph::Path>& out, NodeId s,
                      std::size_t max_paths) {
  if (out.size() >= max_paths) return;
  if (at == t && !walk.empty()) {
    out.push_back(graph::Path{s, walk});
    return;
  }
  for (const ArcId a : g.out_arcs(at)) {
    const EdgeId e = graph::edge_of(a);
    if (used_edge[e]) continue;
    used_edge[e] = 1;
    walk.push_back(a);
    enumerate_trails(g, g.head(a), t, walk, used_edge, out, s, max_paths);
    walk.pop_back();
    used_edge[e] = 0;
  }
}

}  // namespace

PathSet edge_disjoint_path_set(const Graph& g, const PaymentGraph& demands,
                               std::size_t k) {
  // Reuse one finder's scratch across every demand pair: this loop is
  // the spider-lp / primal-dual setup cost on big graphs.
  graph::PathFinder finder;
  PathSet ps;
  for (const Demand& d : demands.demands()) {
    ps[{d.src, d.dst}] = finder.edge_disjoint(g, d.src, d.dst, k);
  }
  return ps;
}

PathSet k_shortest_path_set(const Graph& g, const PaymentGraph& demands,
                            std::size_t k) {
  graph::PathFinder finder;
  PathSet ps;
  for (const Demand& d : demands.demands()) {
    ps[{d.src, d.dst}] = finder.yen(g, d.src, d.dst, k);
  }
  return ps;
}

PathSet all_trails_path_set(const Graph& g, const PaymentGraph& demands,
                            std::size_t max_paths_per_pair) {
  PathSet ps;
  for (const Demand& d : demands.demands()) {
    if (d.src >= g.node_count() || d.dst >= g.node_count()) {
      throw std::out_of_range("all_trails_path_set: demand node not in graph");
    }
    std::vector<graph::Path> trails;
    std::vector<ArcId> walk;
    std::vector<char> used(g.edge_count(), 0);
    enumerate_trails(g, d.src, d.dst, walk, used, trails, d.src,
                     max_paths_per_pair);
    ps[{d.src, d.dst}] = std::move(trails);
  }
  return ps;
}

FluidSolution solve_path_lp(const Graph& g,
                            std::span<const double> edge_capacity,
                            const PaymentGraph& demands, const PathSet& paths,
                            const FluidOptions& options) {
  check_capacity(g, edge_capacity);
  const std::vector<Demand> ds = demands.demands();
  const bool rebalancing =
      std::isfinite(options.gamma) || options.rebalancing_budget >= 0;

  // Variable layout: one x per (pair, path), then one b per arc.
  struct PathVar {
    std::size_t demand_index;
    const graph::Path* path;
  };
  std::vector<PathVar> path_vars;
  for (std::size_t k = 0; k < ds.size(); ++k) {
    const auto it = paths.find({ds[k].src, ds[k].dst});
    if (it == paths.end()) continue;
    for (const graph::Path& p : it->second) {
      path_vars.push_back({k, &p});
    }
  }
  const std::size_t nx = path_vars.size();
  const std::size_t nb = rebalancing ? g.arc_count() : 0;
  lp::Problem prob(nx + nb);

  for (std::size_t v = 0; v < nx; ++v) prob.set_objective(v, 1.0);
  if (rebalancing && std::isfinite(options.gamma)) {
    for (std::size_t a = 0; a < nb; ++a) {
      prob.set_objective(nx + a, -options.gamma);
    }
  }

  // Demand constraints (eq. 2/7): per pair, sum of its path rates <= d.
  std::vector<std::vector<lp::Term>> demand_terms(ds.size());
  // Per-arc usage terms for capacity/balance rows.
  std::vector<std::vector<lp::Term>> arc_terms(g.arc_count());
  for (std::size_t v = 0; v < nx; ++v) {
    demand_terms[path_vars[v].demand_index].push_back({v, 1.0});
    for (const ArcId a : path_vars[v].path->arcs) {
      arc_terms[a].push_back({v, 1.0});
    }
  }
  for (std::size_t k = 0; k < ds.size(); ++k) {
    if (!demand_terms[k].empty()) {
      prob.add_constraint(demand_terms[k], lp::Relation::kLessEq, ds[k].rate);
    }
  }
  // Capacity (eq. 3/8): both directions of edge e share c_e / delta.
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (!std::isfinite(edge_capacity[e])) continue;
    std::vector<lp::Term> terms = arc_terms[graph::forward_arc(e)];
    for (const lp::Term& t : arc_terms[graph::backward_arc(e)]) {
      terms.push_back(t);
    }
    if (!terms.empty() || edge_capacity[e] == 0) {
      prob.add_constraint(std::move(terms), lp::Relation::kLessEq,
                          edge_capacity[e] / options.delta);
    }
  }
  // Balance (eq. 4/9): flow(u->v) - flow(v->u) <= b_(u,v), per direction.
  for (ArcId a = 0; a < g.arc_count(); ++a) {
    std::vector<lp::Term> terms = arc_terms[a];
    for (const lp::Term& t : arc_terms[graph::reverse(a)]) {
      terms.push_back({t.var, -1.0});
    }
    if (rebalancing) terms.push_back({nx + a, -1.0});
    if (!terms.empty()) {
      prob.add_constraint(std::move(terms), lp::Relation::kLessEq, 0.0);
    }
  }
  // Rebalancing budget (eq. 16).
  if (rebalancing && options.rebalancing_budget >= 0) {
    std::vector<lp::Term> terms;
    for (std::size_t a = 0; a < nb; ++a) terms.push_back({nx + a, 1.0});
    prob.add_constraint(std::move(terms), lp::Relation::kLessEq,
                        options.rebalancing_budget);
  }

  const lp::Solution sol = lp::solve(prob);
  FluidSolution out;
  out.optimal = sol.optimal();
  if (!out.optimal) return out;
  out.delivered.assign(ds.size(), 0.0);
  for (std::size_t v = 0; v < nx; ++v) {
    const double rate = sol.x[v];
    out.throughput += rate;
    out.delivered[path_vars[v].demand_index] += rate;
    if (rate > 1e-9) {
      const Demand& d = ds[path_vars[v].demand_index];
      out.flows.push_back(PathFlow{d.src, d.dst, *path_vars[v].path, rate});
    }
  }
  if (rebalancing) {
    out.arc_rebalancing.assign(g.arc_count(), 0.0);
    for (std::size_t a = 0; a < nb; ++a) {
      out.arc_rebalancing[a] = sol.x[nx + a];
      out.rebalancing_rate += sol.x[nx + a];
    }
  }
  out.objective = std::isfinite(options.gamma)
                      ? out.throughput - options.gamma * out.rebalancing_rate
                      : out.throughput;
  return out;
}

FluidSolution solve_arc_lp(const Graph& g,
                           std::span<const double> edge_capacity,
                           const PaymentGraph& demands,
                           const FluidOptions& options) {
  check_capacity(g, edge_capacity);
  const std::vector<Demand> ds = demands.demands();
  const bool rebalancing =
      std::isfinite(options.gamma) || options.rebalancing_budget >= 0;

  // Variables: f[k][a] per commodity k and arc a, then t[k] (delivered
  // rate), then b[a] if rebalancing.
  const std::size_t na = g.arc_count();
  const std::size_t nk = ds.size();
  const std::size_t f_base = 0;
  const std::size_t t_base = nk * na;
  const std::size_t b_base = t_base + nk;
  const std::size_t nvars = b_base + (rebalancing ? na : 0);
  auto fvar = [&](std::size_t k, ArcId a) { return f_base + k * na + a; };

  lp::Problem prob(nvars);
  for (std::size_t k = 0; k < nk; ++k) prob.set_objective(t_base + k, 1.0);
  if (rebalancing && std::isfinite(options.gamma)) {
    for (ArcId a = 0; a < na; ++a) {
      prob.set_objective(b_base + a, -options.gamma);
    }
  }

  for (std::size_t k = 0; k < nk; ++k) {
    // Delivered rate bounded by demand.
    prob.add_constraint({{t_base + k, 1.0}}, lp::Relation::kLessEq,
                        ds[k].rate);
    // Conservation: out - in = t at src, -t at dst, 0 elsewhere.
    for (NodeId v = 0; v < g.node_count(); ++v) {
      std::vector<lp::Term> terms;
      for (const ArcId a : g.out_arcs(v)) {
        terms.push_back({fvar(k, a), 1.0});
        terms.push_back({fvar(k, graph::reverse(a)), -1.0});
      }
      if (terms.empty() && v != ds[k].src && v != ds[k].dst) continue;
      if (v == ds[k].src) {
        terms.push_back({t_base + k, -1.0});
      } else if (v == ds[k].dst) {
        terms.push_back({t_base + k, 1.0});
      }
      prob.add_constraint(std::move(terms), lp::Relation::kEq, 0.0);
    }
  }
  // Capacity per edge.
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (!std::isfinite(edge_capacity[e])) continue;
    std::vector<lp::Term> terms;
    for (std::size_t k = 0; k < nk; ++k) {
      terms.push_back({fvar(k, graph::forward_arc(e)), 1.0});
      terms.push_back({fvar(k, graph::backward_arc(e)), 1.0});
    }
    prob.add_constraint(std::move(terms), lp::Relation::kLessEq,
                        edge_capacity[e] / options.delta);
  }
  // Balance per arc.
  for (ArcId a = 0; a < na; ++a) {
    std::vector<lp::Term> terms;
    for (std::size_t k = 0; k < nk; ++k) {
      terms.push_back({fvar(k, a), 1.0});
      terms.push_back({fvar(k, graph::reverse(a)), -1.0});
    }
    if (rebalancing) terms.push_back({b_base + a, -1.0});
    prob.add_constraint(std::move(terms), lp::Relation::kLessEq, 0.0);
  }
  if (rebalancing && options.rebalancing_budget >= 0) {
    std::vector<lp::Term> terms;
    for (ArcId a = 0; a < na; ++a) terms.push_back({b_base + a, 1.0});
    prob.add_constraint(std::move(terms), lp::Relation::kLessEq,
                        options.rebalancing_budget);
  }

  const lp::Solution sol = lp::solve(prob);
  FluidSolution out;
  out.optimal = sol.optimal();
  if (!out.optimal) return out;
  out.delivered.assign(nk, 0.0);
  for (std::size_t k = 0; k < nk; ++k) {
    out.delivered[k] = sol.x[t_base + k];
    out.throughput += sol.x[t_base + k];
  }
  if (rebalancing) {
    out.arc_rebalancing.assign(na, 0.0);
    for (ArcId a = 0; a < na; ++a) {
      out.arc_rebalancing[a] = sol.x[b_base + a];
      out.rebalancing_rate += sol.x[b_base + a];
    }
  }
  out.objective = std::isfinite(options.gamma)
                      ? out.throughput - options.gamma * out.rebalancing_rate
                      : out.throughput;
  return out;
}

std::vector<double> throughput_vs_rebalancing(
    const Graph& g, std::span<const double> edge_capacity,
    const PaymentGraph& demands, std::span<const double> budgets,
    double delta) {
  std::vector<double> t;
  t.reserve(budgets.size());
  for (const double budget : budgets) {
    FluidOptions opt;
    opt.delta = delta;
    opt.gamma = 0.0;
    opt.rebalancing_budget = std::max(budget, 0.0);
    t.push_back(solve_arc_lp(g, edge_capacity, demands, opt).throughput);
  }
  return t;
}

}  // namespace spider::fluid
