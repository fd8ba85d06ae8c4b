#include "routing/primal_dual.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace spider::routing {

namespace {

/// Projects x onto { x >= 0, sum x <= cap } in place. `sorted` is scratch
/// of at least x.size() elements. The insertion sort suits the handful of
/// paths one pair has; any correct descending sort yields the same prefix
/// sums, so tau is the same double.
inline void project_in_place(std::span<double> x, double cap,
                             std::span<double> sorted) {
  double total = 0;
  for (double& v : x) {
    v = std::max(v, 0.0);
    total += v;
  }
  if (total <= cap) return;
  // Project onto { x >= 0, sum x == cap }: subtract a common tau from the
  // active coordinates. Sort once, then find the breakpoint.
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t j = i;
    for (; j > 0 && sorted[j - 1] < x[i]; --j) sorted[j] = sorted[j - 1];
    sorted[j] = x[i];
  }
  double prefix = 0;
  double tau = 0;
  for (std::size_t i = 0; i < n; ++i) {
    prefix += sorted[i];
    const double candidate = (prefix - cap) / static_cast<double>(i + 1);
    if (i + 1 == n || sorted[i + 1] <= candidate) {
      tau = candidate;
      break;
    }
  }
  for (double& v : x) v = std::max(v - tau, 0.0);
}

struct DualSteps {
  bool rebalancing;
  double beta;
  double gamma;
  double eta;
  double kappa;
  double idle_factor;  // 1 - idle_price_decay, or 1 when decay is off
};

/// Eq. 22: an arc's rebalancing rate after one step.
inline double rebalanced(double b, double mu, const DualSteps& s) {
  return std::max(0.0, b + s.beta * (mu - s.gamma));
}

/// Eq. 23: a capped channel's capacity price after one step; `load` is
/// the rate on both its arcs and `cap` is c_e / delta.
inline double capacity_price(double lambda, double load, double cap,
                             const DualSteps& s) {
  return std::max(0.0, lambda + s.eta * (load - cap));
}

/// Eq. 24: an arc's imbalance price after one step, scaled by `decay`.
/// Scaling a busy channel's prices by exactly 1.0 leaves them unchanged,
/// so the idle decay needs no branch.
inline double imbalance_price(double mu, double rate, double rate_rev,
                              double b, double decay, const DualSteps& s) {
  return std::max(0.0, mu + s.kappa * (rate - rate_rev - b)) * decay;
}

inline double idle_decay(double rate_f, double rate_r, const DualSteps& s) {
  return (rate_f == 0) & (rate_r == 0) ? s.idle_factor : 1.0;
}

bool is_positive_zero(double v) { return v == 0 && !std::signbit(v); }

}  // namespace

void project_onto_capped_simplex(std::vector<double>& x, double cap) {
  std::vector<double> sorted(x.size());
  project_in_place(x, cap, sorted);
}

PrimalDualResult primal_dual_route(const Graph& g,
                                   std::span<const double> edge_capacity,
                                   const PaymentGraph& demands,
                                   const PathSet& paths,
                                   const PrimalDualOptions& opt) {
  if (edge_capacity.size() != g.edge_count()) {
    throw std::invalid_argument("primal_dual: capacity size != edge count");
  }
  const std::vector<fluid::Demand> ds = demands.demands();
  const DualSteps steps{
      std::isfinite(opt.gamma), opt.beta,  opt.gamma, opt.eta, opt.kappa,
      opt.idle_price_decay > 0 ? 1.0 - opt.idle_price_decay : 1.0};
  const auto capacity_of = [&](EdgeId e) {
    return std::isfinite(edge_capacity[e])
               ? edge_capacity[e] / opt.delta
               : std::numeric_limits<double>::infinity();
  };

  // Flatten (pair, path) variables; remember each pair's variable block.
  struct Block {
    std::size_t first;
    std::size_t count;
    double demand;
  };
  std::vector<Block> blocks(ds.size());
  std::vector<const graph::Path*> var_path;
  std::vector<std::size_t> var_demand;
  std::size_t max_block = 0;
  for (std::size_t k = 0; k < ds.size(); ++k) {
    blocks[k].first = var_path.size();
    blocks[k].demand = ds[k].rate;
    const auto it = paths.find({ds[k].src, ds[k].dst});
    if (it != paths.end()) {
      for (const graph::Path& p : it->second) {
        var_path.push_back(&p);
        var_demand.push_back(k);
      }
    }
    blocks[k].count = var_path.size() - blocks[k].first;
    max_block = std::max(max_block, blocks[k].count);
  }
  const std::size_t nx = var_path.size();

  // Compact channel index. A channel no path crosses carries zero rate in
  // both directions forever, so its dual state stays exactly +0.0 if one
  // idle dual step from +0.0 leaves it there. That holds for nonnegative
  // capacities, steps and gamma and a decay of at most 1; the probe keeps
  // any other channel. The kept channels are numbered capped first, then
  // uncapped, each in edge order. Channel c has forward arc c and
  // backward arc ne + c.
  std::vector<char> used(g.edge_count(), 0);
  for (const graph::Path* p : var_path) {
    for (const ArcId a : p->arcs) used[graph::edge_of(a)] = 1;
  }
  const auto kept = [&](EdgeId e) {
    if (used[e]) return true;
    const double cap = capacity_of(e);
    const double b = steps.rebalancing ? rebalanced(0.0, 0.0, steps) : 0.0;
    const double lambda =
        std::isfinite(cap) ? capacity_price(0.0, 0.0, cap, steps) : 0.0;
    const double mu = imbalance_price(0.0, 0.0, 0.0, b,
                                      idle_decay(0.0, 0.0, steps), steps);
    return !(is_positive_zero(b) && is_positive_zero(lambda) &&
             is_positive_zero(mu));
  };
  std::vector<EdgeId> edge_of_compact;
  std::size_t ncapped = 0;
  for (const bool capped : {true, false}) {
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      if (std::isfinite(capacity_of(e)) == capped && kept(e)) {
        edge_of_compact.push_back(e);
      }
    }
    if (capped) ncapped = edge_of_compact.size();
  }
  const std::size_t ne = edge_of_compact.size();
  std::vector<std::uint32_t> compact(g.edge_count(), 0);
  std::vector<double> cap(ne);
  for (std::size_t c = 0; c < ne; ++c) {
    compact[edge_of_compact[c]] = static_cast<std::uint32_t>(c);
    cap[c] = capacity_of(edge_of_compact[c]);
  }

  // Every path arc as a compact arc index, with the variable it belongs
  // to; variables ascend, and each path's arcs keep their order.
  std::vector<std::uint32_t> arcs;
  std::vector<std::uint32_t> arc_var;
  for (std::size_t v = 0; v < nx; ++v) {
    for (const ArcId a : var_path[v]->arcs) {
      const std::uint32_t c = compact[graph::edge_of(a)];
      arcs.push_back((a & 1u) == 0 ? c : static_cast<std::uint32_t>(ne) + c);
      arc_var.push_back(static_cast<std::uint32_t>(v));
    }
  }

  std::vector<double> x(nx, 0.0);
  std::vector<double> path_price(nx);
  std::vector<double> lambda(ne, 0.0);
  std::vector<double> mu(2 * ne, 0.0);
  std::vector<double> b(2 * ne, 0.0);
  std::vector<double> z(2 * ne, 0.0);         // arc prices, all +0.0 at start
  std::vector<double> arc_rate(2 * ne, 0.0);  // per-arc total rate
  std::vector<double> sorted(max_block);

  PrimalDualResult result;
  for (std::size_t iter = 0; iter < opt.iterations; ++iter) {
    // --- Primal step: per-path gradient + projection (eq. 21). A path's
    // price sums its arc prices in path order. ---
    std::fill(path_price.begin(), path_price.end(), 0.0);
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      path_price[arc_var[i]] += z[arcs[i]];
    }
    for (const Block& blk : blocks) {
      if (blk.count == 0) continue;
      const std::span<double> xs(x.data() + blk.first, blk.count);
      // Marginal utility of this pair's total rate: 1 for throughput;
      // d / sum(x) for proportional fairness (U = d * log sum x), floored
      // to keep the gradient finite near zero.
      double marginal_utility = 1.0;
      if (opt.objective == Objective::kProportionalFairness) {
        const double pair_rate = std::accumulate(xs.begin(), xs.end(), 0.0);
        marginal_utility =
            blk.demand / std::max(pair_rate, 1e-3 * blk.demand);
      }
      for (std::size_t j = 0; j < blk.count; ++j) {
        xs[j] = xs[j] +
                opt.alpha * (marginal_utility - path_price[blk.first + j]);
      }
      project_in_place(xs, blk.demand, sorted);
    }
    // Arc rates sum their paths' rates in variable order. A zero rate
    // adds nothing: the sums start at +0.0 and never hold -0.0.
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      arc_rate[arcs[i]] += x[arc_var[i]];
    }
    // --- Dual step: rebalancing rates and prices (eqs. 22-24), then the
    // arc prices z_a = 2 lambda_e + mu_a - mu_rev(a) for the next primal
    // step. Each is its own loop with no data-dependent branch, so GCC
    // vectorizes it at -O3. ---
    if (steps.rebalancing) {
      for (std::size_t a = 0; a < 2 * ne; ++a) {
        b[a] = rebalanced(b[a], mu[a], steps);
      }
    }
    for (std::size_t c = 0; c < ncapped; ++c) {
      lambda[c] = capacity_price(lambda[c], arc_rate[c] + arc_rate[ne + c],
                                 cap[c], steps);
    }
    for (std::size_t c = 0; c < ne; ++c) {
      const std::size_t r = ne + c;
      const double decay = idle_decay(arc_rate[c], arc_rate[r], steps);
      mu[c] = imbalance_price(mu[c], arc_rate[c], arc_rate[r], b[c], decay,
                              steps);
      mu[r] = imbalance_price(mu[r], arc_rate[r], arc_rate[c], b[r], decay,
                              steps);
    }
    for (std::size_t c = 0; c < ne; ++c) {
      const std::size_t r = ne + c;
      z[c] = 2 * lambda[c] + mu[c] - mu[r];
      z[r] = 2 * lambda[c] + mu[r] - mu[c];
    }
    std::fill(arc_rate.begin(), arc_rate.end(), 0.0);
    if (opt.history_stride != 0 && iter % opt.history_stride == 0) {
      result.history.push_back(std::accumulate(x.begin(), x.end(), 0.0));
    }
  }

  result.throughput = std::accumulate(x.begin(), x.end(), 0.0);
  result.lambda.assign(g.edge_count(), 0.0);
  result.mu.assign(g.arc_count(), 0.0);
  std::vector<double> arc_b(steps.rebalancing ? g.arc_count() : 0, 0.0);
  for (std::size_t c = 0; c < ne; ++c) {
    const EdgeId e = edge_of_compact[c];
    result.lambda[e] = lambda[c];
    result.mu[graph::forward_arc(e)] = mu[c];
    result.mu[graph::backward_arc(e)] = mu[ne + c];
    if (steps.rebalancing) {
      arc_b[graph::forward_arc(e)] = b[c];
      arc_b[graph::backward_arc(e)] = b[ne + c];
    }
  }
  result.rebalancing_rate = std::accumulate(arc_b.begin(), arc_b.end(), 0.0);
  result.objective =
      steps.rebalancing
          ? result.throughput - opt.gamma * result.rebalancing_rate
          : result.throughput;
  for (std::size_t v = 0; v < nx; ++v) {
    if (x[v] > 1e-9) {
      const fluid::Demand& d = ds[var_demand[v]];
      result.flows.push_back(
          fluid::PathFlow{d.src, d.dst, *var_path[v], x[v]});
    }
  }
  return result;
}

}  // namespace spider::routing
