#include "routing/primal_dual.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <random>
#include <string>

#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "fluid/throughput.hpp"
#include "graph/topology.hpp"
#include "workload/workload.hpp"

namespace spider::routing {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(Projection, InsideSetUnchanged) {
  std::vector<double> x{0.5, 0.3};
  project_onto_capped_simplex(x, 2.0);
  EXPECT_DOUBLE_EQ(x[0], 0.5);
  EXPECT_DOUBLE_EQ(x[1], 0.3);
}

TEST(Projection, NegativesClipped) {
  std::vector<double> x{-1.0, 0.5};
  project_onto_capped_simplex(x, 2.0);
  EXPECT_DOUBLE_EQ(x[0], 0.0);
  EXPECT_DOUBLE_EQ(x[1], 0.5);
}

TEST(Projection, OverCapProjectsToSimplexFace) {
  std::vector<double> x{3.0, 1.0};
  project_onto_capped_simplex(x, 2.0);
  EXPECT_NEAR(x[0] + x[1], 2.0, 1e-12);
  // Euclidean projection of (3,1) onto {sum==2}: subtract 1 from each.
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_NEAR(x[1], 0.0, 1e-12);
}

TEST(Projection, UnevenBreakpoint) {
  std::vector<double> x{5.0, 0.1};
  project_onto_capped_simplex(x, 2.0);
  EXPECT_NEAR(x[0] + x[1], 2.0, 1e-12);
  EXPECT_NEAR(x[0], 2.0, 1e-12);  // tau = 3 > 0.1 knocks x[1] to zero
  EXPECT_NEAR(x[1], 0.0, 1e-12);
}

TEST(PrimalDual, ConvergesToFig4OptimumOnAllTrails) {
  const graph::Graph g = graph::topology::make_fig4_example();
  const fluid::PaymentGraph h = fluid::fig4_payment_graph();
  const std::vector<double> cap(g.edge_count(), kInf);
  const fluid::PathSet paths = fluid::all_trails_path_set(g, h);
  PrimalDualOptions opt;
  opt.alpha = 0.02;
  opt.kappa = 0.02;
  opt.eta = 0.02;
  opt.iterations = 30000;
  const PrimalDualResult res = primal_dual_route(g, cap, h, paths, opt);
  // LP optimum is 8 (Proposition 1); primal-dual should approach it.
  EXPECT_NEAR(res.throughput, 8.0, 0.25);
  EXPECT_FALSE(res.history.empty());
}

TEST(PrimalDual, RespectsBalancePrices) {
  // One-way demand on a single channel: balanced throughput must go to 0.
  graph::Graph g(2, {{0, 1}});
  fluid::PaymentGraph h(2);
  h.set_demand(0, 1, 5.0);
  const std::vector<double> cap(g.edge_count(), kInf);
  const fluid::PathSet paths = fluid::k_shortest_path_set(g, h, 1);
  PrimalDualOptions opt;
  opt.iterations = 40000;
  opt.alpha = 0.01;
  opt.kappa = 0.01;
  const PrimalDualResult res = primal_dual_route(g, cap, h, paths, opt);
  EXPECT_LT(res.throughput, 0.6);
}

TEST(PrimalDual, RebalancingRecoversOneWayDemand) {
  graph::Graph g(2, {{0, 1}});
  fluid::PaymentGraph h(2);
  h.set_demand(0, 1, 5.0);
  const std::vector<double> cap(g.edge_count(), kInf);
  const fluid::PathSet paths = fluid::k_shortest_path_set(g, h, 1);
  PrimalDualOptions opt;
  opt.gamma = 0.05;  // cheap rebalancing
  opt.iterations = 40000;
  const PrimalDualResult res = primal_dual_route(g, cap, h, paths, opt);
  EXPECT_NEAR(res.throughput, 5.0, 0.5);
  EXPECT_GT(res.rebalancing_rate, 3.0);
}

TEST(PrimalDual, SymmetricDemandSaturates) {
  // Balanced two-way demand should be fully served.
  graph::Graph g(2, {{0, 1}});
  fluid::PaymentGraph h(2);
  h.set_demand(0, 1, 2.0);
  h.set_demand(1, 0, 2.0);
  const std::vector<double> cap(g.edge_count(), kInf);
  const fluid::PathSet paths = fluid::k_shortest_path_set(g, h, 1);
  PrimalDualOptions opt;
  opt.iterations = 20000;
  const PrimalDualResult res = primal_dual_route(g, cap, h, paths, opt);
  EXPECT_NEAR(res.throughput, 4.0, 0.2);
}

TEST(PrimalDual, CapacityPriceLimitsRate) {
  graph::Graph g(2, {{0, 1}});
  fluid::PaymentGraph h(2);
  h.set_demand(0, 1, 10.0);
  h.set_demand(1, 0, 10.0);
  const std::vector<double> cap(g.edge_count(), 6.0);
  const fluid::PathSet paths = fluid::k_shortest_path_set(g, h, 1);
  PrimalDualOptions opt;
  opt.iterations = 40000;
  opt.alpha = 0.005;
  opt.eta = 0.005;
  opt.kappa = 0.005;
  const PrimalDualResult res = primal_dual_route(g, cap, h, paths, opt);
  // Capacity c/delta = 6 shared across both directions: the price lambda
  // must throttle the total rate near 6, far below the demand of 20.
  EXPECT_GT(res.throughput, 4.5);
  EXPECT_LT(res.throughput, 6.5);
}

TEST(PrimalDual, ProportionalFairnessSharesBottleneck) {
  // Line 0-1-2, both edges capacity 8. Symmetric demands 0<->1 and 0<->2
  // both cross edge (0,1): total throughput is 8 for ANY split a+b = 4,
  // so the throughput objective is indifferent (and in general starves
  // one pair); proportional fairness (equal demands) picks a == b == 2.
  const graph::Graph g = graph::topology::make_line(3);
  fluid::PaymentGraph h(3);
  h.set_demand(0, 1, 10);
  h.set_demand(1, 0, 10);
  h.set_demand(0, 2, 10);
  h.set_demand(2, 0, 10);
  const std::vector<double> cap(g.edge_count(), 8.0);
  const fluid::PathSet paths = fluid::k_shortest_path_set(g, h, 1);
  PrimalDualOptions opt;
  opt.objective = Objective::kProportionalFairness;
  opt.iterations = 60000;
  opt.alpha = 0.002;
  opt.eta = 0.002;
  opt.kappa = 0.002;
  const PrimalDualResult res = primal_dual_route(g, cap, h, paths, opt);
  double near_rate = 0;  // 0 <-> 1
  double far_rate = 0;   // 0 <-> 2
  for (const fluid::PathFlow& f : res.flows) {
    if ((f.src == 0 && f.dst == 1) || (f.src == 1 && f.dst == 0)) {
      near_rate += f.rate;
    } else {
      far_rate += f.rate;
    }
  }
  // Equal demands, equal utilities => both pair-sums approach 4 (a=b=2
  // per direction). Tolerate slow convergence.
  EXPECT_NEAR(near_rate, 4.0, 1.0);
  EXPECT_NEAR(far_rate, 4.0, 1.0);
  EXPECT_GT(far_rate, 1.5) << "fair objective must not starve the far pair";
}

TEST(PrimalDual, IdlePriceDecayRecoversFromOvershoot) {
  // Deliberately large steps overshoot and crash the rates to zero; with
  // eq. 24 alone the prices freeze there (imbalance == 0). The idle
  // decay lets the dynamics recover a positive operating point.
  graph::Graph g(2, {{0, 1}});
  fluid::PaymentGraph h(2);
  h.set_demand(0, 1, 2.0);
  h.set_demand(1, 0, 2.0);
  const std::vector<double> cap(g.edge_count(),
                                std::numeric_limits<double>::infinity());
  const fluid::PathSet paths = fluid::k_shortest_path_set(g, h, 1);
  PrimalDualOptions opt;
  opt.alpha = 1.5;  // way too big: guaranteed overshoot
  opt.kappa = 1.5;
  opt.iterations = 20000;
  opt.idle_price_decay = 0.01;
  const PrimalDualResult res = primal_dual_route(g, cap, h, paths, opt);
  EXPECT_GT(res.throughput, 0.5);
}

TEST(PrimalDual, MismatchedCapacityVectorThrows) {
  const graph::Graph g = graph::topology::make_fig4_example();
  const fluid::PaymentGraph h = fluid::fig4_payment_graph();
  const fluid::PathSet paths = fluid::k_shortest_path_set(g, h, 1);
  EXPECT_THROW(
      (void)primal_dual_route(g, std::vector<double>{1.0}, h, paths),
      std::invalid_argument);
}

TEST(PrimalDual, HistorySampling) {
  const graph::Graph g = graph::topology::make_fig4_example();
  const fluid::PaymentGraph h = fluid::fig4_payment_graph();
  const std::vector<double> cap(g.edge_count(), kInf);
  const fluid::PathSet paths = fluid::k_shortest_path_set(g, h, 2);
  PrimalDualOptions opt;
  opt.iterations = 1000;
  opt.history_stride = 100;
  const PrimalDualResult res = primal_dual_route(g, cap, h, paths, opt);
  EXPECT_EQ(res.history.size(), 10u);
  PrimalDualOptions no_hist = opt;
  no_hist.history_stride = 0;
  EXPECT_TRUE(primal_dual_route(g, cap, h, paths, no_hist).history.empty());
}

/// An instance normalized as Spider (LP) does before its solve: demands
/// scaled so the largest is 1, and uniform channel capacities alike.
struct Normalized {
  PaymentGraph demand;
  std::vector<double> cap;
};

Normalized normalized(const Graph& g, const PaymentGraph& demand,
                      double capacity) {
  double max_rate = 0;
  for (const fluid::Demand& d : demand.demands()) {
    max_rate = std::max(max_rate, d.rate);
  }
  Normalized n{PaymentGraph(demand.node_count()),
               std::vector<double>(g.edge_count(), capacity / max_rate)};
  for (const fluid::Demand& d : demand.demands()) {
    n.demand.set_demand(d.src, d.dst, d.rate / max_rate);
  }
  return n;
}

TEST(PrimalDual, ConvergesToSimplexOptimumOnIsp32) {
  // Paper §5.3: for small enough steps the dynamics of eqs. 21-24 reach
  // the fluid LP optimum. Three isp32 demand estimates (200 ISP-workload
  // payments over 200 s, seeds 1-3; 159-176 pairs, 4 edge-disjoint paths
  // each) are small enough for the exact path-LP simplex. Measured
  // relative gaps after 60k iterations at step 0.05 without idle decay:
  // +0.02%, +0.33% and +0.71% (DESIGN.md §14); the tolerance is twice
  // the worst.
  const graph::Graph g = exp::make_named_topology("isp32");
  for (const std::uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const workload::Trace trace = workload::generate_trace(
        g, workload::isp_workload(200, 200.0, seed));
    const PaymentGraph demand =
        workload::estimate_demand(g.node_count(), trace, 200.0);
    const PathSet paths = fluid::edge_disjoint_path_set(g, demand, 4);
    const auto [scaled, cap] = normalized(g, demand, 3000.0);
    fluid::FluidOptions lp_opt;
    lp_opt.delta = 0.5;
    const fluid::FluidSolution lp =
        fluid::solve_path_lp(g, cap, scaled, paths, lp_opt);
    ASSERT_TRUE(lp.optimal);
    PrimalDualOptions opt;
    opt.delta = 0.5;
    opt.alpha = opt.eta = opt.kappa = 0.05;
    opt.iterations = 60000;
    opt.history_stride = 0;
    const PrimalDualResult res = primal_dual_route(g, cap, scaled, paths, opt);
    EXPECT_NEAR(res.throughput / lp.throughput, 1.0, 0.014);
  }
}

// --- Exactness: the compact kernel against the straightforward loop ---

// The straightforward eq. 21-24 iteration over full-size per-edge and
// per-arc arrays, kept verbatim as the oracle that primal_dual_route()
// must reproduce bit for bit.
void oracle_project(std::vector<double>& x, double cap) {
  for (double& v : x) v = std::max(v, 0.0);
  double total = std::accumulate(x.begin(), x.end(), 0.0);
  if (total <= cap) return;
  std::vector<double> sorted = x;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  double prefix = 0;
  double tau = 0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    prefix += sorted[i];
    const double candidate =
        (prefix - cap) / static_cast<double>(i + 1);
    if (i + 1 == sorted.size() || sorted[i + 1] <= candidate) {
      tau = candidate;
      break;
    }
  }
  for (double& v : x) v = std::max(v - tau, 0.0);
}

PrimalDualResult oracle_route(const Graph& g,
                              std::span<const double> edge_capacity,
                              const PaymentGraph& demands,
                              const PathSet& paths,
                              const PrimalDualOptions& opt) {
  const bool rebalancing = std::isfinite(opt.gamma);
  const std::vector<fluid::Demand> ds = demands.demands();
  struct Block {
    std::size_t first;
    std::size_t count;
    double demand;
  };
  std::vector<Block> blocks(ds.size());
  std::vector<const graph::Path*> var_path;
  std::vector<std::size_t> var_demand;
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
  }
  const std::size_t nx = var_path.size();

  std::vector<double> x(nx, 0.0);
  std::vector<double> lambda(g.edge_count(), 0.0);
  std::vector<double> mu(g.arc_count(), 0.0);
  std::vector<double> b(rebalancing ? g.arc_count() : 0, 0.0);
  std::vector<double> arc_rate(g.arc_count(), 0.0);
  std::vector<double> scratch;

  PrimalDualResult result;
  for (std::size_t iter = 0; iter < opt.iterations; ++iter) {
    for (std::size_t k = 0; k < ds.size(); ++k) {
      const Block& blk = blocks[k];
      if (blk.count == 0) continue;
      double marginal_utility = 1.0;
      if (opt.objective == Objective::kProportionalFairness) {
        double pair_rate = 0;
        for (std::size_t j = 0; j < blk.count; ++j) {
          pair_rate += x[blk.first + j];
        }
        marginal_utility =
            blk.demand / std::max(pair_rate, 1e-3 * blk.demand);
      }
      scratch.assign(blk.count, 0.0);
      for (std::size_t j = 0; j < blk.count; ++j) {
        const std::size_t v = blk.first + j;
        double zp = 0;
        for (const ArcId a : var_path[v]->arcs) {
          const EdgeId e = graph::edge_of(a);
          zp += 2 * lambda[e] + mu[a] - mu[graph::reverse(a)];
        }
        scratch[j] = x[v] + opt.alpha * (marginal_utility - zp);
      }
      oracle_project(scratch, blk.demand);
      for (std::size_t j = 0; j < blk.count; ++j) x[blk.first + j] = scratch[j];
    }
    if (rebalancing) {
      for (ArcId a = 0; a < g.arc_count(); ++a) {
        b[a] = std::max(0.0, b[a] + opt.beta * (mu[a] - opt.gamma));
      }
    }
    std::fill(arc_rate.begin(), arc_rate.end(), 0.0);
    for (std::size_t v = 0; v < nx; ++v) {
      if (x[v] == 0) continue;
      for (const ArcId a : var_path[v]->arcs) arc_rate[a] += x[v];
    }
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      const double load = arc_rate[graph::forward_arc(e)] +
                          arc_rate[graph::backward_arc(e)];
      const double cap = std::isfinite(edge_capacity[e])
                             ? edge_capacity[e] / opt.delta
                             : std::numeric_limits<double>::infinity();
      if (std::isfinite(cap)) {
        lambda[e] = std::max(0.0, lambda[e] + opt.eta * (load - cap));
      }
    }
    for (ArcId a = 0; a < g.arc_count(); ++a) {
      const double imbalance = arc_rate[a] - arc_rate[graph::reverse(a)] -
                               (rebalancing ? b[a] : 0.0);
      mu[a] = std::max(0.0, mu[a] + opt.kappa * imbalance);
      if (opt.idle_price_decay > 0 && arc_rate[a] == 0 &&
          arc_rate[graph::reverse(a)] == 0) {
        mu[a] *= 1.0 - opt.idle_price_decay;
      }
    }
    if (opt.history_stride != 0 && iter % opt.history_stride == 0) {
      result.history.push_back(std::accumulate(x.begin(), x.end(), 0.0));
    }
  }

  result.throughput = std::accumulate(x.begin(), x.end(), 0.0);
  result.rebalancing_rate = std::accumulate(b.begin(), b.end(), 0.0);
  result.objective =
      rebalancing ? result.throughput - opt.gamma * result.rebalancing_rate
                  : result.throughput;
  result.lambda = std::move(lambda);
  result.mu = std::move(mu);
  for (std::size_t v = 0; v < nx; ++v) {
    if (x[v] > 1e-9) {
      const fluid::Demand& d = ds[var_demand[v]];
      result.flows.push_back(
          fluid::PathFlow{d.src, d.dst, *var_path[v], x[v]});
    }
  }
  return result;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Runs the kernel and the oracle and requires every output to match bit
/// for bit. Returns the oracle's result.
PrimalDualResult expect_matches_oracle(const Graph& g,
                                       const std::vector<double>& cap,
                                       const PaymentGraph& h,
                                       const PathSet& paths,
                                       const PrimalDualOptions& opt,
                                       const std::string& where) {
  SCOPED_TRACE(where);
  const PrimalDualResult got = primal_dual_route(g, cap, h, paths, opt);
  const PrimalDualResult want = oracle_route(g, cap, h, paths, opt);
  EXPECT_TRUE(same_bits(got.throughput, want.throughput));
  EXPECT_TRUE(same_bits(got.rebalancing_rate, want.rebalancing_rate));
  EXPECT_TRUE(same_bits(got.objective, want.objective));
  EXPECT_TRUE(same_bits(got.lambda, want.lambda));
  EXPECT_TRUE(same_bits(got.mu, want.mu));
  EXPECT_TRUE(same_bits(got.history, want.history));
  EXPECT_EQ(got.flows.size(), want.flows.size());
  for (std::size_t i = 0; i < std::min(got.flows.size(), want.flows.size());
       ++i) {
    EXPECT_EQ(got.flows[i].src, want.flows[i].src);
    EXPECT_EQ(got.flows[i].dst, want.flows[i].dst);
    EXPECT_EQ(got.flows[i].path, want.flows[i].path);
    EXPECT_TRUE(same_bits(got.flows[i].rate, want.flows[i].rate));
  }
  return want;
}

bool any_positive(const std::vector<double>& v) {
  return std::any_of(v.begin(), v.end(), [](double d) { return d > 0; });
}

TEST(PrimalDualExactness, ProjectionMatchesOracle) {
  std::vector<std::vector<double>> cases = {
      {-1.0, 0.5, -0.0, 2.0},        // negatives and -0.0, over the cap
      {-0.0, -0.0},                  // all -0.0, inside
      {1.5, 1.5, 1.5, -2.0},         // ties at the breakpoint
      {0.75, -0.0, 0.0, 0.75},       // +0.0 and -0.0 tie inside the sort
      {3.0, 3.0, 0.5, 0.5},          // two tied pairs
      {1.0, 1.0},                    // sum exactly the cap
      {-3.0, -1.0, -0.5},            // all clipped
      {},                            // empty
  };
  std::mt19937_64 rng(53);
  std::uniform_real_distribution<double> val(-2.0, 3.0);
  for (int i = 0; i < 500; ++i) {
    std::vector<double> x(1 + rng() % 6);
    // Few distinct values, so ties and exact zeros are common.
    for (double& v : x) v = std::round(val(rng) * 2) / 2;
    cases.push_back(std::move(x));
  }
  for (const double cap : {2.0, 0.0, 1.25}) {
    for (const std::vector<double>& c : cases) {
      std::vector<double> got = c;
      std::vector<double> want = c;
      project_onto_capped_simplex(got, cap);
      oracle_project(want, cap);
      EXPECT_TRUE(same_bits(got, want));
    }
  }
}

/// Random multigraph (parallel edges allowed) with random demands; both
/// path-set builders appear so paths share channels in varied ways.
struct Instance {
  Graph g;
  PaymentGraph h{0};
  PathSet paths;
};

Instance random_instance(std::mt19937_64& rng) {
  const std::size_t n = 3 + rng() % 6;
  std::vector<graph::EdgeEnds> edges(n + rng() % (2 * n));
  for (graph::EdgeEnds& ed : edges) {
    ed.u = static_cast<graph::NodeId>(rng() % n);
    ed.v = static_cast<graph::NodeId>(rng() % (n - 1));
    if (ed.v >= ed.u) ++ed.v;
  }
  Instance in{Graph(n, edges), PaymentGraph(n), {}};
  const std::size_t pairs = 1 + rng() % (2 * n);
  for (std::size_t i = 0; i < pairs; ++i) {
    const auto s = static_cast<graph::NodeId>(rng() % n);
    const auto t = static_cast<graph::NodeId>(rng() % n);
    if (s != t) {
      in.h.set_demand(s, t, 0.25 * static_cast<double>(1 + rng() % 20));
    }
  }
  const std::size_t k = 1 + rng() % 4;
  in.paths = rng() % 2 == 0 ? fluid::edge_disjoint_path_set(in.g, in.h, k)
                            : fluid::k_shortest_path_set(in.g, in.h, k);
  return in;
}

TEST(PrimalDualExactness, RandomMultigraphsEveryOptionMatchOracle) {
  std::mt19937_64 rng(2018);
  const double steps[] = {0.002, 0.01, 0.05, 0.4};
  // How often each price and the rebalancing rate end up positive, so the
  // comparison is known to cover every update.
  int lambda_runs = 0;
  int mu_runs = 0;
  int rebalancing_runs = 0;
  int runs = 0;
  for (int round = 0; round < 10; ++round) {
    const Instance in = random_instance(rng);
    PrimalDualOptions base;
    base.alpha = steps[rng() % 4];
    base.beta = steps[rng() % 4];
    base.eta = steps[rng() % 4];
    base.kappa = steps[rng() % 4];
    base.delta = round % 2 == 0 ? 1.0 : 0.5;
    base.iterations = 400;
    for (int caps = 0; caps < 3; ++caps) {
      // 0: finite, 1: unconstrained, 2: a mix of finite, infinite and zero.
      std::vector<double> cap(in.g.edge_count());
      for (double& c : cap) {
        const double finite = 0.5 * static_cast<double>(1 + rng() % 12);
        const int kind = caps == 2 ? static_cast<int>(rng() % 3) : caps;
        c = kind == 0 ? finite : kind == 1 ? kInf : 0.0;
      }
      for (const Objective obj :
           {Objective::kThroughput, Objective::kProportionalFairness}) {
        for (const double gamma : {kInf, 0.05}) {
          for (const double decay : {0.0, 0.002}) {
            for (const std::size_t stride : {0, 7}) {
              PrimalDualOptions opt = base;
              opt.objective = obj;
              opt.gamma = gamma;
              opt.idle_price_decay = decay;
              opt.history_stride = stride;
              const PrimalDualResult want = expect_matches_oracle(
                  in.g, cap, in.h, in.paths, opt,
                  "round " + std::to_string(round) + " caps " +
                      std::to_string(caps) + " obj " +
                      std::to_string(static_cast<int>(obj)) + " gamma " +
                      std::to_string(gamma) + " decay " +
                      std::to_string(decay) + " stride " +
                      std::to_string(stride));
              lambda_runs += any_positive(want.lambda);
              mu_runs += any_positive(want.mu);
              rebalancing_runs += want.rebalancing_rate > 0;
              ++runs;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(runs, 480);
  EXPECT_GT(lambda_runs, runs / 10);
  EXPECT_GT(mu_runs, runs / 2);
  EXPECT_GT(rebalancing_runs, runs / 10);
}

TEST(PrimalDualExactness, IdleChannelsWhosePricesMoveMatchOracle) {
  // A negative capacity, a negative gamma and a decay above 1 each move
  // the prices of a channel no path uses; the kernel must keep such
  // channels and still match.
  std::mt19937_64 rng(7);
  int moved = 0;  // runs where a channel off every path ends up priced
  for (int round = 0; round < 6; ++round) {
    const Instance in = random_instance(rng);
    std::vector<double> cap(in.g.edge_count(), 4.0);
    for (std::size_t e = 0; e < cap.size(); e += 3) cap[e] = -1.0;
    PrimalDualOptions opt;
    opt.iterations = 300;
    opt.history_stride = 5;
    opt.gamma = round % 2 == 0 ? -0.05 : 0.05;
    opt.idle_price_decay = round % 3 == 0 ? 1.5 : 0.002;
    const PrimalDualResult want = expect_matches_oracle(
        in.g, cap, in.h, in.paths, opt, "round " + std::to_string(round));
    std::vector<char> on_path(in.g.edge_count(), 0);
    for (const auto& [pair, ps] : in.paths) {
      for (const graph::Path& p : ps) {
        for (const ArcId a : p.arcs) on_path[graph::edge_of(a)] = 1;
      }
    }
    for (EdgeId e = 0; e < in.g.edge_count(); ++e) {
      if (!on_path[e] && want.lambda[e] != 0) {
        ++moved;
        break;
      }
    }
  }
  EXPECT_GT(moved, 0);
}

/// The fig-6 Spider (LP) solve of the repo benchmark at seed 1: its trace,
/// demand estimate, 4 edge-disjoint paths per pair and 3,000-unit
/// channels, normalized and configured as SpiderLpScheme::prepare does.
void expect_fig6_instance_matches(const std::string& topology) {
  const std::uint64_t wseed = exp::derive_seed(0x5350494445524245ULL, 1);
  const Graph g = exp::make_named_topology(topology);
  const bool isp = topology == "isp32";
  const double end_time = isp ? 200.0 : 85.0;
  const workload::Trace trace = workload::generate_trace(
      g, isp ? workload::isp_workload(10000, end_time, wseed)
             : workload::ripple_workload(800, end_time, wseed));
  const PaymentGraph demand =
      workload::estimate_demand(g.node_count(), trace, end_time);
  ASSERT_LE(demand.demand_count(), 2000u);  // no top-pairs truncation
  const PathSet paths = fluid::edge_disjoint_path_set(g, demand, 4);
  const auto [scaled, cap] = normalized(g, demand, 3000.0);
  PrimalDualOptions opt;
  opt.delta = 0.5;
  opt.iterations = 300;
  opt.history_stride = 0;
  opt.alpha = opt.eta = opt.kappa = 0.002;
  opt.idle_price_decay = 0.002;
  const PrimalDualResult want =
      expect_matches_oracle(g, cap, scaled, paths, opt, topology);
  EXPECT_FALSE(want.flows.empty());
  EXPECT_TRUE(any_positive(want.mu));
  opt.history_stride = 7;
  opt.objective = Objective::kProportionalFairness;
  opt.gamma = 0.05;
  expect_matches_oracle(g, cap, scaled, paths, opt, topology + " fair");
}

TEST(PrimalDualExactness, Fig6Isp32InstanceMatchesOracle) {
  expect_fig6_instance_matches("isp32");
}

TEST(PrimalDualExactness, Fig6Ripple3774InstanceMatchesOracle) {
  expect_fig6_instance_matches("ripple-3774");
}

}  // namespace
}  // namespace spider::routing
