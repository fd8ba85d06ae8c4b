// spider_cli: command-line front-end for running payment-channel-network
// simulations without writing code.
//
//   spider_cli --topology isp32 --scheme spider-waterfilling \
//              --txns 20000 --duration 200 --capacity 3000 --seed 1
//
// Topologies:  isp32 | ring:N | grid:RxC | ripple:N | lightning:N | er:N
//              plus the sweep layer's dash names (ripple-3774,
//              lightning-100k, er-500, ...) with their fixed seeds
// Schemes:     silent-whispers speedy-murmurs shortest-path max-flow
//              spider-waterfilling spider-lp spider-primal-dual
// Workloads:   isp (mean 170/max 1780) | ripple (mean 345/max 2892)
// Policies:    srpt fifo lifo edf

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

#include "core/parse.hpp"
#include "exp/sweep.hpp"
#include "graph/topology.hpp"
#include "schemes/schemes.hpp"
#include "sim/flow_sim.hpp"
#include "workload/workload.hpp"

namespace {

using namespace spider;

[[noreturn]] void usage(const char* msg) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n", msg);
  std::fprintf(stderr,
               "usage: spider_cli [--topology T] [--scheme S] [--txns N]\n"
               "                  [--duration SECONDS] [--capacity UNITS]\n"
               "                  [--workload isp|ripple] [--policy P]\n"
               "                  [--seed N] [--fee-ppm N] [--rebalance]\n"
               "                  [--series]\n");
  std::exit(2);
}

/// Node count of a "kind:N" topology spec.
std::size_t topology_size(std::string_view text) {
  const std::optional<std::size_t> n = core::parse_number<std::size_t>(text);
  if (!n) usage("bad topology size");
  return *n;
}

graph::Graph parse_topology(const std::string& spec, std::uint64_t seed) {
  const auto colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  const std::string arg =
      colon == std::string::npos ? "" : spec.substr(colon + 1);
  if (kind == "isp32") return graph::topology::make_isp32();
  if (kind == "ring") return graph::topology::make_ring(topology_size(arg));
  if (kind == "ripple") {
    return graph::topology::make_ripple_like(topology_size(arg), seed);
  }
  if (kind == "lightning") {
    return graph::topology::make_lightning_like(topology_size(arg), seed);
  }
  if (kind == "er") {
    return graph::topology::make_erdos_renyi(topology_size(arg), 0.2, seed);
  }
  if (kind == "grid") {
    const auto x = arg.find('x');
    if (x == std::string::npos) usage("grid needs RxC");
    return graph::topology::make_grid(topology_size(arg.substr(0, x)),
                                      topology_size(arg.substr(x + 1)));
  }
  // Fall back to the sweep layer's dash-named topologies
  // (ripple-3774, lightning-100k, ...), which carry fixed seeds so
  // they match sweep_cli/bench output for the same name.
  try {
    return exp::make_named_topology(spec);
  } catch (const std::invalid_argument&) {
    usage("unknown topology");
  }
}

core::SchedulingPolicy parse_policy(const std::string& p) {
  if (p == "srpt") return core::SchedulingPolicy::kSrpt;
  if (p == "fifo") return core::SchedulingPolicy::kFifo;
  if (p == "lifo") return core::SchedulingPolicy::kLifo;
  if (p == "edf") return core::SchedulingPolicy::kEdf;
  usage("unknown policy");
}

}  // namespace

int main(int argc, char** argv) {
  std::string topology = "isp32";
  std::string scheme_name = "spider-waterfilling";
  std::string workload_kind = "isp";
  std::size_t txns = 10000;
  double duration = 100.0;
  double capacity = 3000.0;
  std::uint64_t seed = 1;
  std::int64_t fee_ppm = 0;
  bool rebalance = false;
  bool series = false;
  core::SchedulingPolicy policy = core::SchedulingPolicy::kSrpt;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    // Whole-field numbers only: "12abc" or "abc" is a usage error.
    auto number = [&](auto& out) {
      const std::string text = next();
      const auto v =
          core::parse_number<std::remove_reference_t<decltype(out)>>(text);
      if (!v) usage(("bad value for " + a + ": " + text).c_str());
      out = *v;
    };
    if (a == "--topology") topology = next();
    else if (a == "--scheme") scheme_name = next();
    else if (a == "--workload") workload_kind = next();
    else if (a == "--txns") number(txns);
    else if (a == "--duration") number(duration);
    else if (a == "--capacity") number(capacity);
    else if (a == "--seed") number(seed);
    else if (a == "--fee-ppm") number(fee_ppm);
    else if (a == "--policy") policy = parse_policy(next());
    else if (a == "--rebalance") rebalance = true;
    else if (a == "--series") series = true;
    else if (a == "--help" || a == "-h") usage(nullptr);
    else usage(("unknown flag " + a).c_str());
  }

  if (!core::positive_finite(duration)) {
    usage("--duration must be positive and finite");
  }

  const graph::Graph g = parse_topology(topology, seed);
  const workload::WorkloadConfig wcfg =
      workload_kind == "ripple"
          ? workload::ripple_workload(txns, duration, seed)
          : workload::isp_workload(txns, duration, seed);
  if (workload_kind != "isp" && workload_kind != "ripple") {
    usage("unknown workload");
  }
  // The library validates the rest (scheme name, capacity, ...); a bad
  // value is a usage error, not an abort.
  sim::Metrics m;
  try {
    const workload::Trace trace = workload::generate_trace(g, wcfg);
    const fluid::PaymentGraph demand =
        workload::estimate_demand(g.node_count(), trace, duration);

    const auto scheme = schemes::make_scheme(scheme_name);
    sim::FlowSimConfig cfg;
    cfg.end_time = duration;
    cfg.retry_policy = policy;
    cfg.max_retries_per_poll = 2000;
    cfg.enable_rebalancing = rebalance;
    cfg.fee_policy.proportional_ppm = fee_ppm;
    cfg.collect_series = series;
    sim::FlowSimulator fs(
        g,
        std::vector<core::Amount>(g.edge_count(), core::from_units(capacity)),
        *scheme, cfg);
    for (const core::PaymentRequest& req : trace) fs.add_payment(req);
    m = fs.run(demand);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }

  std::printf("topology=%s nodes=%zu edges=%zu scheme=%s workload=%s\n",
              topology.c_str(), g.node_count(), g.edge_count(),
              scheme_name.c_str(), workload_kind.c_str());
  std::printf("txns=%zu duration=%.0fs capacity=%.0f policy=%s seed=%llu\n",
              txns, duration, capacity, core::to_string(policy).c_str(),
              static_cast<unsigned long long>(seed));
  std::printf("%s\n", m.summary().c_str());
  std::printf("mean_latency=%.3fs units_sent=%llu attempts=%llu\n",
              m.mean_completion_latency(),
              static_cast<unsigned long long>(m.units_sent),
              static_cast<unsigned long long>(m.total_attempt_rounds));
  if (rebalance) {
    std::printf("rebalance_events=%llu rebalanced_volume=%.1f\n",
                static_cast<unsigned long long>(m.rebalance_events),
                core::to_units(m.rebalanced_volume));
  }
  if (fee_ppm > 0) {
    std::printf("router_fee_revenue=%.3f\n", core::to_units(m.fees_paid));
  }
  if (series) {
    std::printf("delivered per %.0fs bucket:", m.series_bucket);
    for (const double v : m.delivered_series) std::printf(" %.0f", v);
    std::printf("\n");
  }
  return 0;
}
