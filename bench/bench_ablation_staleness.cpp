// Ablation: how fresh do Spider (Waterfilling)'s path-capacity probes
// need to be? §5.3.1 restricts the path set "so that the overhead of
// probing the path conditions is not too high" -- this bench quantifies
// the other side of that trade-off by refreshing capacity snapshots only
// every T seconds.

#include <cstdio>

#include "bench_util.hpp"
#include "graph/topology.hpp"

int main() {
  using namespace spider;
  bench::print_header("bench_ablation_staleness",
                      "probe-staleness ablation for waterfilling (§5.3.1)");
  const bool full = bench::full_scale();

  const graph::Graph g = graph::topology::make_isp32();
  const std::size_t txns = full ? 100000 : 15000;
  const workload::Trace trace =
      workload::generate_trace(g, workload::isp_workload(txns, 200.0, 81));
  const fluid::PaymentGraph demand =
      workload::estimate_demand(g.node_count(), trace, 200.0);

  auto run = [&](sim::RoutingScheme& scheme) {
    sim::FlowSimConfig cfg;
    cfg.end_time = 200.0;
    cfg.max_retries_per_poll = 2000;
    sim::FlowSimulator fs(
        g, std::vector<core::Amount>(g.edge_count(), core::from_units(3000)),
        scheme, cfg);
    for (const core::PaymentRequest& req : trace) fs.add_payment(req);
    return fs.run(demand);
  };

  std::printf("%-22s %13s %14s\n", "probe refresh", "success_ratio",
              "success_volume");
  {
    schemes::WaterfillingScheme live(4);
    const sim::Metrics m = run(live);
    std::printf("%-22s %13.3f %14.3f\n", "live (paper)", m.success_ratio(),
                m.success_volume());
  }
  for (const double interval : {0.5, 2.0, 10.0, 60.0}) {
    schemes::StaleWaterfillingScheme stale(4, interval);
    const sim::Metrics m = run(stale);
    char label[32];
    std::snprintf(label, sizeof label, "every %.1f s", interval);
    std::printf("%-22s %13.3f %14.3f\n", label, m.success_ratio(),
                m.success_volume());
  }
  std::printf(
      "\nexpectation: imbalance-aware routing degrades gracefully with\n"
      "probe staleness -- mild staleness costs little (probing can be\n"
      "cheap), while minute-old estimates forfeit much of the gain.\n");
  return 0;
}
