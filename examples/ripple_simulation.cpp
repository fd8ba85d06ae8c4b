// Ripple-like end-to-end comparison: generates a scale-free topology and
// a heavy-tailed transaction trace calibrated to the paper's Ripple
// dataset, then runs every routing scheme over the same workload.
//
// Build & run:  ./build/examples/ripple_simulation [nodes] [transactions]

#include <cstdio>
#include <optional>
#include <stdexcept>

#include "core/parse.hpp"
#include "graph/topology.hpp"
#include "schemes/schemes.hpp"
#include "sim/flow_sim.hpp"
#include "workload/workload.hpp"

int main(int argc, char** argv) try {
  using namespace spider;
  using core::from_units;

  const std::optional<std::size_t> nodes =
      argc > 1 ? core::parse_number<std::size_t>(argv[1]) : 150;
  const std::optional<std::size_t> txns =
      argc > 2 ? core::parse_number<std::size_t>(argv[2]) : 4000;
  if (!nodes || !txns) {
    std::fprintf(stderr, "usage: %s [nodes] [transactions]\n", argv[0]);
    return 2;
  }
  const double horizon = 85.0;  // paper: Ripple results collected at 85 s

  const graph::Graph g = graph::topology::make_ripple_like(*nodes, 1);
  const workload::Trace trace =
      workload::generate_trace(g, workload::ripple_workload(*txns, horizon, 2));
  const fluid::PaymentGraph demand =
      workload::estimate_demand(g.node_count(), trace, horizon);
  const workload::TraceStats stats = workload::trace_stats(trace);

  std::printf("Ripple-like network: %zu nodes, %zu channels\n",
              g.node_count(), g.edge_count());
  std::printf("Workload: %zu transactions, mean %.0f, max %.0f units\n\n",
              stats.count, stats.mean_size, stats.max_size);
  std::printf("%-22s %8s %8s %10s %10s\n", "scheme", "ratio", "volume",
              "succeeded", "latency_s");

  for (const std::string& name : schemes::all_scheme_names()) {
    const auto scheme = schemes::make_scheme(name);
    sim::FlowSimConfig cfg;
    cfg.end_time = horizon;
    cfg.delta = 0.5;
    cfg.max_retries_per_poll = 2000;
    sim::FlowSimulator fs(
        g,
        std::vector<core::Amount>(g.edge_count(), from_units(30000 / 10.0)),
        *scheme, cfg);
    for (const core::PaymentRequest& req : trace) fs.add_payment(req);
    const sim::Metrics m = fs.run(demand);
    std::printf("%-22s %8.3f %8.3f %10llu %10.2f\n", name.c_str(),
                m.success_ratio(), m.success_volume(),
                static_cast<unsigned long long>(m.succeeded),
                m.mean_completion_latency());
  }
  std::printf(
      "\n(Qualitative expectation, paper Fig. 6 right: Spider schemes and\n"
      " max-flow lead; SpeedyMurmurs/SilentWhispers trail; Spider-LP's\n"
      " volume tracks the circulation share of the demand.)\n");
  return 0;
} catch (const std::invalid_argument& e) {
  // An out-of-range size (e.g. fewer nodes than the topology needs).
  std::fprintf(stderr, "ripple_simulation: %s\n", e.what());
  return 2;
}
