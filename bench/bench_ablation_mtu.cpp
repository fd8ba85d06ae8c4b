// Ablation on the packet-level architecture (§4): transaction-unit size
// (MTU). Packet switching is the paper's central architectural claim --
// an MTU as large as the payment degenerates to circuit switching and
// suffers head-of-line blocking; small MTUs split and interleave.
// Also compares the per-unit path policies (widest vs round-robin).

#include <cstdio>

#include "bench_util.hpp"
#include "graph/topology.hpp"
#include "sim/packet_sim.hpp"

namespace {

using namespace spider;

sim::Metrics run_packet(const graph::Graph& g, const workload::Trace& trace,
                        core::Amount mtu, sim::UnitPathPolicy policy,
                        bool congestion_control = false) {
  sim::PacketSimConfig cfg;
  cfg.end_time = 60.0;
  cfg.mtu = mtu;
  cfg.path_policy = policy;
  cfg.router_policy = core::SchedulingPolicy::kSrpt;
  if (congestion_control) {
    cfg.cc_mode = sim::CongestionControlMode::kFailureWindow;
  }
  sim::PacketSimulator psim(
      g, std::vector<core::Amount>(g.edge_count(), core::from_units(600)),
      cfg);
  for (core::PaymentRequest req : trace) {
    req.deadline = req.arrival + 20.0;  // bounded queueing
    psim.submit(req);
  }
  return psim.run();
}

}  // namespace

int main() {
  bench::print_header("bench_ablation_mtu",
                      "MTU ablation on the packet-level architecture (§4)");
  const bool full = bench::full_scale();

  const graph::Graph g = graph::topology::make_isp32();
  const std::size_t txns = full ? 20000 : 4000;
  const workload::Trace trace =
      workload::generate_trace(g, workload::isp_workload(txns, 60.0, 61));

  std::printf("%-22s %13s %14s %12s\n", "mtu (units)", "success_ratio",
              "success_volume", "units_sent");
  for (const double mtu_units : {5.0, 20.0, 100.0, 500.0, 2000.0}) {
    const sim::Metrics m = run_packet(g, trace, core::from_units(mtu_units),
                                      sim::UnitPathPolicy::kWidest);
    std::printf("%-22.0f %13.3f %14.3f %12llu\n", mtu_units,
                m.success_ratio(), m.success_volume(),
                static_cast<unsigned long long>(m.units_sent));
  }
  std::printf("(mtu 2000 > every payment: effectively circuit switching)\n");

  std::printf("\nper-unit path policy at mtu=20:\n");
  std::printf("%-22s %13s %14s\n", "policy", "success_ratio",
              "success_volume");
  for (const auto& [policy, label] :
       {std::pair{sim::UnitPathPolicy::kWidest, "widest (imbalance-aware)"},
        std::pair{sim::UnitPathPolicy::kRoundRobin, "round-robin"}}) {
    const sim::Metrics m =
        run_packet(g, trace, core::from_units(20.0), policy);
    std::printf("%-22s %13.3f %14.3f\n", label, m.success_ratio(),
                m.success_volume());
  }
  std::printf("\nhost congestion control (AIMD window, §4.1) at mtu=20:\n");
  std::printf("%-22s %13s %14s %12s\n", "congestion control",
              "success_ratio", "success_volume", "units_sent");
  for (const bool cc : {false, true}) {
    const sim::Metrics m = run_packet(g, trace, core::from_units(20.0),
                                      sim::UnitPathPolicy::kWidest, cc);
    std::printf("%-22s %13.3f %14.3f %12llu\n", cc ? "on" : "off",
                m.success_ratio(), m.success_volume(),
                static_cast<unsigned long long>(m.units_sent));
  }

  std::printf(
      "\npaper expectation (§4): packet switching avoids head-of-line\n"
      "blocking -- small MTUs deliver the most *volume* because large\n"
      "payments complete partially instead of stranding; huge MTUs\n"
      "(circuit switching) lift the whole-payment ratio only by\n"
      "abandoning the large payments entirely. Imbalance-aware unit\n"
      "placement beats round-robin on both metrics (§5).\n");
  return 0;
}
