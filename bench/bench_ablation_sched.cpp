// Ablation: scheduling policy of the global incomplete-payment queue.
// The paper's evaluation schedules by SRPT [8] and credits it (together
// with packet switching) for a ~10% success-ratio gain; this bench swaps
// in FIFO, LIFO and EDF on the identical workload.
//
// Both grids run on exp::Runner (`--threads N`): the flow-level
// (policy x scheme) grid through exp::run_trials, the packet-level
// policy sweep through Runner::map with a local trial function.

#include <cstdio>

#include "bench_util.hpp"
#include "graph/topology.hpp"
#include "sim/packet_sim.hpp"

int main(int argc, char** argv) {
  using namespace spider;
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  bench::print_header("bench_ablation_sched",
                      "retry-queue scheduling ablation (§6.1, SRPT [8])");
  const bool full = bench::full_scale();
  const exp::Runner runner(args.threads);

  const std::pair<core::SchedulingPolicy, const char*> policies[] = {
      {core::SchedulingPolicy::kSrpt, "srpt (paper)"},
      {core::SchedulingPolicy::kFifo, "fifo"},
      {core::SchedulingPolicy::kLifo, "lifo"},
      {core::SchedulingPolicy::kEdf, "edf"},
  };
  const char* flow_schemes[] = {"shortest-path", "spider-waterfilling"};

  std::vector<exp::TrialSpec> trials;
  for (const char* scheme_name : flow_schemes) {
    for (const auto& [policy, label] : policies) {
      exp::TrialSpec t;
      t.scheme = scheme_name;
      t.topology = "isp32";
      t.workload = "isp";
      t.workload_seed = 41;  // pinned: reproduces the published table
      t.txns = full ? 100000 : 15000;
      t.end_time = 200.0;
      t.capacity_units = 3000.0;
      t.retry_policy = policy;
      // EDF needs deadlines to differ; give each payment 30 s.
      t.deadline_offset = 30.0;
      trials.push_back(std::move(t));
    }
  }
  std::printf("running %zu flow trials on %zu threads\n", trials.size(),
              runner.threads());
  const std::vector<exp::TrialResult> results =
      exp::run_trials(trials, runner);

  constexpr std::size_t kPolicies = std::size(policies);
  for (std::size_t si = 0; si < std::size(flow_schemes); ++si) {
    std::printf("\nscheme: %s\n", flow_schemes[si]);
    std::printf("%-16s %13s %14s %10s\n", "policy", "success_ratio",
                "success_volume", "succeeded");
    for (std::size_t pi = 0; pi < kPolicies; ++pi) {
      const sim::Metrics& m = results[si * kPolicies + pi].metrics;
      std::printf("%-16s %13.3f %14.3f %10llu\n", policies[pi].second,
                  m.success_ratio(), m.success_volume(),
                  static_cast<unsigned long long>(m.succeeded));
    }
  }

  // In-network queues too (§4.2: routers "schedule transaction units
  // based on payment requirements"): sweep the router queue policy in
  // the packet-level simulator, one Runner::map slot per policy.
  const graph::Graph g = graph::topology::make_isp32();
  const workload::Trace ptrace = workload::generate_trace(
      g, workload::isp_workload(full ? 20000 : 4000, 60.0, 42));
  const std::vector<sim::Metrics> packet_metrics = runner.map(
      kPolicies, [&](std::size_t pi) {
        sim::PacketSimConfig pcfg;
        pcfg.end_time = 60.0;
        pcfg.mtu = core::from_units(20);
        pcfg.router_policy = policies[pi].first;
        sim::PacketSimulator psim(
            g,
            std::vector<core::Amount>(g.edge_count(), core::from_units(600)),
            pcfg);
        for (core::PaymentRequest req : ptrace) {
          req.deadline = req.arrival + 20.0;
          psim.submit(req);
        }
        return psim.run();
      });

  std::printf("\npacket-level router queue policy (§4.2), mtu=20:\n");
  std::printf("%-16s %13s %14s\n", "policy", "success_ratio",
              "success_volume");
  for (std::size_t pi = 0; pi < kPolicies; ++pi) {
    std::printf("%-16s %13.3f %14.3f\n", policies[pi].second,
                packet_metrics[pi].success_ratio(),
                packet_metrics[pi].success_volume());
  }

  std::printf("\npaper expectation: SRPT completes the most payments\n"
              "(small remainders finish first, freeing channel funds).\n");
  bench::write_bench_reports(args, "ablation_sched", results,
                             runner.threads());
  return 0;
}
