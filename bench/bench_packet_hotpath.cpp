// Packet-level simulator golden on the mid-size ISP topology under the
// fig-6 workload calibration: per trial, the dispatched event count and
// the final sim::Metrics.
//
// It writes BENCH_packet_sim.json (schema documented in EXPERIMENTS.md);
// the bench_packet_hotpath_golden ctest compares a fresh run with the
// committed file. Every field is deterministic (same seed -> identical
// report for any --threads N). perfbench's ripple-packet workload times
// the same event loop (`sim.packet.*.events_per_s`).
//
// Two path-selection variants run per seed replica: "widest" (the
// paper's imbalance-aware default) and "rr+cc" (round-robin paths with
// host congestion control), so both the router-queue and the
// AIMD-backlog hot paths are exercised.

#include <cstdio>

#include "bench_util.hpp"
#include "sim/packet_sim.hpp"

namespace {

using namespace spider;

struct HotpathTrial {
  const char* label;
  std::uint64_t seed;
  sim::UnitPathPolicy path_policy;
  bool congestion_control;
};

struct HotpathResult {
  std::uint64_t events = 0;
  sim::Metrics metrics;
};

struct HotpathConfig {
  std::size_t txns;
  double end_time = 60.0;
  double mtu_units = 10.0;
  double capacity_units = 1200.0;
  double deadline_offset = 20.0;
};

HotpathResult run_hotpath_trial(const graph::Graph& g,
                                const workload::Trace& trace,
                                const HotpathConfig& hc,
                                const HotpathTrial& trial) {
  sim::PacketSimConfig cfg;
  cfg.end_time = hc.end_time;
  cfg.mtu = core::from_units(hc.mtu_units);
  cfg.path_policy = trial.path_policy;
  if (trial.congestion_control) {
    cfg.cc_mode = sim::CongestionControlMode::kFailureWindow;
  }
  cfg.seed = trial.seed;
  sim::PacketSimulator psim(
      g,
      std::vector<core::Amount>(g.edge_count(),
                                core::from_units(hc.capacity_units)),
      cfg);
  for (core::PaymentRequest req : trace) {
    req.deadline = req.arrival + hc.deadline_offset;
    psim.submit(req);
  }
  HotpathResult r;
  r.metrics = psim.run();
  r.events = psim.events_processed();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  bench::print_header("bench_packet_hotpath",
                      "packet-simulator events and metrics (§4 substrate)");
  const bool full = bench::full_scale();
  const exp::Runner runner(args.threads);

  HotpathConfig hc;
  hc.txns = full ? 60000 : 12000;

  const graph::Graph g = exp::make_named_topology("isp32");
  // One fig-6-calibrated ISP trace per seed replica, shared by both
  // path-policy variants so the comparison is paired.
  constexpr std::size_t kSeeds = 2;
  std::vector<workload::Trace> traces;
  traces.reserve(kSeeds);
  for (std::size_t s = 0; s < kSeeds; ++s) {
    traces.push_back(workload::generate_trace(
        g, workload::isp_workload(hc.txns, hc.end_time,
                                  exp::derive_seed(33, s))));
  }

  std::vector<HotpathTrial> trials;
  for (std::size_t s = 0; s < kSeeds; ++s) {
    trials.push_back({"widest", exp::derive_seed(33, s),
                      sim::UnitPathPolicy::kWidest, false});
    trials.push_back({"rr+cc", exp::derive_seed(33, s),
                      sim::UnitPathPolicy::kRoundRobin, true});
  }

  std::printf("running %zu trials on %zu threads (%zu txns each)\n",
              trials.size(), runner.threads(), hc.txns);
  const std::vector<HotpathResult> results =
      runner.map(trials.size(), [&](std::size_t i) {
        return run_hotpath_trial(g, traces[i / 2], hc, trials[i]);
      });

  std::printf("%-10s %10s %12s %13s\n", "variant", "seed", "events",
              "success_ratio");
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const HotpathResult& r = results[i];
    std::printf("%-10s %10llu %12llu %13.3f\n", trials[i].label,
                static_cast<unsigned long long>(trials[i].seed % 100000),
                static_cast<unsigned long long>(r.events),
                r.metrics.success_ratio());
  }

  exp::Json j = exp::Json::object();
  j.set("bench", "packet_hotpath");
  j.set("schema_version", 1);
  j.set("topology", "isp32");
  j.set("workload", "isp");
  j.set("txns", static_cast<std::uint64_t>(hc.txns));
  j.set("end_time", hc.end_time);
  j.set("mtu_units", hc.mtu_units);
  j.set("capacity_units", hc.capacity_units);
  j.set("deadline_offset", hc.deadline_offset);
  exp::Json jtrials = exp::Json::array();
  for (std::size_t i = 0; i < trials.size(); ++i) {
    exp::Json t = exp::Json::object();
    t.set("variant", trials[i].label);
    t.set("seed", trials[i].seed);
    t.set("events", results[i].events);
    t.set("metrics", exp::report::metrics_to_json(results[i].metrics));
    jtrials.push_back(std::move(t));
  }
  j.set("trials", std::move(jtrials));

  const std::string out =
      args.json_out.empty() ? "BENCH_packet_sim.json" : args.json_out;
  exp::write_file(out, j.dump(2) + "\n");
  std::printf("wrote report: %s\n", out.c_str());
  return 0;
}
