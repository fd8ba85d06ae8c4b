// Hot-path microbenchmark of the packet-level simulator: events/sec of
// the discrete-event engine and end-to-end trial wall time on the
// mid-size ISP topology under the fig-6 workload calibration.
//
// This bench seeds the repository's performance trajectory: it writes
// BENCH_packet_sim.json (schema documented in EXPERIMENTS.md) and CI
// compares a fresh run against the committed baseline, failing on a
// >20% events/sec regression. The *metrics* in the report are
// deterministic (same seed -> identical sim::Metrics for any --threads
// N); only the wall-time / events-per-sec fields vary run to run.
//
// Two path-selection variants run per seed replica: "widest" (the
// paper's imbalance-aware default) and "rr+cc" (round-robin paths with
// host congestion control), so both the router-queue and the
// AIMD-backlog hot paths are exercised.

#include <chrono>
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
  double wall_seconds = 0;
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
  for (const workload::Transaction& tx : trace) {
    core::PaymentRequest req;
    req.src = tx.src;
    req.dst = tx.dst;
    req.amount = tx.amount;
    req.arrival = tx.arrival;
    req.deadline = tx.arrival + hc.deadline_offset;
    psim.submit(req);
  }
  HotpathResult r;
  const auto t0 = std::chrono::steady_clock::now();
  r.metrics = psim.run();
  r.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  r.events = psim.events_processed();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  bench::print_header("bench_packet_hotpath",
                      "packet-simulator hot path (events/sec, §4 substrate)");
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

  std::printf("%-10s %10s %12s %10s %14s %13s\n", "variant", "seed",
              "events", "wall_s", "events/sec", "success_ratio");
  std::uint64_t total_events = 0;
  double total_wall = 0;
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const HotpathResult& r = results[i];
    total_events += r.events;
    total_wall += r.wall_seconds;
    std::printf("%-10s %10llu %12llu %10.3f %14.0f %13.3f\n", trials[i].label,
                static_cast<unsigned long long>(trials[i].seed % 100000),
                static_cast<unsigned long long>(r.events), r.wall_seconds,
                static_cast<double>(r.events) / r.wall_seconds,
                r.metrics.success_ratio());
  }
  const double agg_eps = static_cast<double>(total_events) / total_wall;
  std::printf("\naggregate: %llu events in %.3f s = %.0f events/sec\n",
              static_cast<unsigned long long>(total_events), total_wall,
              agg_eps);

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
  j.set("threads", static_cast<std::uint64_t>(runner.threads()));
  exp::Json jtrials = exp::Json::array();
  for (std::size_t i = 0; i < trials.size(); ++i) {
    exp::Json t = exp::Json::object();
    t.set("variant", trials[i].label);
    t.set("seed", trials[i].seed);
    t.set("events", results[i].events);
    t.set("wall_seconds", results[i].wall_seconds);
    t.set("events_per_sec",
          static_cast<double>(results[i].events) / results[i].wall_seconds);
    t.set("metrics", exp::report::metrics_to_json(results[i].metrics));
    jtrials.push_back(std::move(t));
  }
  j.set("trials", std::move(jtrials));
  exp::Json agg = exp::Json::object();
  agg.set("events", total_events);
  agg.set("wall_seconds", total_wall);
  agg.set("events_per_sec", agg_eps);
  j.set("aggregate", std::move(agg));

  const std::string out =
      args.json_out.empty() ? "BENCH_packet_sim.json" : args.json_out;
  exp::write_file(out, j.dump(2) + "\n");
  std::printf("wrote report: %s\n", out.c_str());
  return 0;
}
