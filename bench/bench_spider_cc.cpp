// Spider-cc evaluation sweep (NSDI congestion control, arXiv:1809.05088
// §5, grafted onto this repo's HotNets §4 substrate): success ratio of
// the AIMD/marking protocol ("spider-cc") against the ungated per-unit
// waterfilling baseline ("packet-widest") on paired traces, all on
// sim::PacketSimulator. Three blocks:
//
//   fig6    scheme comparison on isp32 + full-Ripple (3774 nodes) at
//           fixed capacity,
//           no deadlines -- the regime where ungated flooding gridlocks
//           (stuck units hold their hop locks forever) and windows keep
//           the network live;
//   fig7    capacity sweep on isp32 (both schemes, one seed);
//   faults  the fig6 isp32 point under churn / withholding profiles.
//
// The committed BENCH_spider_cc.json at the repo root pins the
// reduced-scale output; the bench_spider_cc_golden ctest re-runs this
// bench and checks the deterministic fields against it. The bench exits
// nonzero if spider-cc's mean fig-6 success ratio drops below the
// baseline's on any topology, so the headline claim is test-enforced.

#include <chrono>
#include <cstdio>

#include "bench_util.hpp"

namespace {

using namespace spider;

constexpr const char* kSchemes[] = {"spider-cc", "packet-widest"};

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  bench::print_header("bench_spider_cc",
                      "spider-cc vs ungated waterfilling (packet sim, "
                      "NSDI §5 congestion control)");
  const bool full = bench::full_scale();

  const std::size_t fig6_txns = full ? 20000 : 12000;
  const std::size_t fig6_seeds = 2;
  const std::vector<std::string> fig6_topologies = {"isp32", "ripple-3774"};
  const std::vector<double> fig7_caps =
      full ? std::vector<double>{1000, 2000, 3000, 5000, 10000}
           : std::vector<double>{1000, 3000, 10000};
  const std::vector<std::string> fault_profiles = {
      "churn=0.05;downtime=5;close=0.005;seed=97",
      "withhold=0.05;hold=2;stale=0.02;staledur=5;seed=97",
  };

  const auto base_spec = [&](const char* scheme,
                             const std::string& topology,
                             std::size_t seed_index) {
    exp::TrialSpec t;
    t.scheme = scheme;
    t.topology = topology;
    t.workload = topology.rfind("ripple", 0) == 0 ? "ripple" : "isp";
    t.seed_index = seed_index;
    t.workload_seed = exp::derive_seed(21, seed_index);
    t.txns = fig6_txns;
    t.end_time = 200.0;
    t.capacity_units = 3000.0;
    return t;
  };

  // Block boundaries inside the flat trial vector (sweep_report_json
  // keeps trial order, so the committed JSON has the same layout).
  std::vector<exp::TrialSpec> trials;
  for (const std::string& topology : fig6_topologies) {
    for (std::size_t s = 0; s < fig6_seeds; ++s) {
      for (const char* scheme : kSchemes) {
        trials.push_back(base_spec(scheme, topology, s));
      }
    }
  }
  const std::size_t fig7_begin = trials.size();
  for (const double cap : fig7_caps) {
    for (const char* scheme : kSchemes) {
      exp::TrialSpec t = base_spec(scheme, "isp32", 0);
      t.txns = full ? 12000 : 6000;
      t.capacity_units = cap;
      trials.push_back(std::move(t));
    }
  }
  const std::size_t faults_begin = trials.size();
  for (const std::string& profile : fault_profiles) {
    for (const char* scheme : kSchemes) {
      exp::TrialSpec t = base_spec(scheme, "isp32", 0);
      t.faults = profile;
      trials.push_back(std::move(t));
    }
  }

  const exp::Runner runner(args.threads);
  std::printf("running %zu trials on %zu threads\n", trials.size(),
              runner.threads());
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<exp::TrialResult> results =
      exp::run_trials(trials, runner);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::printf("\nfig6 (cap 3000, no deadline; ratio = success ratio)\n");
  std::printf("%-14s %-12s %4s %13s %14s %9s\n", "scheme", "topology", "seed",
              "success_ratio", "success_volume", "p95_lat_s");
  for (std::size_t i = 0; i < fig7_begin; ++i) {
    const exp::TrialResult& r = results[i];
    std::printf("%-14s %-12s %4zu %13.3f %14.3f %9.2f\n",
                r.spec.scheme.c_str(), r.spec.topology.c_str(),
                r.spec.seed_index, r.metrics.success_ratio(),
                r.metrics.success_volume(), r.metrics.latency_p95());
  }

  std::printf("\nfig7 (isp32 capacity sweep)\n");
  std::printf("%-14s %14s %13s\n", "scheme", "capacity_units",
              "success_ratio");
  for (std::size_t i = fig7_begin; i < faults_begin; ++i) {
    const exp::TrialResult& r = results[i];
    std::printf("%-14s %14.0f %13.3f\n", r.spec.scheme.c_str(),
                r.spec.capacity_units, r.metrics.success_ratio());
  }

  std::printf("\nfaults (isp32, cap 3000)\n");
  std::printf("%-14s %-46s %13s\n", "scheme", "profile", "success_ratio");
  for (std::size_t i = faults_begin; i < results.size(); ++i) {
    const exp::TrialResult& r = results[i];
    std::printf("%-14s %-46s %13.3f\n", r.spec.scheme.c_str(),
                r.spec.faults.c_str(), r.metrics.success_ratio());
  }
  std::printf("\nsweep wall time: %.1f s (%zu threads)\n", wall,
              runner.threads());

  // Headline gate: mean fig-6 success ratio per topology, spider-cc vs
  // the ungated baseline. Windows must not lose to flooding.
  exp::Json summary = exp::Json::array();
  bool gate_ok = true;
  for (const std::string& topology : fig6_topologies) {
    double mean[2] = {0.0, 0.0};
    for (std::size_t i = 0; i < fig7_begin; ++i) {
      const exp::TrialResult& r = results[i];
      if (r.spec.topology != topology) continue;
      mean[r.spec.scheme == "spider-cc" ? 0 : 1] +=
          r.metrics.success_ratio() / static_cast<double>(fig6_seeds);
    }
    std::printf("fig6 %-12s spider-cc %.3f vs packet-widest %.3f -> %s\n",
                topology.c_str(), mean[0], mean[1],
                mean[0] >= mean[1] ? "OK" : "FAIL");
    if (mean[0] < mean[1]) gate_ok = false;
    exp::Json row = exp::Json::object();
    row.set("topology", topology);
    row.set("spider_cc_mean_ratio", mean[0]);
    row.set("packet_widest_mean_ratio", mean[1]);
    summary.push_back(std::move(row));
  }

  exp::Json j = exp::sweep_report_json("spider_cc", results, runner.threads());
  j.set("fig6_summary", std::move(summary));
  const std::string out =
      args.json_out.empty() ? "BENCH_spider_cc.json" : args.json_out;
  exp::write_file(out, j.dump(2) + "\n");
  std::printf("wrote report: %s\n", out.c_str());
  if (!args.csv_out.empty()) {
    exp::write_file(args.csv_out, exp::sweep_report_csv(results));
    std::printf("wrote CSV report: %s\n", args.csv_out.c_str());
  }

  if (!gate_ok) {
    std::fprintf(stderr,
                 "FAIL: spider-cc mean fig-6 success ratio fell below the "
                 "ungated packet-widest baseline\n");
    return 1;
  }
  std::printf("OK: spider-cc >= packet-widest on every fig-6 topology\n");
  return 0;
}
