// sweep_cli: run a named experiment sweep on the parallel runner and
// write a machine-readable report.
//
//   ./build/examples/sweep_cli --sweep tiny --threads 4 --json out.json
//
// Named sweeps:
//   tiny   smoke grid: 2 schemes x ring-8, 400 txns, 30 s horizon;
//   fig6   the Fig. 6 scheme comparison grid (ISP + Ripple topologies);
//   fig7   the Fig. 7 capacity sweep on the ISP topology.
// Flags override the named defaults; trial metrics are bit-identical
// for every --threads value.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "core/parse.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "schemes/schemes.hpp"

namespace {

using namespace spider;

struct CliOptions {
  std::string sweep = "tiny";
  std::size_t threads = 0;
  std::string json_out;
  std::string csv_out;
  // Overrides (0 / empty = keep the named sweep's default).
  std::vector<std::string> schemes;
  std::vector<std::string> topologies;
  std::size_t seeds = 0;
  std::size_t txns = 0;
  std::uint64_t base_seed = 0;
  double deadline = 0.0;
  double mtu_units = 0.0;
  double cc_win0 = 0.0;
  double cc_wmax = 0.0;
  double cc_alpha = 0.0;
  double cc_beta = 0.0;
  double cc_thresh = 0.0;
  bool collect_series = false;
  bool audit = false;
  std::string faults;
};

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : s) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--sweep tiny|fig6|fig7|spidercc] [--threads N]\n"
      "          [--json PATH] [--csv PATH] [--schemes a,b,...]\n"
      "          [--topologies a,b,...] [--seeds K] [--txns N]\n"
      "          [--base-seed S] [--deadline T] [--mtu UNITS] [--series]\n"
      "          [--audit] [--faults SPEC]\n"
      "  --deadline: per-payment deadline offset from arrival (0 = none)\n"
      "  --mtu: transaction-unit size for packet-backed schemes\n"
      "         (spider-cc runs on the packet simulator)\n"
      "  --cc-win0/--cc-wmax/--cc-alpha/--cc-beta/--cc-thresh:\n"
      "         spider-cc AIMD/marking overrides (0 = built-in default)\n"
      "  --faults: fault-profile spec applied to every trial, e.g.\n"
      "            'churn=0.05;downtime=5;close=0.01;seed=7'\n"
      "            (keys: churn downtime close withhold hold stale\n"
      "            staledur seed horizon; ';' or ',' separated)\n",
      argv0);
  std::exit(2);
}

CliOptions parse(int argc, char** argv) {
  CliOptions opt;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    // Whole-field numbers only: "4x" or "12abc" is a usage error.
    const auto number = [&](auto& out) {
      const char* text = value();
      const auto v =
          core::parse_number<std::remove_reference_t<decltype(out)>>(text);
      if (!v) {
        std::fprintf(stderr, "bad value for %s: %s\n", flag, text);
        usage(argv[0]);
      }
      out = *v;
    };
    if (std::strcmp(argv[i], "--sweep") == 0) {
      opt.sweep = value();
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      number(opt.threads);
    } else if (std::strcmp(argv[i], "--json") == 0) {
      opt.json_out = value();
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      opt.csv_out = value();
    } else if (std::strcmp(argv[i], "--schemes") == 0) {
      opt.schemes = split_csv(value());
    } else if (std::strcmp(argv[i], "--topologies") == 0) {
      opt.topologies = split_csv(value());
    } else if (std::strcmp(argv[i], "--seeds") == 0) {
      number(opt.seeds);
    } else if (std::strcmp(argv[i], "--txns") == 0) {
      number(opt.txns);
    } else if (std::strcmp(argv[i], "--base-seed") == 0) {
      number(opt.base_seed);
    } else if (std::strcmp(argv[i], "--deadline") == 0) {
      number(opt.deadline);
    } else if (std::strcmp(argv[i], "--mtu") == 0) {
      number(opt.mtu_units);
    } else if (std::strcmp(argv[i], "--cc-win0") == 0) {
      number(opt.cc_win0);
    } else if (std::strcmp(argv[i], "--cc-wmax") == 0) {
      number(opt.cc_wmax);
    } else if (std::strcmp(argv[i], "--cc-alpha") == 0) {
      number(opt.cc_alpha);
    } else if (std::strcmp(argv[i], "--cc-beta") == 0) {
      number(opt.cc_beta);
    } else if (std::strcmp(argv[i], "--cc-thresh") == 0) {
      number(opt.cc_thresh);
    } else if (std::strcmp(argv[i], "--series") == 0) {
      opt.collect_series = true;
    } else if (std::strcmp(argv[i], "--audit") == 0) {
      opt.audit = true;
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      opt.faults = value();
    } else {
      usage(argv[0]);
    }
  }
  return opt;
}

exp::SweepConfig named_sweep(const std::string& name) {
  exp::SweepConfig cfg;
  cfg.name = name;
  if (name == "tiny") {
    cfg.schemes = {"shortest-path", "spider-waterfilling"};
    cfg.topologies = {"ring-8"};
    cfg.capacities_units = {200.0};
    cfg.base.txns = 400;
    cfg.base.end_time = 30.0;
  } else if (name == "fig6") {
    cfg.topologies = {"isp32", "ripple-3774"};
    cfg.capacities_units = {3000.0};
    cfg.base.txns = 20000;
    cfg.base.end_time = 200.0;
  } else if (name == "fig7") {
    cfg.topologies = {"isp32"};
    cfg.capacities_units = {1000, 2000, 3000, 5000, 10000};
    cfg.base.txns = 12000;
    cfg.base.end_time = 200.0;
  } else if (name == "spidercc") {
    // Spider-cc (packet-level AIMD/marking) against its fluid ancestor
    // on the fig-6 grid; the deadline bounds how long a unit may sit in
    // router queues before its locks refund (paper §4.1).
    cfg.schemes = {"spider-cc", "spider-waterfilling"};
    cfg.topologies = {"isp32", "ripple-3774"};
    cfg.capacities_units = {3000.0};
    cfg.base.txns = 20000;
    cfg.base.end_time = 200.0;
    cfg.base.deadline_offset = 20.0;
  } else {
    std::fprintf(stderr, "unknown sweep: %s\n", name.c_str());
    std::exit(2);
  }
  return cfg;
}

int run(int argc, char** argv) {
  const CliOptions opt = parse(argc, argv);
  exp::SweepConfig cfg = named_sweep(opt.sweep);
  if (!opt.schemes.empty()) cfg.schemes = opt.schemes;
  if (!opt.topologies.empty()) cfg.topologies = opt.topologies;
  if (opt.seeds > 0) cfg.seeds = opt.seeds;
  if (opt.base_seed > 0) cfg.base_seed = opt.base_seed;
  exp::TrialSpec& base = cfg.base;
  if (opt.txns > 0) base.txns = opt.txns;
  if (opt.deadline > 0) base.deadline_offset = opt.deadline;
  if (opt.mtu_units > 0) base.mtu_units = opt.mtu_units;
  if (opt.cc_win0 > 0) base.cc_initial_window = opt.cc_win0;
  if (opt.cc_wmax > 0) base.cc_max_window = opt.cc_wmax;
  if (opt.cc_alpha > 0) base.cc_alpha = opt.cc_alpha;
  if (opt.cc_beta > 0) base.cc_beta = opt.cc_beta;
  if (opt.cc_thresh > 0) base.cc_mark_threshold = opt.cc_thresh;
  base.collect_series = opt.collect_series;
  base.audit = opt.audit;
  base.faults = opt.faults;

  const exp::Runner runner(opt.threads);
  const std::vector<exp::TrialSpec> trials = exp::make_trials(cfg);
  std::printf("sweep %s: %zu trials on %zu threads%s\n", cfg.name.c_str(),
              trials.size(), runner.threads(),
              base.audit ? " (invariant audit on)" : "");
  if (!base.faults.empty()) {
    std::printf("fault profile: %s\n", base.faults.c_str());
  }

  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<exp::TrialResult> results =
      exp::run_trials(trials, runner);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::printf("%-22s %-12s %4s %13s %14s %9s\n", "scheme", "topology",
              "seed", "success_ratio", "success_volume", "p95_lat_s");
  for (const exp::TrialResult& r : results) {
    std::printf("%-22s %-12s %4zu %13.3f %14.3f %9.2f\n",
                r.spec.scheme.c_str(), r.spec.topology.c_str(),
                r.spec.seed_index, r.metrics.success_ratio(),
                r.metrics.success_volume(), r.metrics.latency_p95());
  }
  std::printf("wall time: %.2f s (%zu threads)\n", wall, runner.threads());

  if (!opt.json_out.empty()) {
    exp::write_file(
        opt.json_out,
        exp::sweep_report_json(cfg.name, results, runner.threads()).dump(2));
    std::printf("wrote JSON report: %s\n", opt.json_out.c_str());
  }
  if (!opt.csv_out.empty()) {
    exp::write_file(opt.csv_out, exp::sweep_report_csv(results));
    std::printf("wrote CSV report: %s\n", opt.csv_out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep_cli: %s\n", e.what());
    return 2;
  }
}
