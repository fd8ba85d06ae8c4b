#pragma once
// Shared helpers for the figure-regeneration harnesses in bench/.
//
// Each bench binary regenerates one table/figure of the paper and prints
// paper-reported vs measured values. By default the workloads are scaled
// down to finish in seconds on a laptop; set SPIDER_FULL=1 in the
// environment for paper-scale runs (see EXPERIMENTS.md).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/parse.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "schemes/schemes.hpp"
#include "sim/flow_sim.hpp"
#include "workload/workload.hpp"

namespace spider::bench {

inline bool full_scale() {
  const char* v = std::getenv("SPIDER_FULL");
  return v != nullptr && v[0] == '1';
}

/// Shared flags of the runner-based harnesses:
///   --threads N   worker threads for the trial sweep (0 = all cores);
///   --json PATH   write the sweep report as JSON;
///   --csv PATH    write the sweep report as CSV.
/// Results are bit-identical for every thread count.
struct BenchArgs {
  std::size_t threads = 0;
  std::string json_out;
  std::string csv_out;
};

inline BenchArgs parse_bench_args(int argc, char** argv) {
  const auto usage = [argv] {
    std::fprintf(stderr, "usage: %s [--threads N] [--json PATH] [--csv PATH]\n",
                 argv[0]);
    std::exit(2);
  };
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const auto has_value = [&](const char* flag) {
      return std::strcmp(argv[i], flag) == 0 && i + 1 < argc;
    };
    if (has_value("--threads")) {
      const auto n = core::parse_number<std::size_t>(argv[++i]);
      if (!n) usage();  // whole-field only: "4x" is not 4
      args.threads = *n;
    } else if (has_value("--json")) {
      args.json_out = argv[++i];
    } else if (has_value("--csv")) {
      args.csv_out = argv[++i];
    } else {
      usage();
    }
  }
  return args;
}

/// Writes the optional JSON/CSV reports of a finished sweep.
inline void write_bench_reports(const BenchArgs& args, const char* name,
                                const std::vector<exp::TrialResult>& results,
                                std::size_t threads) {
  if (!args.json_out.empty()) {
    exp::write_file(args.json_out,
                    exp::sweep_report_json(name, results, threads).dump(2));
    std::printf("\nwrote JSON report: %s\n", args.json_out.c_str());
  }
  if (!args.csv_out.empty()) {
    exp::write_file(args.csv_out, exp::sweep_report_csv(results));
    std::printf("wrote CSV report: %s\n", args.csv_out.c_str());
  }
}

struct FlowRunConfig {
  double capacity_units = 30000.0 / 10.0;  // per-channel escrow
  double end_time = 200.0;
  double delta = 0.5;
  std::size_t max_retries_per_poll = 2000;
};

inline sim::Metrics run_flow_scheme(const std::string& scheme_name,
                                    const graph::Graph& g,
                                    const workload::Trace& trace,
                                    const fluid::PaymentGraph& demand,
                                    const FlowRunConfig& rc) {
  const auto scheme = schemes::make_scheme(scheme_name);
  sim::FlowSimConfig cfg;
  cfg.end_time = rc.end_time;
  cfg.delta = rc.delta;
  cfg.max_retries_per_poll = rc.max_retries_per_poll;
  sim::FlowSimulator fs(
      g,
      std::vector<core::Amount>(g.edge_count(),
                                core::from_units(rc.capacity_units)),
      *scheme, cfg);
  for (const core::PaymentRequest& req : trace) fs.add_payment(req);
  return fs.run(demand);
}

inline void print_header(const char* bench, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", bench);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("scale: %s (set SPIDER_FULL=1 for paper scale)\n",
              full_scale() ? "FULL (paper)" : "reduced");
  std::printf("==============================================================\n");
}

}  // namespace spider::bench
