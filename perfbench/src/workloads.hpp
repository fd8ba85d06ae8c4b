#pragma once
// The benchmark's three workloads (README.md explains why each exists):
//
//   fig6-flow            six flow-simulated schemes on isp32 and
//                        ripple-3774 (the paper's Fig. 6 grid);
//   ripple-packet        spider-cc and packet-widest on one paired
//                        ripple-3774 trace with deadlines, fed from a
//                        precomputed PathTable;
//   service-adversarial  a streaming service::Service under flash-crowd
//                        arrivals, jamming, griefing and hub outages,
//                        driven window by window, snapshotted mid-run
//                        and restored.
//
// Each workload is run as repeated *passes*. A pass builds everything a
// user would build (topology, trace or stream, demand estimate, paths,
// simulators), simulates, and checks its outputs. Timed runs repeat
// passes for the requested seconds and report medians; traced runs make
// one untraced and one traced pass and report per-layer values.

#include <cstdint>
#include <string>
#include <vector>

#include "exp/sweep.hpp"
#include "harness.hpp"
#include "service/service.hpp"
#include "sim/metrics.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  /// exp::Runner threads for path precompute (the only threaded stage).
  std::size_t threads = 2;
  /// Where a traced pass writes its spans as JSON (empty = keep them in
  /// memory only).
  std::string spans_path;
};

/// What one benchmark invocation reports.
struct WorkloadResult {
  bool correct = true;
  std::vector<std::string> errors;
  /// Payments simulated across every pass, and those of them that
  /// belong to a pass whose output checks failed.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t passes = 0;
  /// Digest of every trial's sim::Metrics in a pass (equal across the
  /// passes of a correct run, and between timed and traced runs of one
  /// seed).
  std::uint64_t digest = 0;

  // End-to-end metrics (timed runs).
  double setup_s = 0;
  double payments_per_s = 0;
  double peak_rss_mb = 0;
  double success_ratio = 0;
  double success_volume = 0;
  double payment_p99_s = 0;

  /// Per-layer metrics (traced runs).
  std::vector<LayerMetric> layers;
  /// Human-readable lines printed before the result.
  std::vector<std::string> info;
};

/// Runs workload `name`; throws std::invalid_argument on unknown names.
[[nodiscard]] WorkloadResult run_workload(const std::string& name,
                                          const RunOptions& opt);

/// Workload seed used for every input of a run of benchmark seed `seed`.
[[nodiscard]] std::uint64_t workload_seed(std::uint64_t seed);

// --- building blocks, also driven by the fidelity test at small sizes --

/// The fig-6 grid: six schemes on isp32 (ISP calibration, 200 s) then on
/// ripple-3774 (Ripple calibration, 85 s), all on one workload seed.
[[nodiscard]] std::vector<spider::exp::TrialSpec> fig6_trials(
    std::uint64_t wseed, std::size_t isp_txns, std::size_t ripple_txns);

/// One flow trial start to finish, with the scheme behind TimedScheme.
[[nodiscard]] spider::sim::Metrics run_flow_trial_wrapped(
    const spider::exp::TrialSpec& spec, SchemeStats& stats,
    bool time_routes);

/// The paired ripple-packet trials: spider-cc then packet-widest.
[[nodiscard]] std::vector<spider::exp::TrialSpec> ripple_packet_trials(
    std::uint64_t wseed, std::size_t txns);

/// Runs `trials` (one shared topology and trace) on the packet
/// simulator with candidate paths from one exp::precompute_paths table
/// built on `threads` threads.
[[nodiscard]] std::vector<spider::sim::Metrics> run_packet_trials_precomputed(
    const std::vector<spider::exp::TrialSpec>& trials, std::size_t threads);

/// The service-adversarial configuration for workload seed `wseed`.
[[nodiscard]] spider::service::ServiceConfig service_config(
    std::uint64_t wseed, double duration);

/// Drives a Service one window at a time to the end and returns its
/// final metrics.
[[nodiscard]] spider::sim::Metrics run_service_windowed(
    const spider::service::ServiceConfig& cfg);

}  // namespace perfbench
