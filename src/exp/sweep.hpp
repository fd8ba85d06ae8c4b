#pragma once
// Sweep driver: describes a grid of (scheme x topology x capacity x
// seed) flow-simulation trials, runs the independent trials on an
// exp::Runner, and serializes the results. One TrialSpec is a pure value
// -- the trial's outcome is a deterministic function of its fields -- so
// any two runs of the same spec produce identical sim::Metrics no
// matter which thread executes them or in what order.

#include <cstdint>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "core/types.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "graph/graph.hpp"
#include "sim/metrics.hpp"

namespace spider::exp {

/// Everything one flow-simulation trial depends on.
struct TrialSpec {
  std::string scheme = "spider-waterfilling";
  /// Named topology, see make_named_topology().
  std::string topology = "isp32";
  /// Workload preset: "isp" or "ripple" (paper §6.1 calibrations).
  std::string workload = "isp";
  /// Which seed replica of the grid this trial belongs to. All schemes
  /// of one replica share `workload_seed`, so scheme comparisons are
  /// paired on the identical trace.
  std::size_t seed_index = 0;
  /// RNG seed for trace generation (derive_seed(base_seed, seed_index)
  /// unless pinned to reproduce a specific published figure).
  std::uint64_t workload_seed = 1;
  std::size_t txns = 10000;
  double end_time = 200.0;
  double capacity_units = 3000.0;
  double delta = 0.5;
  std::size_t max_retries_per_poll = 2000;
  core::SchedulingPolicy retry_policy = core::SchedulingPolicy::kSrpt;
  /// Per-payment deadline offset from arrival; <= 0 means no deadline.
  double deadline_offset = 0.0;
  /// Transaction-unit MTU for packet-simulator-backed trials (see
  /// below); flow trials ignore it.
  double mtu_units = 10.0;
  /// Spider-cc overrides for packet-backed trials; 0 keeps the
  /// PacketSimConfig default for that knob (flow trials ignore these).
  double cc_initial_window = 0.0;
  double cc_max_window = 0.0;
  double cc_alpha = 0.0;
  double cc_beta = 0.0;
  double cc_mark_threshold = 0.0;
  bool collect_series = false;
  double series_bucket = 5.0;
  /// Run the trial under a sim::InvariantAuditor (conservation, queue
  /// counters, monotone time; see sim/audit.hpp) and throw on any
  /// violation. Observation-only: metrics are unchanged.
  bool audit = false;
  /// Fault profile spec (faults::parse_profile syntax, e.g.
  /// "churn=0.05,downtime=5,seed=7"). Empty = no fault subsystem; the
  /// trial is byte-identical to one run before faults existed. A
  /// profile horizon <= 0 defaults to the trial's end_time.
  std::string faults;
};

struct TrialResult {
  TrialSpec spec;
  sim::Metrics metrics;
  /// Wall-clock seconds this trial took (informational only; never part
  /// of determinism comparisons).
  double wall_seconds = 0.0;
};

/// Builds one of the named deterministic topologies: "isp32",
/// "ripple-N", "lightning-N", "scalefree-N", "smallworld-N", "ring-N",
/// "line-N", "star-N", "complete-N" (N = node count). Throws
/// std::invalid_argument on unknown names.
[[nodiscard]] graph::Graph make_named_topology(const std::string& name);

/// Runs one trial start to finish (topology + trace generation, scheme
/// prepare, simulation) and returns its metrics. Most schemes run on
/// the flow simulator; schemes whose dynamics are inherently
/// packet-level (schemes::packet_backed_scheme, currently "spider-cc")
/// run the identical topology + trace on sim::PacketSimulator instead,
/// so one sweep grid compares fluid schemes against the deployable
/// protocol on paired traces.
[[nodiscard]] TrialResult run_trial(const TrialSpec& spec);

/// Runs every trial on the runner's pool; results in trial order.
[[nodiscard]] std::vector<TrialResult> run_trials(
    const std::vector<TrialSpec>& trials, const Runner& runner);

/// A rectangular sweep grid. Trials are ordered topology-major:
/// (topology, capacity, seed, scheme), with workload_seed =
/// derive_seed(base_seed, seed_index) shared by all schemes of a
/// replica.
struct SweepConfig {
  std::string name = "sweep";
  std::vector<std::string> schemes;              // empty = all schemes
  std::vector<std::string> topologies = {"isp32"};
  std::vector<double> capacities_units = {3000.0};
  std::size_t seeds = 1;
  std::uint64_t base_seed = 1;
  /// Every trial starts as a copy of `base`; make_trials then sets the
  /// per-cell fields (scheme, topology, workload, seed_index,
  /// workload_seed, capacity_units).
  TrialSpec base;
};

/// Expands the grid. Throws std::invalid_argument if the base MTU or a
/// capacity is not a representable amount (core::from_units).
[[nodiscard]] std::vector<TrialSpec> make_trials(const SweepConfig& cfg);

[[nodiscard]] std::vector<TrialResult> run_sweep(const SweepConfig& cfg,
                                                 const Runner& runner);

/// Whole-sweep JSON report: sweep metadata plus one entry per trial
/// (spec fields + full metrics snapshot).
[[nodiscard]] Json sweep_report_json(const std::string& name,
                                     const std::vector<TrialResult>& results,
                                     std::size_t threads);

/// Flat CSV: one row per trial, spec columns then scalar metric columns.
[[nodiscard]] std::string sweep_report_csv(
    const std::vector<TrialResult>& results);

/// Writes `text` to `path` (throws std::runtime_error on I/O failure).
void write_file(const std::string& path, const std::string& text);

}  // namespace spider::exp
