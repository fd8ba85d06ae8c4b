#include "exp/sweep.hpp"

#include <chrono>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "faults/fault_profile.hpp"
#include "faults/injector.hpp"
#include "graph/topology.hpp"
#include "schemes/schemes.hpp"
#include "sim/audit.hpp"
#include "sim/flow_sim.hpp"
#include "sim/packet_sim.hpp"
#include "workload/workload.hpp"

namespace spider::exp {

namespace {

/// Parses the numeric suffix of "family-N" topology names. Accepts a
/// trailing 'k' as a x1000 multiplier ("lightning-100k" = 100000 nodes)
/// and rejects any other trailing junk -- std::stoull used to parse
/// "100k" as 100, silently building a graph 1000x too small.
std::size_t parse_count(const std::string& name, std::size_t dash) {
  const std::string tail = name.substr(dash + 1);
  if (tail.empty()) {
    throw std::invalid_argument("make_named_topology: missing size in " + name);
  }
  std::size_t digits = 0;
  std::size_t n = 0;
  while (digits < tail.size() && tail[digits] >= '0' && tail[digits] <= '9') {
    n = n * 10 + static_cast<std::size_t>(tail[digits] - '0');
    ++digits;
  }
  std::size_t multiplier = 1;
  if (digits + 1 == tail.size() && tail[digits] == 'k') {
    multiplier = 1000;
    ++digits;
  }
  if (digits == 0 || digits != tail.size()) {
    throw std::invalid_argument("make_named_topology: bad size suffix in " +
                                name);
  }
  return n * multiplier;
}

}  // namespace

graph::Graph make_named_topology(const std::string& name) {
  namespace topo = graph::topology;
  if (name == "isp32") return topo::make_isp32();
  const std::size_t dash = name.rfind('-');
  if (dash != std::string::npos) {
    const std::string family = name.substr(0, dash);
    const std::size_t n = parse_count(name, dash);
    if (family == "ripple") return topo::make_ripple_like(n, 13);
    if (family == "lightning") return topo::make_lightning_like(n, 13);
    if (family == "scalefree") return topo::make_scale_free(n, 3, 13);
    if (family == "smallworld") return topo::make_small_world(n, 2, 0.1, 13);
    if (family == "ring") return topo::make_ring(n);
    if (family == "line") return topo::make_line(n);
    if (family == "star") return topo::make_star(n);
    if (family == "complete") return topo::make_complete(n);
  }
  throw std::invalid_argument("make_named_topology: unknown topology " + name);
}

namespace {

/// Flow-simulator trial: the scheme routes the trace under the paper's
/// §6.1 flow semantics.
sim::Metrics run_flow_trial(const TrialSpec& spec, const graph::Graph& g,
                            std::vector<core::Amount> capacity,
                            const workload::Trace& trace,
                            sim::InvariantAuditor* auditor,
                            faults::FaultInjector* injector) {
  const auto scheme = schemes::make_scheme(spec.scheme);
  sim::FlowSimConfig cfg;
  cfg.end_time = spec.end_time;
  cfg.delta = spec.delta;
  cfg.max_retries_per_poll = spec.max_retries_per_poll;
  cfg.retry_policy = spec.retry_policy;
  cfg.collect_series = spec.collect_series;
  cfg.series_bucket = spec.series_bucket;
  cfg.auditor = auditor;
  cfg.faults = injector;
  sim::FlowSimulator fs(g, std::move(capacity), *scheme, cfg);
  for (const core::PaymentRequest& req : trace) fs.add_payment(req);
  return fs.run(
      workload::estimate_demand(g.node_count(), trace, spec.end_time));
}

/// Packet-simulator-backed trial: spider-cc's marking/AIMD dynamics are
/// per-unit by nature, so its trials run the sweep's topology + trace on
/// sim::PacketSimulator (cc_mode kSpiderCc) instead of the flow model;
/// "packet-widest" runs the same simulator with congestion control off
/// as the ungated waterfilling baseline.
sim::Metrics run_packet_trial(const TrialSpec& spec, const graph::Graph& g,
                              std::vector<core::Amount> capacity,
                              const workload::Trace& trace,
                              sim::InvariantAuditor* auditor,
                              faults::FaultInjector* injector) {
  sim::PacketSimConfig cfg = schemes::packet_scheme_config(spec.scheme);
  cfg.end_time = spec.end_time;
  cfg.mtu = core::from_units(spec.mtu_units);
  if (spec.cc_initial_window > 0) cfg.cc_initial_window = spec.cc_initial_window;
  if (spec.cc_max_window > 0) cfg.cc_max_window = spec.cc_max_window;
  if (spec.cc_alpha > 0) cfg.cc_alpha = spec.cc_alpha;
  if (spec.cc_beta > 0) cfg.cc_beta = spec.cc_beta;
  if (spec.cc_mark_threshold > 0) cfg.cc_mark_threshold = spec.cc_mark_threshold;
  cfg.seed = spec.workload_seed;
  cfg.collect_series = spec.collect_series;
  cfg.series_bucket = spec.series_bucket;
  cfg.auditor = auditor;
  cfg.faults = injector;
  sim::PacketSimulator ps(g, std::move(capacity), cfg);
  for (const core::PaymentRequest& req : trace) ps.submit(req);
  return ps.run();
}

}  // namespace

TrialResult run_trial(const TrialSpec& spec) {
  const auto t0 = std::chrono::steady_clock::now();

  const graph::Graph g = make_named_topology(spec.topology);
  const workload::WorkloadConfig wc =
      spec.workload == "ripple"
          ? workload::ripple_workload(spec.txns, spec.end_time,
                                      spec.workload_seed)
          : workload::isp_workload(spec.txns, spec.end_time,
                                   spec.workload_seed);
  workload::Trace trace = workload::generate_trace(g, wc);
  if (spec.deadline_offset > 0) {
    for (core::PaymentRequest& req : trace) {
      req.deadline = req.arrival + spec.deadline_offset;
    }
  }

  sim::InvariantAuditor auditor;
  faults::FaultInjector injector;
  faults::FaultInjector* inj = nullptr;
  if (!spec.faults.empty()) {
    faults::FaultProfile profile = faults::parse_profile(spec.faults);
    if (profile.horizon <= 0) profile.horizon = spec.end_time;
    injector = faults::FaultInjector(faults::generate_plan(profile, g));
    inj = &injector;
  }
  std::vector<core::Amount> capacity(g.edge_count(),
                                     core::from_units(spec.capacity_units));
  const auto run = schemes::packet_backed_scheme(spec.scheme)
                       ? &run_packet_trial
                       : &run_flow_trial;

  TrialResult r;
  r.spec = spec;
  r.metrics = run(spec, g, std::move(capacity), trace,
                  spec.audit ? &auditor : nullptr, inj);
  if (spec.audit && !auditor.ok()) {
    throw std::runtime_error("trial " + spec.scheme + "/" + spec.topology +
                             " failed invariant audit: " + auditor.summary());
  }
  r.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return r;
}

std::vector<TrialResult> run_trials(const std::vector<TrialSpec>& trials,
                                    const Runner& runner) {
  return runner.map(trials.size(), [&trials](std::size_t i) {
    return run_trial(trials[i]);
  });
}

std::vector<TrialSpec> make_trials(const SweepConfig& cfg) {
  // An amount outside the fixed-point range makes the whole grid invalid,
  // even the flow trials that ignore the MTU: reject it before any runs.
  (void)core::from_units(cfg.base.mtu_units);
  for (const double cap : cfg.capacities_units) (void)core::from_units(cap);
  const std::vector<std::string> schemes =
      cfg.schemes.empty() ? schemes::all_scheme_names() : cfg.schemes;
  std::vector<TrialSpec> trials;
  trials.reserve(cfg.topologies.size() * cfg.capacities_units.size() *
                 cfg.seeds * schemes.size());
  for (const std::string& topology : cfg.topologies) {
    for (const double cap : cfg.capacities_units) {
      for (std::size_t s = 0; s < cfg.seeds; ++s) {
        for (const std::string& scheme : schemes) {
          TrialSpec t = cfg.base;
          t.scheme = scheme;
          t.topology = topology;
          t.workload =
              topology.rfind("ripple", 0) == 0 ? "ripple" : "isp";
          t.seed_index = s;
          t.workload_seed = derive_seed(cfg.base_seed, s);
          t.capacity_units = cap;
          trials.push_back(std::move(t));
        }
      }
    }
  }
  return trials;
}

std::vector<TrialResult> run_sweep(const SweepConfig& cfg,
                                   const Runner& runner) {
  return run_trials(make_trials(cfg), runner);
}

Json sweep_report_json(const std::string& name,
                       const std::vector<TrialResult>& results,
                       std::size_t threads) {
  Json j = Json::object();
  j.set("sweep", name);
  j.set("threads", static_cast<std::uint64_t>(threads));
  j.set("trial_count", static_cast<std::uint64_t>(results.size()));
  Json trials = Json::array();
  for (const TrialResult& r : results) {
    Json t = Json::object();
    t.set("scheme", r.spec.scheme);
    t.set("topology", r.spec.topology);
    t.set("workload", r.spec.workload);
    t.set("seed_index", static_cast<std::uint64_t>(r.spec.seed_index));
    t.set("workload_seed", r.spec.workload_seed);
    t.set("txns", static_cast<std::uint64_t>(r.spec.txns));
    t.set("end_time", r.spec.end_time);
    t.set("capacity_units", r.spec.capacity_units);
    t.set("retry_policy", core::to_string(r.spec.retry_policy));
    t.set("faults", r.spec.faults);
    t.set("wall_seconds", r.wall_seconds);
    t.set("metrics", report::metrics_to_json(r.metrics));
    trials.push_back(std::move(t));
  }
  j.set("trials", std::move(trials));
  return j;
}

std::string sweep_report_csv(const std::vector<TrialResult>& results) {
  std::string out =
      "scheme,topology,workload,seed_index,workload_seed,txns,end_time,"
      "capacity_units,retry_policy,faults,wall_seconds," +
      report::metrics_csv_header() + "\n";
  // Append in place: a `a + b + c` chain allocates a temporary per `+`.
  for (const TrialResult& r : results) {
    out += r.spec.scheme;
    out += ',';
    out += r.spec.topology;
    out += ',';
    out += r.spec.workload;
    out += ',';
    out += std::to_string(r.spec.seed_index);
    out += ',';
    out += std::to_string(r.spec.workload_seed);
    out += ',';
    out += std::to_string(r.spec.txns);
    out += ',';
    out += std::to_string(r.spec.end_time);
    out += ',';
    out += std::to_string(r.spec.capacity_units);
    out += ',';
    out += core::to_string(r.spec.retry_policy);
    out += ',';
    // Profile specs allow ';' as item separator precisely so the CSV
    // cell needs no quoting; rewrite any commas on the way out.
    for (const char c : r.spec.faults) out += c == ',' ? ';' : c;
    out += ',';
    out += std::to_string(r.wall_seconds);
    out += ',';
    out += report::metrics_csv_row(r.metrics);
    out += '\n';
  }
  return out;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("write_file: cannot open " + path);
  os << text;
  if (!os) throw std::runtime_error("write_file: write failed for " + path);
}

}  // namespace spider::exp
