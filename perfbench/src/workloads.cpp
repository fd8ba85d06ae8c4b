#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>

#include "alloc_count.hpp"
#include "exp/path_precompute.hpp"
#include "exp/runner.hpp"
#include "faults/fault_profile.hpp"
#include "graph/csr.hpp"
#include "schemes/schemes.hpp"
#include "sim/flow_sim.hpp"
#include "sim/packet_sim.hpp"
#include "workload/stream.hpp"
#include "workload/workload.hpp"

namespace perfbench {

using spider::core::Amount;
using spider::exp::TrialSpec;
using spider::sim::Metrics;

namespace {

// Input sizes. Each is chosen so one pass does seconds of work on a
// 4-core VM, so that medians over a run's passes are steady.
constexpr std::size_t kFig6IspTxns = 10000;
constexpr std::size_t kFig6RippleTxns = 800;
constexpr std::size_t kPacketTxns = 6000;
constexpr double kServiceDuration = 120.0;
/// Service constructions timed per pass (setup_s is their median).
constexpr int kServiceConstructs = 25;
/// Timed runs count at least this many passes after the warm-up pass,
/// whatever --seconds says.
constexpr std::size_t kMinPasses = 3;

/// Base of every workload seed; the benchmark's --seed indexes it.
constexpr std::uint64_t kBenchBaseSeed = 0x5350494445524245ULL;

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Everything one pass measured.
struct PassOutcome {
  double setup_s = 0;     // host seconds before the first simulated event
  double simulate_s = 0;  // host seconds of simulation, set-up excluded
  double wall_s = 0;      // the whole pass
  std::uint64_t setup_allocs = 0;
  double setup_rss_mb = 0;
  std::uint64_t payments = 0;
  std::uint64_t succeeded = 0;
  Amount attempted_volume = 0;
  Amount delivered_volume = 0;
  spider::exp::Histogram latency;
  std::uint64_t digest = kFnvOffset;
  std::vector<LayerMetric> layers;
  std::vector<std::string> info;
  std::vector<std::string> errors;

  /// Folds one trial's metrics into the totals and the digest, and
  /// checks the counts are consistent.
  void add(const std::string& label, const Metrics& m) {
    payments += m.attempted;
    succeeded += m.succeeded;
    attempted_volume += m.attempted_volume;
    delivered_volume += m.delivered_volume;
    latency.merge(m.latency_hist);
    digest = (digest ^ metrics_digest(m)) * kFnvPrime;
    if (m.succeeded + m.partial + m.failed != m.attempted ||
        m.delivered_volume > m.attempted_volume ||
        m.completed_volume > m.delivered_volume || m.attempted == 0) {
      errors.push_back(label + ": inconsistent metrics: " + m.summary());
    }
  }

  void layer(std::string name, double value, std::string unit) {
    layers.push_back(LayerMetric{std::move(name), value, std::move(unit)});
  }
};

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

std::string fmt(const char* f, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), f, a, b, c);
  return buf;
}

void write_spans(const Tracer& tracer, const RunOptions& opt) {
  if (opt.spans_path.empty()) return;
  std::ofstream os(opt.spans_path);
  if (!os) throw std::runtime_error("cannot write spans to " + opt.spans_path);
  tracer.write_json(os);
}

spider::workload::Trace make_trace(const TrialSpec& spec,
                                   const spider::graph::Graph& g) {
  const spider::workload::WorkloadConfig wc =
      spec.workload == "ripple"
          ? spider::workload::ripple_workload(spec.txns, spec.end_time,
                                              spec.workload_seed)
          : spider::workload::isp_workload(spec.txns, spec.end_time,
                                           spec.workload_seed);
  return spider::workload::generate_trace(g, wc);
}

spider::core::PaymentRequest to_request(const spider::workload::Transaction& tx,
                                        double deadline_offset) {
  spider::core::PaymentRequest req;
  req.src = tx.src;
  req.dst = tx.dst;
  req.amount = tx.amount;
  req.arrival = tx.arrival;
  if (deadline_offset > 0) req.deadline = tx.arrival + deadline_offset;
  return req;
}

// --- fig6-flow ---------------------------------------------------------

/// A topology's shared inputs: every scheme of a grid row runs on them.
struct FlowInputs {
  spider::graph::Graph g;
  spider::workload::Trace trace;
  spider::fluid::PaymentGraph demand;
};

FlowInputs make_flow_inputs(const TrialSpec& spec, Tracer& tracer) {
  spider::graph::Graph g;
  {
    const Tracer::Span s = tracer.span("graph.build");
    g = spider::exp::make_named_topology(spec.topology);
  }
  spider::workload::Trace trace;
  {
    const Tracer::Span s = tracer.span("workload.trace");
    trace = make_trace(spec, g);
  }
  const Tracer::Span s = tracer.span("fluid.demand");
  spider::fluid::PaymentGraph demand =
      spider::workload::estimate_demand(g.node_count(), trace, spec.end_time);
  return FlowInputs{std::move(g), std::move(trace), std::move(demand)};
}

struct FlowTiming {
  double setup_s = 0;  // construction, payment submission, prepare()
  double run_s = 0;    // FlowSimulator::run minus prepare()
  double route_s = 0;  // traced runs only
  double setup_rss_mb = 0;
  std::uint64_t setup_allocs = 0;
  std::uint64_t run_allocs = 0;
};

/// Mirrors the flow branch of exp::run_trial (no audit, no faults) with
/// the scheme behind a TimedScheme.
Metrics run_flow(const TrialSpec& spec, const FlowInputs& in,
                 SchemeStats& stats, bool time_routes, Tracer& tracer,
                 FlowTiming& t) {
  const Tracer::Span trial = tracer.span("sim.flow.trial." + spec.scheme);
  const std::uint64_t a0 = alloc_count();
  const double t0 = now_s();
  const std::unique_ptr<spider::sim::RoutingScheme> inner =
      spider::schemes::make_scheme(spec.scheme);
  TimedScheme scheme(*inner, stats, time_routes);
  spider::sim::FlowSimConfig cfg;
  cfg.end_time = spec.end_time;
  cfg.delta = spec.delta;
  cfg.max_retries_per_poll = spec.max_retries_per_poll;
  cfg.retry_policy = spec.retry_policy;
  cfg.collect_series = spec.collect_series;
  cfg.series_bucket = spec.series_bucket;
  std::optional<spider::sim::FlowSimulator> fs;
  {
    const Tracer::Span s = tracer.span("sim.flow.construct");
    fs.emplace(in.g,
               std::vector<Amount>(in.g.edge_count(),
                                   spider::core::from_units(spec.capacity_units)),
               scheme, cfg);
    for (const spider::workload::Transaction& tx : in.trace) {
      fs->add_payment(to_request(tx, spec.deadline_offset));
    }
  }
  t.setup_rss_mb = rss_mb();
  const double t1 = now_s();
  const std::uint64_t a1 = alloc_count();
  const double prep0 = stats.prepare_s;
  const std::uint64_t prep_allocs0 = stats.prepare_allocs;
  const double route0 = stats.route_s;
  Metrics m;
  {
    const Tracer::Span s = tracer.span("sim.flow.run");
    m = fs->run(in.demand);
  }
  const double t2 = now_s();
  const double prep = stats.prepare_s - prep0;
  const std::uint64_t prep_allocs = stats.prepare_allocs - prep_allocs0;
  t.setup_s = (t1 - t0) + prep;
  t.run_s = (t2 - t1) - prep;
  t.route_s = stats.route_s - route0;
  t.setup_allocs = (a1 - a0) + prep_allocs;
  t.run_allocs = (alloc_count() - a1) - prep_allocs;
  return m;
}

void fig6_pass(const std::vector<TrialSpec>& trials, bool traced,
               const RunOptions& opt, PassOutcome& out) {
  Tracer tracer(traced);
  std::map<std::string, SchemeStats> stats;
  double flow_self_s = 0;
  std::uint64_t rounds = 0;
  std::uint64_t run_allocs = 0;
  std::size_t i = 0;
  while (i < trials.size()) {
    const TrialSpec& proto = trials[i];
    const std::uint64_t a0 = alloc_count();
    const double t0 = now_s();
    const FlowInputs in = make_flow_inputs(proto, tracer);
    out.setup_s += now_s() - t0;
    out.setup_allocs += alloc_count() - a0;
    for (; i < trials.size() && trials[i].topology == proto.topology; ++i) {
      const TrialSpec& spec = trials[i];
      FlowTiming t;
      const Metrics m =
          run_flow(spec, in, stats[spec.scheme], traced, tracer, t);
      out.setup_s += t.setup_s;
      out.simulate_s += t.run_s;
      out.setup_allocs += t.setup_allocs;
      out.setup_rss_mb = std::max(out.setup_rss_mb, t.setup_rss_mb);
      flow_self_s += t.run_s - t.route_s;
      rounds += m.total_attempt_rounds;
      run_allocs += t.run_allocs;
      out.add(spec.scheme + "/" + spec.topology, m);
    }
  }
  if (!traced) return;
  double scheme_s = 0;
  out.layer("fluid.demand_s", tracer.total_s("fluid.demand"), "s");
  for (const std::string& name : spider::schemes::all_scheme_names()) {
    const SchemeStats& s = stats[name];
    const std::string p = "schemes." + name;
    out.layer(p + ".prepare_s", s.prepare_s, "s");
    out.layer(p + ".route_s", s.route_s, "s");
    out.layer(p + ".route_calls", static_cast<double>(s.route_calls), "count");
    out.layer(p + ".route_yield",
              ratio(static_cast<double>(s.route_sends),
                    static_cast<double>(s.route_calls)),
              "ratio");
    out.layer(p + ".route_us_p50", s.route_us.p50(), "us");
    out.layer(p + ".route_us_p99", s.route_us.p99(), "us");
    scheme_s += s.prepare_s + s.route_s;
  }
  out.layer("sim.flow.self_s", flow_self_s, "s");
  out.layer("sim.flow.attempt_rounds", static_cast<double>(rounds), "count");
  out.layer("sim.flow.allocs_per_payment",
            ratio(static_cast<double>(run_allocs),
                  static_cast<double>(out.payments)),
            "allocs/payment");
  double trial_s = 0;
  for (const std::string& name : spider::schemes::all_scheme_names()) {
    trial_s += tracer.total_s("sim.flow.trial." + name);
  }
  out.info.push_back(
      fmt("fig6-flow traced pass: trials %.3f s, schemes prepare+route %.3f s "
          "(%.1f%% of trial time)",
          trial_s, scheme_s, 100.0 * ratio(scheme_s, trial_s)));
  write_spans(tracer, opt);
}

// --- ripple-packet -----------------------------------------------------

/// Mirrors exp::run_trial's packet configuration, plus a path table.
spider::sim::PacketSimConfig packet_config(const TrialSpec& spec,
                                           const spider::graph::PathTable* t) {
  spider::sim::PacketSimConfig cfg;
  cfg.end_time = spec.end_time;
  cfg.mtu = spider::core::from_units(spec.mtu_units);
  if (spec.scheme == "spider-cc") {
    cfg.cc_mode = spider::sim::CongestionControlMode::kSpiderCc;
    cfg.cc_initial_window = 32.0;
    cfg.cc_max_window = 512.0;
    cfg.cc_alpha = 4.0;
  } else if (spec.scheme != "packet-widest") {
    throw std::invalid_argument("not a packet scheme: " + spec.scheme);
  }
  cfg.seed = spec.workload_seed;
  cfg.paths = t;
  return cfg;
}

spider::graph::PathTable precompute(const spider::graph::CsrGraph& csr,
                                    const spider::workload::Trace& trace,
                                    std::size_t k, std::size_t threads,
                                    std::uint64_t seed) {
  std::vector<spider::graph::PathTable::Pair> raw;
  raw.reserve(trace.size());
  for (const spider::workload::Transaction& tx : trace) {
    raw.emplace_back(tx.src, tx.dst);
  }
  const spider::exp::PathPrecomputePlan plan =
      spider::exp::PathPrecomputePlan::make(std::move(raw), 0, seed);
  const spider::exp::Runner runner(threads);
  return spider::exp::precompute_paths(csr, plan, k, runner);
}

struct PacketRunStats {
  double setup_s = 0;  // simulator construction and payment submission
  double setup_rss_mb = 0;
  std::uint64_t setup_allocs = 0;
  double run_s = 0;
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
};

/// Builds a packet simulator for `spec` over the shared inputs, submits
/// the trace, and runs it to the end.
Metrics run_packet(const TrialSpec& spec, const spider::graph::Graph& g,
                   const spider::workload::Trace& trace,
                   const spider::graph::PathTable& table, Tracer& tracer,
                   PacketRunStats& st) {
  const std::uint64_t a0 = alloc_count();
  const double t0 = now_s();
  std::optional<spider::sim::PacketSimulator> ps;
  {
    const Tracer::Span s = tracer.span("sim.packet.submit");
    ps.emplace(g,
               std::vector<Amount>(g.edge_count(),
                                   spider::core::from_units(spec.capacity_units)),
               packet_config(spec, &table));
    for (const spider::workload::Transaction& tx : trace) {
      ps->submit(to_request(tx, spec.deadline_offset));
    }
  }
  st.setup_rss_mb = rss_mb();
  const double t1 = now_s();
  const std::uint64_t a1 = alloc_count();
  st.setup_s = t1 - t0;
  st.setup_allocs = a1 - a0;
  const Tracer::Span s = tracer.span("sim.packet.run." + spec.scheme);
  Metrics m = ps->run();
  st.run_s = now_s() - t1;
  st.allocs = alloc_count() - a1;
  st.events = ps->events_processed();
  return m;
}

void packet_pass(const std::vector<TrialSpec>& trials,
                 std::uint64_t reference_checksum, bool traced,
                 const RunOptions& opt, PassOutcome& out) {
  Tracer tracer(traced);
  const TrialSpec& proto = trials.front();
  const std::uint64_t a0 = alloc_count();
  const double t0 = now_s();
  spider::graph::Graph g;
  {
    const Tracer::Span s = tracer.span("graph.build");
    g = spider::exp::make_named_topology(proto.topology);
  }
  spider::graph::CsrGraph csr;
  {
    const Tracer::Span s = tracer.span("graph.csr_freeze");
    csr = spider::graph::CsrGraph(g);
  }
  spider::workload::Trace trace;
  {
    const Tracer::Span s = tracer.span("workload.trace");
    trace = make_trace(proto, g);
  }
  const std::size_t k = packet_config(proto, nullptr).path_k;
  spider::graph::PathTable table;
  {
    const Tracer::Span s = tracer.span("exp.precompute");
    table = precompute(csr, trace, k, opt.threads, proto.workload_seed);
  }
  out.setup_s = now_s() - t0;
  out.setup_allocs = alloc_count() - a0;
  if (table.checksum() != reference_checksum) {
    out.errors.push_back("PathTable checksum differs from the 1-thread table");
  }

  // The paired trials run one after another: each simulator is built,
  // fed the trace, run, and freed before the next one is built.
  std::vector<PacketRunStats> runs(trials.size());
  std::vector<Metrics> metrics(trials.size());
  for (std::size_t i = 0; i < trials.size(); ++i) {
    metrics[i] = run_packet(trials[i], g, trace, table, tracer, runs[i]);
    out.setup_s += runs[i].setup_s;
    out.setup_allocs += runs[i].setup_allocs;
    out.setup_rss_mb = std::max(out.setup_rss_mb, runs[i].setup_rss_mb);
    out.simulate_s += runs[i].run_s;
    out.add(trials[i].scheme, metrics[i]);
  }
  if (!traced) return;

  const double precompute_s = tracer.total_s("exp.precompute");
  const auto pairs = static_cast<double>(table.pair_count());
  out.layer("graph.build_s", tracer.total_s("graph.build"), "s");
  out.layer("graph.csr_freeze_s", tracer.total_s("graph.csr_freeze"), "s");
  out.layer("graph.csr_mb",
            static_cast<double>(csr.memory_bytes()) / (1024.0 * 1024.0),
            "MiB");
  out.layer("workload.trace_s", tracer.total_s("workload.trace"), "s");
  out.layer("exp.precompute_s", precompute_s, "s");
  out.layer("exp.precompute_pairs", pairs, "count");
  out.layer("exp.precompute_us_per_pair", 1e6 * ratio(precompute_s, pairs),
            "us");
  out.layer("sim.packet.submit_s", tracer.total_s("sim.packet.submit"), "s");
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const Metrics& m = metrics[i];
    const auto pays = static_cast<double>(m.attempted);
    const std::string p = "sim.packet." + trials[i].scheme;
    out.layer(p + ".run_s", runs[i].run_s, "s");
    out.layer(p + ".events_per_payment",
              ratio(static_cast<double>(runs[i].events), pays),
              "events/payment");
    out.layer(p + ".events_per_s",
              ratio(static_cast<double>(runs[i].events), runs[i].run_s),
              "events/s");
    out.layer(p + ".units_per_payment",
              ratio(static_cast<double>(m.units_sent), pays), "units/payment");
    out.layer(p + ".allocs_per_payment",
              ratio(static_cast<double>(runs[i].allocs), pays),
              "allocs/payment");
    if (trials[i].scheme == "spider-cc") {
      const auto units = static_cast<double>(m.units_sent);
      out.layer(p + ".marked_ack_ratio",
                ratio(static_cast<double>(m.cc_marked_acks), units), "ratio");
      out.layer(p + ".timeout_retry_ratio",
                ratio(static_cast<double>(m.cc_timeout_retries), units),
                "ratio");
    }
  }
  out.info.push_back(
      fmt("ripple-packet traced pass: precompute %.3f s of setup %.3f s "
          "(%.1f%%)",
          precompute_s, out.setup_s, 100.0 * ratio(precompute_s, out.setup_s)));
  out.info.push_back(
      fmt("ripple-packet traced pass: simulator run() %.3f s of simulate "
          "%.3f s; %.3f unique pairs per payment",
          tracer.total_s("sim.packet.run.spider-cc") +
              tracer.total_s("sim.packet.run.packet-widest"),
          out.simulate_s, ratio(pairs, static_cast<double>(trace.size()))));
  write_spans(tracer, opt);
}

// --- service-adversarial -----------------------------------------------

void service_pass(const spider::service::ServiceConfig& cfg, bool traced,
                  const RunOptions& opt, PassOutcome& out) {
  using spider::service::Service;
  Tracer tracer(traced);
  // Construction takes tens of milliseconds, so set-up is the median of
  // several; the last one built is the one that runs.
  std::vector<double> construct_s;
  std::unique_ptr<Service> svc;
  for (int i = 0; i < kServiceConstructs; ++i) {
    svc.reset();
    const Tracer::Span s = tracer.span("service.construct");
    const std::uint64_t a0 = alloc_count();
    const double t0 = now_s();
    svc = std::make_unique<Service>(cfg);
    construct_s.push_back(now_s() - t0);
    out.setup_allocs = alloc_count() - a0;
  }
  out.setup_s = median(construct_s);
  out.setup_rss_mb = rss_mb();

  const auto windows =
      static_cast<std::size_t>(std::llround(cfg.duration / cfg.window));
  const std::size_t mid = windows / 2;
  std::vector<double> window_s;
  double to_snapshot_s = 0;
  double snapshot_s = 0;
  std::string snapshot;
  for (std::size_t w = 1; w <= windows; ++w) {
    {
      const Tracer::Span s = tracer.span("service.window");
      const double t0 = now_s();
      svc->run(static_cast<double>(w) * cfg.window);
      window_s.push_back(now_s() - t0);
    }
    if (w == mid) {
      const Tracer::Span s = tracer.span("service.snapshot");
      for (const double x : window_s) to_snapshot_s += x;
      const double t0 = now_s();
      snapshot = svc->snapshot().dump();
      snapshot_s = now_s() - t0;
    }
  }
  Metrics m;
  {
    const Tracer::Span s = tracer.span("service.finish");
    const double t0 = now_s();
    m = svc->finish();
    out.simulate_s = now_s() - t0;
  }
  for (const double x : window_s) out.simulate_s += x;
  const double rss_growth = rss_mb() - out.setup_rss_mb;
  out.add("service", m);
  std::uint64_t events = 0;
  for (const spider::service::WindowRecord& w : svc->windows()) {
    events += w.events;
  }
  const std::size_t peak_live = svc->peak_live_payments();
  const spider::graph::Graph g = svc->graph();
  svc.reset();  // the restored service replaces it

  double restore_s = 0;
  try {
    const Tracer::Span s = tracer.span("service.restore");
    const double t0 = now_s();
    const std::unique_ptr<Service> restored =
        Service::restore(spider::exp::Json::parse(snapshot));
    restore_s = now_s() - t0;
    if (metrics_digest(restored->finish()) != metrics_digest(m)) {
      out.errors.push_back("restored service finished with other metrics");
    }
  } catch (const std::exception& e) {
    out.errors.push_back(std::string("Service::restore failed: ") + e.what());
  }
  if (!traced) return;

  // Standalone pull of the same stream spec: the arrival generator's
  // own cost, and how many distinct (src, dst) pairs it asks paths for.
  std::set<std::pair<spider::core::NodeId, spider::core::NodeId>> pairs;
  std::uint64_t pulled = 0;
  double pull_s = 0;
  {
    const auto stream = spider::workload::make_stream(cfg.workload, g);
    const double t0 = now_s();
    while (const std::optional<spider::workload::Transaction> tx =
               stream->next()) {
      if (tx->arrival > cfg.duration) break;
      ++pulled;
      pairs.emplace(tx->src, tx->dst);
    }
    pull_s = now_s() - t0;
  }
  spider::faults::FaultProfile profile =
      spider::faults::parse_profile(cfg.adversary);
  if (profile.horizon <= 0) profile.horizon = cfg.duration;
  const std::size_t plan_events =
      spider::faults::generate_plan(profile, g).size();

  const auto pays = static_cast<double>(m.attempted);
  out.layer("workload.stream_pull_us",
            1e6 * ratio(pull_s, static_cast<double>(pulled)), "us");
  out.layer("workload.unique_pair_ratio",
            ratio(static_cast<double>(pairs.size()),
                  static_cast<double>(pulled)),
            "ratio");
  out.layer("faults.plan_events", static_cast<double>(plan_events), "count");
  out.layer("faults.jam_spells", static_cast<double>(m.fault_jam_spells),
            "count");
  out.layer("faults.grief_spells", static_cast<double>(m.fault_grief_spells),
            "count");
  out.layer("faults.node_downs", static_cast<double>(m.fault_node_downs),
            "count");
  out.layer("faults.units_failed_ratio",
            ratio(static_cast<double>(m.fault_units_failed),
                  static_cast<double>(m.units_sent)),
            "ratio");
  out.layer("service.construct_s", out.setup_s, "s");
  out.layer("service.restore_s", restore_s, "s");
  out.layer("service.window_ms_p50", 1e3 * quantile(window_s, 0.5), "ms");
  out.layer("service.window_ms_p90", 1e3 * quantile(window_s, 0.9), "ms");
  out.layer("service.events_per_payment",
            ratio(static_cast<double>(events), pays), "events/payment");
  out.layer("service.peak_live", static_cast<double>(peak_live), "count");
  out.layer("service.snapshot_ms", 1e3 * snapshot_s, "ms");
  out.layer("service.restore_replay_ratio", ratio(restore_s, to_snapshot_s),
            "ratio");
  out.layer("service.rss_growth_mb", rss_growth, "MiB");
  write_spans(tracer, opt);
}

// --- running passes ----------------------------------------------------

using PassFn = std::function<void(bool traced, PassOutcome& out)>;

void take_errors(WorkloadResult& r, const PassOutcome& p) {
  if (p.errors.empty()) return;
  r.correct = false;
  r.failed += p.payments;
  r.errors.insert(r.errors.end(), p.errors.begin(), p.errors.end());
}

PassOutcome timed_pass(const PassFn& pass, bool traced) {
  PassOutcome p;
  const double t0 = now_s();
  pass(traced, p);
  p.wall_s = now_s() - t0;
  return p;
}

/// Timed run: passes until --seconds is spent (at least kMinPasses
/// counted), reporting the medians of the counted passes' set-up time
/// and throughput. Every pass must reproduce the first pass's metrics
/// digest.
void drive_timed(const RunOptions& opt, const PassFn& pass,
                 WorkloadResult& r) {
  std::vector<double> setup;
  std::vector<double> rate;
  const double t0 = now_s();
  for (;;) {
    PassOutcome p = timed_pass(pass, false);
    if (r.passes == 0) {
      r.digest = p.digest;
      r.success_ratio = ratio(static_cast<double>(p.succeeded),
                              static_cast<double>(p.payments));
      r.success_volume = ratio(static_cast<double>(p.delivered_volume),
                               static_cast<double>(p.attempted_volume));
      r.payment_p99_s = interpolated_quantile(p.latency, 0.99);
    } else if (p.digest != r.digest) {
      p.errors.push_back("pass " + std::to_string(r.passes) +
                         " metrics differ from pass 0");
    }
    ++r.passes;
    r.attempted += p.payments;
    take_errors(r, p);
    // Pass 0 warms caches and the allocator; only later passes count.
    if (r.passes > 1) {
      setup.push_back(p.setup_s);
      rate.push_back(ratio(static_cast<double>(p.payments), p.simulate_s));
    }
    const double elapsed = now_s() - t0;
    const double per_pass = elapsed / static_cast<double>(r.passes);
    if (r.passes > kMinPasses && elapsed + per_pass > opt.seconds) break;
  }
  r.setup_s = median(setup);
  r.payments_per_s = median(rate);
  r.peak_rss_mb = peak_rss_mb();
  r.info.push_back(fmt("passes %.0f, setup_s min %.4f median %.4f",
                       static_cast<double>(r.passes),
                       *std::min_element(setup.begin(), setup.end()),
                       r.setup_s));
  r.info.push_back(fmt("payments_per_s max %.1f median %.1f min %.1f",
                       *std::max_element(rate.begin(), rate.end()),
                       r.payments_per_s,
                       *std::min_element(rate.begin(), rate.end())));
}

/// Traced run: a warm-up untraced pass, a traced pass, and an untraced
/// pass. All must agree on the metrics digest; the traced pass's wall
/// time over the second untraced pass's is the tracing overhead.
void drive_traced(const PassFn& pass, WorkloadResult& r) {
  PassOutcome warm = timed_pass(pass, false);
  PassOutcome traced = timed_pass(pass, true);
  PassOutcome plain = timed_pass(pass, false);
  if (plain.digest != traced.digest || warm.digest != traced.digest) {
    traced.errors.push_back("traced and untraced passes disagree on metrics");
  }
  r.passes = 3;
  r.digest = traced.digest;
  r.attempted = warm.payments + plain.payments + traced.payments;
  take_errors(r, warm);
  take_errors(r, plain);
  take_errors(r, traced);
  r.layers = std::move(traced.layers);
  // RSS of the process's first pass: later passes start from a heap the
  // earlier ones grew.
  r.layers.push_back(LayerMetric{"mem.setup_rss_mb", warm.setup_rss_mb, "MiB"});
  r.layers.push_back(LayerMetric{
      "alloc.setup_count", static_cast<double>(traced.setup_allocs), "count"});
  r.layers.push_back(LayerMetric{"trace.overhead_ratio",
                                 ratio(traced.wall_s, plain.wall_s), "ratio"});
  r.info.insert(r.info.end(), traced.info.begin(), traced.info.end());
  r.info.push_back(fmt("untraced pass %.3f s, traced pass %.3f s", plain.wall_s,
                       traced.wall_s));
}

WorkloadResult drive(const RunOptions& opt, const PassFn& pass) {
  WorkloadResult r;
  if (opt.trace) {
    drive_traced(pass, r);
  } else {
    drive_timed(opt, pass, r);
  }
  return r;
}

}  // namespace

std::uint64_t workload_seed(std::uint64_t seed) {
  return spider::exp::derive_seed(kBenchBaseSeed, seed);
}

std::vector<TrialSpec> fig6_trials(std::uint64_t wseed, std::size_t isp_txns,
                                   std::size_t ripple_txns) {
  TrialSpec isp;
  isp.topology = "isp32";
  isp.workload = "isp";
  isp.txns = isp_txns;
  isp.end_time = 200.0;
  isp.workload_seed = wseed;
  TrialSpec ripple = isp;
  ripple.topology = "ripple-3774";
  ripple.workload = "ripple";
  ripple.txns = ripple_txns;
  ripple.end_time = 85.0;
  std::vector<TrialSpec> trials;
  for (const TrialSpec& proto : {isp, ripple}) {
    for (const std::string& name : spider::schemes::all_scheme_names()) {
      TrialSpec t = proto;
      t.scheme = name;
      trials.push_back(std::move(t));
    }
  }
  return trials;
}

Metrics run_flow_trial_wrapped(const TrialSpec& spec, SchemeStats& stats,
                               bool time_routes) {
  Tracer tracer(false);
  const FlowInputs in = make_flow_inputs(spec, tracer);
  FlowTiming t;
  return run_flow(spec, in, stats, time_routes, tracer, t);
}

std::vector<TrialSpec> ripple_packet_trials(std::uint64_t wseed,
                                            std::size_t txns) {
  TrialSpec base;
  base.topology = "ripple-3774";
  base.workload = "ripple";
  base.txns = txns;
  base.end_time = 60.0;
  base.capacity_units = 3000.0;
  base.deadline_offset = 30.0;
  base.workload_seed = wseed;
  TrialSpec cc = base;
  cc.scheme = "spider-cc";
  TrialSpec widest = base;
  widest.scheme = "packet-widest";
  return {cc, widest};
}

std::vector<Metrics> run_packet_trials_precomputed(
    const std::vector<TrialSpec>& trials, std::size_t threads) {
  const TrialSpec& proto = trials.front();
  const spider::graph::Graph g =
      spider::exp::make_named_topology(proto.topology);
  const spider::graph::CsrGraph csr(g);
  const spider::workload::Trace trace = make_trace(proto, g);
  const spider::graph::PathTable table =
      precompute(csr, trace, packet_config(proto, nullptr).path_k, threads,
                 proto.workload_seed);
  Tracer tracer(false);
  std::vector<Metrics> out;
  for (const TrialSpec& spec : trials) {
    PacketRunStats st;
    out.push_back(run_packet(spec, g, trace, table, tracer, st));
  }
  return out;
}

spider::service::ServiceConfig service_config(std::uint64_t wseed,
                                              double duration) {
  spider::service::ServiceConfig cfg;
  cfg.topology = "ripple-3774";
  cfg.capacity_units = 3000.0;
  cfg.scheme = "spider-cc";
  const std::uint64_t stream_seed = spider::exp::derive_seed(wseed, 1);
  const std::uint64_t adversary_seed = spider::exp::derive_seed(wseed, 2);
  cfg.workload = "flash;rate=30;boost=6;every=40;blen=8;seed=" +
                 std::to_string(stream_seed);
  cfg.adversary = "jam=0.5,jamfrac=0.5,grief=0.05,huboutage=0.02,seed=" +
                  std::to_string(adversary_seed);
  cfg.duration = duration;
  cfg.window = 10.0;
  cfg.deadline_offset = 30.0;
  return cfg;
}

Metrics run_service_windowed(const spider::service::ServiceConfig& cfg) {
  spider::service::Service svc(cfg);
  const auto windows =
      static_cast<std::size_t>(std::llround(cfg.duration / cfg.window));
  for (std::size_t w = 1; w <= windows; ++w) {
    svc.run(static_cast<double>(w) * cfg.window);
  }
  return svc.finish();
}

WorkloadResult run_workload(const std::string& name, const RunOptions& opt) {
  const std::uint64_t wseed = workload_seed(opt.seed);
  if (name == "fig6-flow") {
    const std::vector<TrialSpec> trials =
        fig6_trials(wseed, kFig6IspTxns, kFig6RippleTxns);
    return drive(opt, [&](bool traced, PassOutcome& out) {
      fig6_pass(trials, traced, opt, out);
    });
  }
  if (name == "ripple-packet") {
    const std::vector<TrialSpec> trials =
        ripple_packet_trials(wseed, kPacketTxns);
    // Reference for the per-pass output check: the same table built on
    // one thread (precompute is byte-identical at any thread count).
    const TrialSpec& proto = trials.front();
    const spider::graph::Graph g =
        spider::exp::make_named_topology(proto.topology);
    const std::uint64_t reference =
        precompute(spider::graph::CsrGraph(g), make_trace(proto, g),
                   packet_config(proto, nullptr).path_k, 1,
                   proto.workload_seed)
            .checksum();
    return drive(opt, [&](bool traced, PassOutcome& out) {
      packet_pass(trials, reference, traced, opt, out);
    });
  }
  if (name == "service-adversarial") {
    const spider::service::ServiceConfig cfg =
        service_config(wseed, kServiceDuration);
    return drive(opt, [&](bool traced, PassOutcome& out) {
      service_pass(cfg, traced, opt, out);
    });
  }
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
