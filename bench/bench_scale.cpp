// Scale benchmark of the CSR graph substrate and sharded path
// precomputation: full-Ripple (3774 nodes, the paper's topology size)
// and a 100k-node Lightning-like network.
//
// Per topology it times graph construction (edge list + one CSR arena
// build), path precomputation serial vs multi-threaded (the
// PathTable checksum is asserted byte-identical across thread counts --
// DESIGN.md §7 extended to setup work), and a packet-simulator trial
// fed from the precomputed table (events/sec). The ripple-3774 block
// additionally runs the fig-6-style six-scheme sweep at default scale,
// pinning its deterministic metrics into the report.
//
// Writes BENCH_scale.json (schema in EXPERIMENTS.md). CI re-runs the
// bench at reduced scale and compares: deterministic fields (checksums,
// event counts, metrics) must match exactly; timing fields gate with
// generous thresholds. Peak RSS comes from getrusage and is cumulative
// over the process, so the 100k block reports the high-water mark. Each
// block also records current RSS (VmRSS) after each stage -- graph
// build, path precompute, simulator construction and run -- so a
// per-node or per-channel fixed cost shows up in the stage that pays it.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "bench_util.hpp"
#include "exp/path_precompute.hpp"
#include "sim/packet_sim.hpp"

namespace {

using namespace spider;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    // Linux reports ru_maxrss in KiB.
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
  }
#endif
  return 0.0;
}

/// Current resident set (VmRSS in /proc/self/status), in MiB; 0 where
/// procfs is unavailable. Freed heap pages are first returned to the OS
/// (glibc), so the reading counts live data, not what an earlier stage
/// or block freed and the allocator kept.
double current_rss_mb() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

/// Deterministic strided (src, dst) sample: a fixed multiplicative hash
/// walk over the node space, independent of any RNG.
std::vector<graph::PathTable::Pair> strided_pairs(graph::NodeId n,
                                                  std::size_t count) {
  std::vector<graph::PathTable::Pair> pairs;
  pairs.reserve(count);
  for (std::size_t i = 0; pairs.size() < count; ++i) {
    const auto src = static_cast<graph::NodeId>((i * 2654435761ull) % n);
    const auto dst = static_cast<graph::NodeId>((i * 40503ull + 9973ull) % n);
    if (src != dst) pairs.emplace_back(src, dst);
  }
  return pairs;
}

struct PrecomputeTiming {
  graph::PathTable table;  // the parallel-run result (all runs identical)
  double serial_seconds = 0.0;
  double parallel_seconds = 0.0;
  std::size_t parallel_threads = 0;
  bool checksums_equal = false;
};

/// Runs the precompute serial and at 2 and `threads` workers, asserts
/// the PathTable fingerprints agree, and returns the timings.
PrecomputeTiming time_precompute(const graph::Graph& g,
                                 const exp::PathPrecomputePlan& plan,
                                 std::size_t k, std::size_t threads) {
  PrecomputeTiming r;
  r.parallel_threads = threads;
  auto t0 = Clock::now();
  const graph::PathTable serial =
      exp::precompute_paths(g, plan, k, exp::Runner(1));
  r.serial_seconds = seconds_since(t0);
  const graph::PathTable two =
      exp::precompute_paths(g, plan, k, exp::Runner(2));
  t0 = Clock::now();
  graph::PathTable parallel =
      exp::precompute_paths(g, plan, k, exp::Runner(threads));
  r.parallel_seconds = seconds_since(t0);
  r.checksums_equal = serial.checksum() == two.checksum() &&
                      serial.checksum() == parallel.checksum();
  if (!r.checksums_equal) {
    std::fprintf(stderr,
                 "FATAL: PathTable checksum differs across thread counts\n");
    std::exit(1);
  }
  r.table = std::move(parallel);
  return r;
}

struct SimRun {
  std::uint64_t events = 0;
  double wall_seconds = 0.0;
  double construct_rss_mb = 0.0;  // after construction, before submit
  double run_rss_mb = 0.0;        // after run(), simulator still alive
  sim::Metrics metrics;
};

SimRun run_packet_trial(const graph::Graph& g, const workload::Trace& trace,
                        const graph::PathTable& table, double capacity_units,
                        double end_time) {
  sim::PacketSimConfig cfg;
  cfg.end_time = end_time;
  cfg.seed = 7;
  cfg.paths = &table;
  sim::PacketSimulator psim(
      g,
      std::vector<core::Amount>(g.edge_count(),
                                core::from_units(capacity_units)),
      cfg);
  SimRun r;
  r.construct_rss_mb = current_rss_mb();
  for (const core::PaymentRequest& req : trace) psim.submit(req);
  const auto t0 = Clock::now();
  r.metrics = psim.run();
  r.wall_seconds = seconds_since(t0);
  r.run_rss_mb = current_rss_mb();
  r.events = psim.events_processed();
  return r;
}

exp::Json sim_json(const SimRun& r) {
  exp::Json j = exp::Json::object();
  j.set("events", r.events);
  j.set("wall_seconds", r.wall_seconds);
  j.set("events_per_sec",
        static_cast<double>(r.events) / r.wall_seconds);
  j.set("metrics", exp::report::metrics_to_json(r.metrics));
  return j;
}

struct ScaleBlock {
  std::string topology;
  std::size_t sim_txns;
  double sim_end_time;
  double sim_capacity_units;
  std::size_t extra_pairs;  // strided pairs beyond the trace's own
};

exp::Json run_block(const ScaleBlock& b, std::size_t threads) {
  std::printf("\n--- %s ---\n", b.topology.c_str());

  const auto t0 = Clock::now();
  const graph::Graph g = exp::make_named_topology(b.topology);
  const double build_seconds = seconds_since(t0);
  std::printf("%zu nodes / %zu edges: build %.3f s (%.1f MiB arena)\n",
              g.node_count(), g.edge_count(), build_seconds,
              static_cast<double>(g.memory_bytes()) / (1024.0 * 1024.0));
  const double build_rss_mb = current_rss_mb();

  // Workload trace first: its (src, dst) pairs seed the precompute plan,
  // so the simulator below never falls back to lazy path computation.
  const workload::Trace trace = workload::generate_trace(
      g, workload::ripple_workload(b.sim_txns, b.sim_end_time,
                                   exp::derive_seed(44, 0)));
  std::vector<graph::PathTable::Pair> pairs;
  pairs.reserve(trace.size() + b.extra_pairs);
  for (const core::PaymentRequest& tx : trace) {
    pairs.emplace_back(tx.src, tx.dst);
  }
  const auto strided =
      strided_pairs(static_cast<graph::NodeId>(g.node_count()), b.extra_pairs);
  pairs.insert(pairs.end(), strided.begin(), strided.end());
  const auto plan = exp::PathPrecomputePlan::make(std::move(pairs));

  const PrecomputeTiming pc = time_precompute(g, plan, 4, threads);
  const double precompute_rss_mb = current_rss_mb();
  const double speedup = pc.parallel_seconds > 0.0
                             ? pc.serial_seconds / pc.parallel_seconds
                             : 0.0;
  std::printf("precompute %zu pairs (k=4): serial %.3f s, %zu-thread %.3f s "
              "(speedup %.2fx), checksums equal across {1,2,%zu} threads\n",
              plan.pairs.size(), pc.serial_seconds, pc.parallel_threads,
              pc.parallel_seconds, speedup, pc.parallel_threads);

  const SimRun sim = run_packet_trial(g, trace, pc.table,
                                      b.sim_capacity_units, b.sim_end_time);
  std::printf("packet sim: %llu events in %.3f s = %.0f events/sec, "
              "success_ratio %.3f\n",
              static_cast<unsigned long long>(sim.events), sim.wall_seconds,
              static_cast<double>(sim.events) / sim.wall_seconds,
              sim.metrics.success_ratio());
  std::printf("RSS after build %.1f MiB, precompute %.1f MiB, construct "
              "%.1f MiB, run %.1f MiB\n",
              build_rss_mb, precompute_rss_mb, sim.construct_rss_mb,
              sim.run_rss_mb);

  exp::Json j = exp::Json::object();
  j.set("topology", b.topology);
  j.set("nodes", static_cast<std::uint64_t>(g.node_count()));
  j.set("edges", static_cast<std::uint64_t>(g.edge_count()));
  j.set("build_seconds", build_seconds);
  j.set("csr_bytes", static_cast<std::uint64_t>(g.memory_bytes()));
  j.set("csr_checksum", g.checksum());
  exp::Json jp = exp::Json::object();
  jp.set("pairs", static_cast<std::uint64_t>(plan.pairs.size()));
  jp.set("k", static_cast<std::uint64_t>(4));
  jp.set("chunk_size", static_cast<std::uint64_t>(plan.chunk_size));
  jp.set("path_count", static_cast<std::uint64_t>(pc.table.path_count()));
  jp.set("table_checksum", pc.table.checksum());
  jp.set("serial_seconds", pc.serial_seconds);
  jp.set("parallel_seconds", pc.parallel_seconds);
  jp.set("parallel_threads", static_cast<std::uint64_t>(pc.parallel_threads));
  jp.set("speedup_parallel", speedup);
  j.set("precompute", std::move(jp));
  exp::Json js = sim_json(sim);
  js.set("txns", static_cast<std::uint64_t>(b.sim_txns));
  js.set("end_time", b.sim_end_time);
  js.set("capacity_units", b.sim_capacity_units);
  j.set("packet_sim", std::move(js));
  j.set("peak_rss_mb", peak_rss_mb());
  exp::Json jr = exp::Json::object();
  jr.set("build", build_rss_mb);
  jr.set("precompute", precompute_rss_mb);
  jr.set("construct", sim.construct_rss_mb);
  jr.set("run", sim.run_rss_mb);
  j.set("rss_mb", std::move(jr));
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  bench::print_header(
      "bench_scale",
      "CSR substrate + parallel precompute at 3774 and 100k nodes");
  const bool full = bench::full_scale();
  const std::size_t threads = args.threads == 0 ? 8 : args.threads;

  exp::Json j = exp::Json::object();
  j.set("bench", "scale");
  j.set("schema_version", 1);
  j.set("scale", full ? "full" : "reduced");
  j.set("threads", static_cast<std::uint64_t>(threads));

  // Full-Ripple: the 3774-node topology of the paper's Ripple figures.
  ScaleBlock ripple;
  ripple.topology = "ripple-3774";
  ripple.sim_txns = full ? 20000 : 4000;
  ripple.sim_end_time = 40.0;
  ripple.sim_capacity_units = 1500.0;
  ripple.extra_pairs = 2000;

  // 100k-node Lightning-like network: an order of magnitude past any
  // deployed payment-channel topology of the paper's era. The node
  // count stays 100k at reduced scale -- building and precomputing at
  // that size IS the benchmark; only the workload shrinks.
  ScaleBlock lightning;
  lightning.topology = "lightning-100k";
  lightning.sim_txns = full ? 2000 : 500;
  lightning.sim_end_time = 20.0;
  lightning.sim_capacity_units = 1500.0;
  lightning.extra_pairs = full ? 512 : 128;

  exp::Json topologies = exp::Json::array();
  topologies.push_back(run_block(ripple, threads));
  topologies.push_back(run_block(lightning, threads));
  j.set("topologies", std::move(topologies));

  // Fig-6-style six-scheme sweep on full Ripple at default scale: the
  // substrate must carry the paper's headline comparison at 3774 nodes
  // inside CI wall-time, deterministically.
  std::printf("\n--- fig6-style sweep on ripple-3774 ---\n");
  std::vector<exp::TrialSpec> trials;
  for (const std::string& name : schemes::all_scheme_names()) {
    exp::TrialSpec t;
    t.scheme = name;
    t.topology = "ripple-3774";
    t.workload = "ripple";
    t.workload_seed = 22;
    t.txns = full ? 75000 : 7500;
    t.end_time = 85.0;
    t.capacity_units = 3000.0;
    trials.push_back(std::move(t));
  }
  const exp::Runner runner(args.threads);
  const auto t0 = Clock::now();
  const std::vector<exp::TrialResult> results =
      exp::run_trials(trials, runner);
  const double sweep_wall = seconds_since(t0);
  exp::Json jsweep = exp::Json::object();
  jsweep.set("txns", static_cast<std::uint64_t>(trials[0].txns));
  jsweep.set("wall_seconds", sweep_wall);
  exp::Json jtrials = exp::Json::array();
  for (const exp::TrialResult& r : results) {
    std::printf("%-22s success_ratio %.3f volume %.3f p95 %.2f s\n",
                r.spec.scheme.c_str(), r.metrics.success_ratio(),
                r.metrics.success_volume(), r.metrics.latency_p95());
    exp::Json t = exp::Json::object();
    t.set("scheme", r.spec.scheme);
    t.set("metrics", exp::report::metrics_to_json(r.metrics));
    jtrials.push_back(std::move(t));
  }
  jsweep.set("trials", std::move(jtrials));
  j.set("fig6_ripple_3774", std::move(jsweep));
  std::printf("sweep wall time: %.1f s\n", sweep_wall);
  std::printf("peak RSS: %.1f MiB\n", peak_rss_mb());

  const std::string out =
      args.json_out.empty() ? "BENCH_scale.json" : args.json_out;
  exp::write_file(out, j.dump(2) + "\n");
  std::printf("wrote report: %s\n", out.c_str());
  return 0;
}
