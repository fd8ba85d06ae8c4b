// Steady-state soak bench for the long-running service mode
// (DESIGN.md §13): one simulated hour of streaming workload against the
// packet simulator, with windowed metrics export, payment retirement,
// and an adversarial variant (HTLC jamming + griefing + targeted hub
// outages) riding the same harness.
//
// Correctness is asserted IN the binary, so a green bench is a
// determinism proof at soak scale; any divergence is a hard exit(1):
//  * snapshot/restore identity: the run is snapshotted at half time,
//    restored from the JSON document, and both the original and the
//    restored service continue to the end -- final metrics
//    (operator==), state checksums, and every window record's
//    deterministic fields must match.
//
// Writes BENCH_steady_state.json. The bench_steady_state_golden ctest
// re-runs the bench at this reduced scale and checks the deterministic
// fields against the committed file; the nightly soak job re-runs at
// SPIDER_FULL=1 scale.
//
//   ./build/bench/bench_steady_state [--smoke] [--json PATH]
//
// --smoke shrinks the simulated horizon for sanitizer jobs;
// SPIDER_FULL=1 scales the stream up (see EXPERIMENTS.md).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "exp/report.hpp"
#include "service/service.hpp"

namespace {

using namespace spider;
using Clock = std::chrono::steady_clock;

struct SoakArgs {
  bool smoke = false;
  std::string json_out;
};

SoakArgs parse_args(int argc, char** argv) {
  SoakArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      args.smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      args.json_out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json PATH]\n", argv[0]);
      std::exit(2);
    }
  }
  return args;
}

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    std::exit(1);
  }
}

bool windows_equal(const std::vector<service::WindowRecord>& a,
                   const std::vector<service::WindowRecord>& b) {
  if (a.size() != b.size()) return false;
  for (const service::WindowRecord& wb : b) {
    const service::WindowRecord& wa = a[wb.index];
    if (wa.t0 != wb.t0 || wa.t1 != wb.t1 || wa.attempted != wb.attempted ||
        wa.succeeded != wb.succeeded || wa.partial != wb.partial ||
        wa.failed != wb.failed || wa.retired != wb.retired ||
        wa.delivered != wb.delivered || wa.events != wb.events ||
        wa.live != wb.live || wa.p50 != wb.p50 || wa.p99 != wb.p99 ||
        wa.checksum != wb.checksum) {
      return false;
    }
  }
  return true;
}

exp::Json run_variant(const char* name, const service::ServiceConfig& base) {
  std::printf("\n== %s: %s on %s, %.0f sim-seconds ==\n", name,
              base.scheme.c_str(), base.topology.c_str(), base.duration);

  // Straight-through run (the throughput measurement).
  const auto t0 = Clock::now();
  service::Service svc(base);
  const sim::Metrics straight = svc.finish();
  const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
  const std::uint64_t checksum = svc.state_checksum();
  std::uint64_t events = 0;
  for (const service::WindowRecord& w : svc.windows()) events += w.events;
  std::printf("  txns=%llu success=%.4f p50=%.2fs p99=%.2fs windows=%zu "
              "peak_live=%zu\n  wall=%.2fs (%.0f events/sec)\n",
              static_cast<unsigned long long>(svc.txns_streamed()),
              straight.success_ratio(), straight.latency_p50(),
              straight.latency_p99(), svc.windows().size(),
              svc.peak_live_payments(), wall,
              wall > 0 ? static_cast<double>(events) / wall : 0.0);

  // Snapshot/restore identity: snapshot at half time, restore from the
  // serialized document, continue both to the end.
  service::Service cont(base);
  cont.run(base.duration / 2);
  const exp::Json snap = cont.snapshot();
  const exp::Json reparsed = exp::Json::parse(snap.dump());
  std::unique_ptr<service::Service> restored =
      service::Service::restore(reparsed);
  const sim::Metrics& m_cont = cont.finish();
  const sim::Metrics& m_rest = restored->finish();
  check(m_cont == straight, "half+continue metrics == straight-through");
  check(m_rest == straight, "restored metrics == straight-through");
  check(cont.state_checksum() == checksum, "half+continue checksum");
  check(restored->state_checksum() == checksum, "restored checksum");
  check(windows_equal(svc.windows(), restored->windows()),
        "restored window records");
  std::printf("  snapshot/restore identity: OK\n");

  exp::Json j = exp::Json::object();
  j.set("variant", name);
  j.set("topology", base.topology);
  j.set("scheme", base.scheme);
  j.set("workload", base.workload);
  j.set("adversary", base.adversary);
  j.set("duration", base.duration);
  j.set("window", base.window);
  j.set("txns_streamed", svc.txns_streamed());
  j.set("windows", static_cast<std::uint64_t>(svc.windows().size()));
  j.set("peak_live_payments",
        static_cast<std::uint64_t>(svc.peak_live_payments()));
  j.set("metrics", exp::report::metrics_to_json(straight));
  j.set("state_checksum", checksum);
  j.set("snapshot_restore_identity", true);
  j.set("events", events);
  // Wall-clock fields (volatile; check_golden.py drops them).
  j.set("wall_seconds", wall);
  j.set("events_per_wall_sec",
        wall > 0 ? static_cast<double>(events) / wall : 0.0);
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  const SoakArgs args = parse_args(argc, argv);
  const bool full = bench::full_scale();
  bench::print_header("bench_steady_state",
                      "service-mode soak: streaming driver, windowed "
                      "metrics, snapshot/restore, adversarial workloads");

  service::ServiceConfig base;
  base.topology = args.smoke ? "scalefree-32" : "scalefree-64";
  base.scheme = "packet-widest";
  base.duration = args.smoke ? 300.0 : 3600.0;  // >= 1 simulated hour
  base.window = 60.0;
  base.seed = 11;
  base.workload = full ? "steady;rate=10;seed=9" : "steady;rate=2;seed=9";

  service::ServiceConfig adv = base;
  adv.workload = full ? "flash;rate=8;boost=8;every=300;blen=15;seed=9"
                      : "flash;rate=2;boost=6;every=120;blen=10;seed=9";
  adv.adversary = "jam=0.01,jamfrac=0.5,grief=0.005,huboutage=0.002";
  adv.audit = true;  // strict invariants under attack, whole soak

  exp::Json j = exp::Json::object();
  j.set("bench", "steady_state");
  j.set("schema_version", 1);
  j.set("scale", args.smoke ? "smoke" : (full ? "full" : "reduced"));
  exp::Json variants = exp::Json::array();
  variants.push_back(run_variant("steady", base));
  variants.push_back(run_variant("adversarial", adv));
  j.set("variants", std::move(variants));

  const std::string out =
      args.json_out.empty() ? "BENCH_steady_state.json" : args.json_out;
  exp::write_file(out, j.dump(2) + "\n");
  std::printf("\nwrote report: %s\n", out.c_str());
  return 0;
}
