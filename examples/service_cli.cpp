// Long-running service mode from the command line (DESIGN.md §13).
//
// Runs a streaming workload against the packet simulator, printing one
// JSON line of windowed metric deltas per export window, optionally
// writing periodic snapshots that a later invocation can restore:
//
//   ./build/examples/service_cli --duration 600 --workload "diurnal;rate=20"
//   ./build/examples/service_cli --adversary "jam=0.01,jamfrac=0.5" \
//       --snapshot-every 120 --snapshot-out /tmp/svc.json
//   ./build/examples/service_cli --restore /tmp/svc.json
//
// A restored run replays the snapshot's inputs to its sim time (the
// simulator's event order is a pure function of the stream, so the
// replay is byte-identical -- validated against the stored checksum)
// and then continues to the configured duration.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "exp/report.hpp"
#include "exp/sweep.hpp"
#include "service/service.hpp"

namespace {

using namespace spider;

struct CliArgs {
  service::ServiceConfig cfg;
  double snapshot_every = 0;  // sim seconds; 0 = never
  std::string snapshot_out = "service_snapshot.json";
  std::string restore_path;
  std::string jsonl_out;  // window records also to this file
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--topology NAME] [--scheme NAME] [--workload SPEC]\n"
      "          [--adversary SPEC] [--duration S] [--window S]\n"
      "          [--seed N] [--audit] [--no-retire]\n"
      "          [--snapshot-every S] [--snapshot-out PATH]\n"
      "          [--restore PATH] [--jsonl PATH]\n",
      argv0);
  std::exit(2);
}

CliArgs parse(int argc, char** argv) {
  CliArgs a;
  for (int i = 1; i < argc; ++i) {
    const auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        usage(argv[0]);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--topology") == 0) {
      a.cfg.topology = need("--topology");
    } else if (std::strcmp(argv[i], "--scheme") == 0) {
      a.cfg.scheme = need("--scheme");
    } else if (std::strcmp(argv[i], "--workload") == 0) {
      a.cfg.workload = need("--workload");
    } else if (std::strcmp(argv[i], "--adversary") == 0) {
      a.cfg.adversary = need("--adversary");
    } else if (std::strcmp(argv[i], "--duration") == 0) {
      a.cfg.duration = std::atof(need("--duration"));
    } else if (std::strcmp(argv[i], "--window") == 0) {
      a.cfg.window = std::atof(need("--window"));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      a.cfg.seed = static_cast<std::uint64_t>(std::atoll(need("--seed")));
    } else if (std::strcmp(argv[i], "--audit") == 0) {
      a.cfg.audit = true;
    } else if (std::strcmp(argv[i], "--no-retire") == 0) {
      a.cfg.retire = false;
    } else if (std::strcmp(argv[i], "--snapshot-every") == 0) {
      a.snapshot_every = std::atof(need("--snapshot-every"));
    } else if (std::strcmp(argv[i], "--snapshot-out") == 0) {
      a.snapshot_out = need("--snapshot-out");
    } else if (std::strcmp(argv[i], "--restore") == 0) {
      a.restore_path = need("--restore");
    } else if (std::strcmp(argv[i], "--jsonl") == 0) {
      a.jsonl_out = need("--jsonl");
    } else {
      usage(argv[0]);
    }
  }
  return a;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    std::exit(1);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args = parse(argc, argv);

  std::ofstream jsonl;
  std::unique_ptr<service::Service> svc;
  // Bad specs (workload/adversary/scheme/topology) and malformed or
  // diverged snapshots all surface as exceptions; exit 2 like the
  // other CLIs instead of aborting.
  try {
    if (!args.restore_path.empty()) {
      const exp::Json snap = exp::Json::parse(slurp(args.restore_path));
      svc = service::Service::restore(snap, &std::cout);
      std::fprintf(stderr, "restored %s at t=%.1f (%llu txns, checksum ok)\n",
                   args.restore_path.c_str(), svc->now(),
                   static_cast<unsigned long long>(svc->txns_streamed()));
    } else {
      service::ServiceConfig cfg = args.cfg;
      cfg.window_sink = &std::cout;
      svc = std::make_unique<service::Service>(cfg);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "service_cli: %s\n", e.what());
    return 2;
  }
  if (!args.jsonl_out.empty()) {
    jsonl.open(args.jsonl_out);
  }

  const double duration = svc->config().duration;
  if (args.snapshot_every > 0) {
    for (double t = svc->now() + args.snapshot_every; t < duration;
         t += args.snapshot_every) {
      svc->run(t);
      exp::write_file(args.snapshot_out, svc->snapshot().dump(2) + "\n");
      std::fprintf(stderr, "snapshot at t=%.1f -> %s\n", svc->now(),
                   args.snapshot_out.c_str());
    }
  }
  const sim::Metrics& m = svc->finish();

  if (jsonl.is_open()) {
    for (const service::WindowRecord& w : svc->windows()) {
      jsonl << service::Service::window_to_json(w).dump() << '\n';
    }
  }

  std::fprintf(stderr,
               "done: t=%.1f txns=%llu success=%.4f p50=%.2fs p99=%.2fs "
               "live=%zu peak_live=%zu\n",
               svc->now(),
               static_cast<unsigned long long>(svc->txns_streamed()),
               m.success_ratio(), m.latency_p50(), m.latency_p99(),
               svc->live_payments(), svc->peak_live_payments());
  return 0;
}
