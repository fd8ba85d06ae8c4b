// perfbench: end-to-end benchmark of the Spider reproduction.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--spans PATH]
//
// Prints human-readable lines, a line of run facts ("facts" object),
// and as its last line one JSON object with `correct`, `attempted`,
// `failed` and `metrics`. With --trace 0 the metrics are the end-to-end
// ones; with --trace 1 they are the per-layer values of the workload's
// layers (README.md lists which workload supplies which layer).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--spans PATH]\n",
               why.c_str());
  std::exit(2);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunOptions opt;
  const unsigned hw = std::thread::hardware_concurrency();
  opt.threads = hw == 0 ? 1 : std::min(2u, hw);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        workload = val;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(val);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (arg == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        opt.trace = val == "1";
      } else if (arg == "--spans") {
        opt.spans_path = val;
      } else {
        usage("unknown flag " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + val);
    }
  }
  if (workload.empty()) usage("--workload is required");

  perfbench::WorkloadResult r;
  try {
    r = perfbench::run_workload(workload, opt);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(),
                 e.what());
    return 1;
  }

  for (const std::string& line : r.info) {
    std::printf("%s: %s\n", workload.c_str(), line.c_str());
  }
  for (const std::string& line : r.errors) {
    std::printf("%s: CHECK FAILED: %s\n", workload.c_str(), line.c_str());
  }
  std::printf(
      "{\"facts\": {\"workload\": %s, \"seed\": %llu, \"workload_seed\": %llu, "
      "\"nproc\": %u, \"compiler\": %s, \"build_type\": %s, "
      "\"precompute_threads\": %zu, \"trace\": %d, \"passes\": %zu, "
      "\"metrics_digest\": \"%016llx\"}}\n",
      json_string(workload).c_str(),
      static_cast<unsigned long long>(opt.seed),
      static_cast<unsigned long long>(perfbench::workload_seed(opt.seed)), hw,
      json_string(compiler()).c_str(), json_string(PERFBENCH_BUILD_TYPE).c_str(),
      opt.threads, opt.trace ? 1 : 0, r.passes,
      static_cast<unsigned long long>(r.digest));

  std::string metrics;
  const auto add = [&metrics](const std::string& name, double value,
                              const std::string& unit) {
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(name) + ": {\"value\": " + number(value) +
               ", \"unit\": " + json_string(unit) + "}";
  };
  if (opt.trace) {
    for (const perfbench::LayerMetric& m : r.layers) {
      add(m.name, m.value, m.unit);
    }
  } else {
    add("setup_s", r.setup_s, "s");
    add("payments_per_s", r.payments_per_s, "1/s");
    add("peak_rss_mb", r.peak_rss_mb, "MiB");
    add("success_ratio", r.success_ratio, "fraction");
    add("success_volume", r.success_volume, "fraction");
    add("payment_p99_s", r.payment_p99_s, "s");
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      r.correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), metrics.c_str());
  return 0;
}
