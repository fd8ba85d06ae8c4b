// Tests for the parallel experiment runner and structured telemetry:
// (a) N-thread and 1-thread sweeps produce identical metrics,
// (b) histogram percentiles match a sorted-vector oracle,
// (c) JSON/CSV round-trip of a Metrics snapshot.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "exp/histogram.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"

namespace {

using namespace spider;

std::vector<exp::TrialSpec> small_grid() {
  exp::SweepConfig cfg;
  cfg.schemes = {"shortest-path", "spider-waterfilling"};
  cfg.topologies = {"ring-8"};
  cfg.capacities_units = {150.0};
  cfg.seeds = 2;
  cfg.base_seed = 11;
  cfg.base.txns = 150;
  cfg.base.end_time = 20.0;
  cfg.base.collect_series = true;
  cfg.base.series_bucket = 5.0;
  return exp::make_trials(cfg);
}

TEST(Runner, MapPreservesIndexOrder) {
  const exp::Runner runner(4);
  const auto out = runner.map(
      100, [](std::size_t i) { return static_cast<int>(i) * 3; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i) * 3);
  }
}

TEST(Runner, ForEachRunsEveryIndexExactlyOnce) {
  const exp::Runner runner(3);
  std::vector<std::atomic<int>> hits(257);
  runner.for_each(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Runner, PropagatesExceptions) {
  const exp::Runner runner(2);
  EXPECT_THROW(
      runner.for_each(8,
                      [](std::size_t i) {
                        if (i == 5) throw std::runtime_error("trial 5 died");
                      }),
      std::runtime_error);
}

TEST(Runner, NestedForEachVisitsEveryIndexOnce) {
  const exp::Runner runner(3);
  constexpr std::size_t kOuter = 6;
  constexpr std::size_t kInner = 9;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  runner.for_each(kOuter, [&](std::size_t i) {
    runner.for_each(kInner, [&](std::size_t j) { ++hits[i * kInner + j]; });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Runner, RethrowsTheLowestFailingIndexAtAnyThreadCount) {
  for (const std::size_t threads : {1u, 2u, 4u}) {
    std::vector<std::atomic<int>> hits(8);
    try {
      exp::Runner(threads).for_each(hits.size(), [&](std::size_t i) {
        ++hits[i];
        if (i == 3 || i == 5) throw std::runtime_error(std::to_string(i));
      });
      ADD_FAILURE() << "no exception at " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "3") << threads << " threads";
    }
    // A failing index does not stop the others.
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << threads << " threads";
  }
}

TEST(Runner, StartsNoMoreThreadsThanIndices) {
  const exp::Runner runner(std::size_t{1} << 20);
  EXPECT_EQ(runner.threads(), std::size_t{1} << 20);
  std::vector<std::thread::id> ids(3);
  runner.for_each(ids.size(),
                  [&](std::size_t i) { ids[i] = std::this_thread::get_id(); });
  EXPECT_LE(std::set<std::thread::id>(ids.begin(), ids.end()).size(), 3u);
}

TEST(Runner, DerivedSeedsAreStableAndWellSeparated) {
  EXPECT_EQ(exp::derive_seed(1, 0), exp::derive_seed(1, 0));
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    seen.insert(exp::derive_seed(42, i));
  }
  EXPECT_EQ(seen.size(), 1000u);  // no collisions over a realistic sweep
  EXPECT_NE(exp::derive_seed(1, 7), exp::derive_seed(2, 7));
}

// (a) The tentpole guarantee: a parallel sweep is bit-identical to the
// serial one. Serialized JSON equality is the strongest practical check
// -- it covers every scalar, the histogram buckets, and all time series.
TEST(Runner, ParallelSweepMatchesSerialByteForByte) {
  const std::vector<exp::TrialSpec> trials = small_grid();
  ASSERT_EQ(trials.size(), 4u);

  const auto serial = exp::run_trials(trials, exp::Runner(1));
  const auto parallel = exp::run_trials(trials, exp::Runner(4));
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(exp::report::metrics_to_json(serial[i].metrics).dump(),
              exp::report::metrics_to_json(parallel[i].metrics).dump())
        << "trial " << i << " diverged across thread counts";
  }
  // The workload actually did something.
  for (const auto& r : serial) {
    EXPECT_GT(r.metrics.attempted, 0u);
    EXPECT_GT(r.metrics.succeeded, 0u);
    EXPECT_FALSE(r.metrics.queue_depth_series.empty());
    EXPECT_EQ(r.metrics.channel_imbalance_series.size(), 8u);
  }
}

// Replicas use derived seeds: different traces, hence (generically)
// different metrics across seed_index.
TEST(Runner, SeedReplicasDiffer) {
  const std::vector<exp::TrialSpec> trials = small_grid();
  EXPECT_NE(trials[0].workload_seed, trials[2].workload_seed);
  EXPECT_EQ(trials[0].workload_seed, trials[1].workload_seed)
      << "schemes within a replica must share the trace";
}

// (b) Histogram percentiles vs. a sorted-vector oracle.
TEST(Histogram, PercentilesMatchSortedOracle) {
  exp::Histogram h(1e-3, 1e4, 16);
  std::mt19937_64 rng(123);
  std::lognormal_distribution<double> dist(0.5, 1.2);
  std::vector<double> samples;
  samples.reserve(5000);
  for (int i = 0; i < 5000; ++i) {
    const double v = dist(rng);
    samples.push_back(v);
    h.add(v);
  }
  std::sort(samples.begin(), samples.end());
  const double tol = h.relative_error() + 1e-9;
  for (const double q : {0.10, 0.50, 0.90, 0.95, 0.99}) {
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    const double oracle = samples[rank - 1];
    const double est = h.quantile(q);
    EXPECT_NEAR(est, oracle, oracle * tol)
        << "q=" << q << " oracle=" << oracle << " est=" << est;
  }
  EXPECT_EQ(h.count(), 5000u);
  EXPECT_NEAR(h.mean(),
              std::accumulate(samples.begin(), samples.end(), 0.0) / 5000.0,
              1e-9);
}

TEST(Histogram, EdgeCases) {
  exp::Histogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty
  h.add(0.0);                       // underflow bucket
  h.add(1e9);                       // overflow bucket
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.quantile(0.0), h.min_value());
  EXPECT_EQ(h.quantile(1.0), h.max_value());

  exp::Histogram a(1e-3, 1e4, 16);
  exp::Histogram b(1e-3, 1e4, 16);
  a.add(1.0);
  b.add(2.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.sum(), 3.0);
}

// (c) JSON round-trip of a full Metrics snapshot from a real simulation
// (series collection on, so every field is exercised).
TEST(Report, MetricsJsonRoundTrip) {
  const std::vector<exp::TrialSpec> trials = small_grid();
  const exp::TrialResult r = exp::run_trial(trials[1]);
  ASSERT_GT(r.metrics.attempted, 0u);
  ASSERT_GT(r.metrics.latency_hist.count(), 0u);

  const exp::Json j = exp::report::metrics_to_json(r.metrics);
  const std::string text = j.dump(2);
  const exp::Json parsed = exp::Json::parse(text);
  const sim::Metrics restored = exp::report::metrics_from_json(parsed);
  EXPECT_TRUE(restored == r.metrics);
  // And the round-trip is a fixed point at the byte level.
  EXPECT_EQ(exp::report::metrics_to_json(restored).dump(2), text);
}

/// A snapshot whose every counter holds a distinct value, set through
/// the counter list so a counter added later is covered automatically.
sim::Metrics distinct_counters() {
  sim::Metrics m;
  std::uint64_t k = 0;
  sim::for_each_counter(m, [&k](const char*, auto& v) {
    // 1000k + 1 for integer counters; double ones also get a fraction.
    v = static_cast<std::remove_reference_t<decltype(v)>>(++k * 1000 + 1.25);
  });
  return m;
}

TEST(Report, MetricsCsvRoundTrip) {
  const sim::Metrics m = distinct_counters();
  const sim::Metrics restored =
      exp::report::metrics_from_csv_row(exp::report::metrics_csv_row(m));
  EXPECT_TRUE(restored == m);
  EXPECT_TRUE(exp::report::metrics_from_json(exp::Json::parse(
                  exp::report::metrics_to_json(m).dump())) == m);
}

TEST(Report, MetricsCsvHeaderAndJsonKeyOrderAreStable) {
  // Goldens: report consumers key on these names and this order.
  EXPECT_EQ(exp::report::metrics_csv_header(),
            "attempted,succeeded,partial,failed,attempted_volume,"
            "delivered_volume,completed_volume,total_attempt_rounds,"
            "units_sent,sum_completion_latency,rebalance_events,"
            "rebalanced_volume,fees_paid,fault_events_applied,"
            "fault_node_downs,fault_channel_closures,fault_withhold_spells,"
            "fault_stale_spells,fault_units_failed,fault_reroutes,"
            "fault_withheld_acks,fault_stale_decisions,fault_backoff_retries,"
            "fault_jam_spells,fault_jam_locked_volume,fault_grief_spells,"
            "fault_griefed_acks,cc_marked_acks,cc_window_decreases,"
            "cc_timeout_retries,success_ratio,success_volume,"
            "mean_completion_latency,latency_p50,latency_p95,latency_p99");
  sim::Metrics m;
  m.attempted = 4;
  m.succeeded = 3;
  m.attempted_volume = 9000;
  m.delivered_volume = 7000;
  m.sum_completion_latency = 1.5;
  m.fees_paid = 12;
  m.fault_jam_locked_volume = 5;
  m.cc_timeout_retries = 2;
  EXPECT_EQ(exp::report::metrics_csv_row(m),
            "4,3,0,0,9000,7000,0,0,0,1.5,0,0,12,0,0,0,0,0,0,0,0,0,0,0,5,0,0,"
            "0,0,2,0.75,0.7777777777777778,0.5,0,0,0");
  // JSON keys: the CSV columns in the same order, then the structured
  // fields.
  const std::string json = exp::report::metrics_to_json(m).dump();
  const std::string keys = exp::report::metrics_csv_header() +
                           ",latency_hist,series_bucket,delivered_series,"
                           "channel_imbalance_series,queue_depth_series";
  std::size_t at = 0;
  for (std::size_t start = 0, comma = 0; comma != std::string::npos;
       start = comma + 1) {
    comma = keys.find(',', start);
    const std::string key = '"' + keys.substr(start, comma - start) + "\":";
    at = json.find(key, at);
    ASSERT_NE(at, std::string::npos) << key << " missing or out of order";
  }
}

/// Runs `fn` and expects a std::runtime_error whose message names `what`.
template <typename Fn>
void expect_runtime_error_naming(Fn fn, const std::string& what) {
  try {
    fn();
    ADD_FAILURE() << "no exception; expected one naming " << what;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

TEST(Report, MetricsCsvRejectsMalformedColumns) {
  struct Case {
    std::size_t column;
    const char* value;
    const char* name;
  };
  // In an all-zero row column k (k < 10) sits at offset 2k; the names
  // follow the header golden above.
  const std::string good = exp::report::metrics_csv_row(sim::Metrics{});
  for (const Case& c : {Case{0, "-1", "attempted"},
                        Case{5, "12abc", "delivered_volume"},
                        Case{9, "1.5xyz", "sum_completion_latency"}}) {
    const std::string row =
        std::string(good).replace(2 * c.column, 1, c.value);
    expect_runtime_error_naming(
        [&row] { (void)exp::report::metrics_from_csv_row(row); }, c.name);
  }
  EXPECT_TRUE(exp::report::metrics_from_csv_row(good) == sim::Metrics{});
}

TEST(Report, MetricsJsonRejectsMissingAndMistypedFields) {
  struct Case {
    const char* from;
    const char* to;
    const char* name;
  };
  const std::string good = exp::report::metrics_to_json(sim::Metrics{}).dump();
  for (const Case& c :
       {Case{R"("fees_paid":0,)", "", "fees_paid"},
        Case{R"("units_sent":0)", R"("units_sent":"zero")", "units_sent"},
        Case{R"("counts":[])", R"("counts":7)", "latency_hist"}}) {
    std::string text = good;
    const std::size_t at = text.find(c.from);
    ASSERT_NE(at, std::string::npos) << c.from;
    const exp::Json j =
        exp::Json::parse(text.replace(at, std::strlen(c.from), c.to));
    expect_runtime_error_naming(
        [&j] { (void)exp::report::metrics_from_json(j); }, c.name);
  }
}

TEST(Report, SpiderCcCountersSurviveJsonAndCsvRoundTrip) {
  // A congested packet-backed trial with an aggressive mark threshold
  // and a short per-launch timeout, so all three spider-cc telemetry
  // counters are nonzero and the new serialization columns are
  // exercised with real values, not zeros.
  exp::TrialSpec spec;
  spec.scheme = "spider-cc";
  spec.topology = "line-6";
  spec.workload_seed = 17;
  spec.txns = 400;
  spec.end_time = 25.0;
  spec.capacity_units = 60.0;
  spec.cc_mark_threshold = 0.05;
  spec.audit = true;
  const exp::TrialResult r = exp::run_trial(spec);
  ASSERT_GT(r.metrics.attempted, 0u);
  ASSERT_GT(r.metrics.cc_marked_acks, 0u);
  ASSERT_GT(r.metrics.cc_window_decreases, 0u);
  ASSERT_GT(r.metrics.cc_timeout_retries, 0u);

  const exp::Json j = exp::report::metrics_to_json(r.metrics);
  const sim::Metrics from_json =
      exp::report::metrics_from_json(exp::Json::parse(j.dump(2)));
  EXPECT_TRUE(from_json == r.metrics);

  // Every counter survives the CSV row (the histogram behind the derived
  // percentiles does not travel, so lend it back).
  const std::string row = exp::report::metrics_csv_row(r.metrics);
  sim::Metrics from_csv = exp::report::metrics_from_csv_row(row);
  from_csv.latency_hist = r.metrics.latency_hist;
  EXPECT_EQ(exp::report::metrics_csv_row(from_csv), row);
}

TEST(Sweep, PacketBackedTrialsAreThreadCountDeterministic) {
  // The packet branch of run_trial must be as thread-count-invariant as
  // the flow branch: a mixed grid (spider-cc + its ungated baseline +
  // a flow scheme) gives identical metrics on 1 and 4 runner threads.
  exp::SweepConfig cfg;
  cfg.schemes = {"spider-cc", "packet-widest", "spider-waterfilling"};
  cfg.topologies = {"ring-8"};
  cfg.capacities_units = {150.0};
  cfg.seeds = 2;
  cfg.base_seed = 19;
  cfg.base.txns = 200;
  cfg.base.end_time = 20.0;
  const std::vector<exp::TrialSpec> trials = exp::make_trials(cfg);
  const std::vector<exp::TrialResult> a =
      exp::run_trials(trials, exp::Runner(1));
  const std::vector<exp::TrialResult> b =
      exp::run_trials(trials, exp::Runner(4));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].metrics == b[i].metrics) << trials[i].scheme;
    EXPECT_GT(a[i].metrics.attempted, 0u) << trials[i].scheme;
  }
}

TEST(Report, JsonParserHandlesNestingAndEscapes) {
  const exp::Json j = exp::Json::parse(
      R"({"a": [1, 2.5, -3, true, false, null], "s": "q\"\\\nA", )"
      R"("nested": {"empty_arr": [], "empty_obj": {}}})");
  EXPECT_EQ(j.at("a").size(), 6u);
  EXPECT_EQ(j.at("a").at(0).as_int(), 1);
  EXPECT_DOUBLE_EQ(j.at("a").at(1).as_double(), 2.5);
  EXPECT_EQ(j.at("a").at(2).as_int(), -3);
  EXPECT_TRUE(j.at("a").at(3).as_bool());
  EXPECT_TRUE(j.at("a").at(5).is_null());
  EXPECT_EQ(j.at("s").as_string(), "q\"\\\nA");
  EXPECT_EQ(j.at("nested").at("empty_arr").size(), 0u);
  // Round-trip.
  EXPECT_EQ(exp::Json::parse(j.dump()), j);
  EXPECT_EQ(exp::Json::parse(j.dump(2)), j);
  // Malformed input throws.
  EXPECT_THROW((void)exp::Json::parse("{\"a\": 1,}garbage"),
               std::runtime_error);
  EXPECT_THROW((void)exp::Json::parse("[1, 2"), std::runtime_error);
}

TEST(Report, JsonUintRoundTripsEveryBitPattern) {
  // Json stores integers as int64, so u64 values >= 2^63 dump as
  // negative numbers; as_uint must still return exactly what was written.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint64_t kHigh = std::uint64_t{1} << 63;
  for (const std::uint64_t u : {std::uint64_t{0}, std::uint64_t{42},
                                kHigh - 1, kHigh, kHigh + 7, kMax}) {
    const exp::Json j(u);
    EXPECT_EQ(j.as_uint(), u);
    EXPECT_EQ(exp::Json::parse(j.dump()).as_uint(), u);
  }
  // The emitted bytes are the int64 form, unchanged.
  EXPECT_EQ(exp::Json(kMax).dump(), "-1");
  EXPECT_EQ(exp::Json(kHigh).dump(), "-9223372036854775808");
}

TEST(Sweep, NamedTopologiesResolve) {
  EXPECT_EQ(exp::make_named_topology("isp32").node_count(), 32u);
  EXPECT_EQ(exp::make_named_topology("ring-12").node_count(), 12u);
  EXPECT_EQ(exp::make_named_topology("ripple-100").node_count(), 100u);
  EXPECT_THROW((void)exp::make_named_topology("nonsense"),
               std::invalid_argument);
  EXPECT_THROW((void)exp::make_named_topology("ring-"),
               std::invalid_argument);
}

}  // namespace
