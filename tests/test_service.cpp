// Tests of the long-running service mode (DESIGN.md §13): the pull-
// based stream generators (src/workload/stream.*), the streaming
// driver's windowed metrics export, payment retirement, and the
// replay-based snapshot/restore identity -- split at multiple points
// and under active fault schedules.

#include "service/service.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exp/report.hpp"
#include "graph/topology.hpp"
#include "sim/packet_sim.hpp"
#include "workload/stream.hpp"

namespace spider {
namespace {

using service::Service;
using service::ServiceConfig;
using service::WindowRecord;
using workload::StreamConfig;
using workload::StreamKind;

// ---------------------------------------------------------------------
// Stream generators.
// ---------------------------------------------------------------------

TEST(StreamSpec, ParsesAndRoundTrips) {
  const char* specs[] = {
      "steady;rate=20;mean=170;max=1780;sigma=1;skew=4;sender=exp;seed=1",
      "diurnal;rate=5;amp=0.25;period=120;seed=7",
      "flash;rate=3;boost=6;every=200;blen=12;sender=uni;seed=9",
      "trace;path=/tmp/some_trace.csv",
  };
  for (const char* s : specs) {
    const StreamConfig cfg = workload::parse_stream_spec(s);
    const std::string canon = workload::to_string(cfg);
    const StreamConfig back = workload::parse_stream_spec(canon);
    EXPECT_EQ(workload::to_string(back), canon) << s;
  }
  EXPECT_EQ(workload::parse_stream_spec("diurnal;amp=0.3").kind,
            StreamKind::kDiurnal);
}

TEST(StreamSpec, RejectsMalformedSpecs) {
  EXPECT_THROW((void)workload::parse_stream_spec("tsunami;rate=1"),
               std::invalid_argument);
  EXPECT_THROW((void)workload::parse_stream_spec("steady;bogus=1"),
               std::invalid_argument);
  EXPECT_THROW((void)workload::parse_stream_spec("steady;rate=abc"),
               std::invalid_argument);
  const graph::Graph g = graph::topology::make_ring(8);
  for (const char* spec : {"steady;rate=0", "steady;rate=nan", "steady;skew=0",
                           "diurnal;amp=1.5", "flash;boost=0.5", "trace"}) {
    EXPECT_THROW((void)workload::make_stream(spec, g), std::invalid_argument)
        << spec;
  }
}

TEST(StreamGenerator, SameSpecIsByteIdentical) {
  const graph::Graph g = graph::topology::make_ring(10);
  for (const char* spec :
       {"steady;rate=50;seed=3", "diurnal;rate=50;amp=0.6;period=30;seed=3",
        "flash;rate=50;boost=5;every=20;blen=4;seed=3"}) {
    auto a = workload::make_stream(spec, g);
    auto b = workload::make_stream(spec, g);
    for (int i = 0; i < 500; ++i) {
      const auto ta = a->next();
      const auto tb = b->next();
      ASSERT_TRUE(ta.has_value() && tb.has_value());
      EXPECT_EQ(*ta, *tb) << spec << " txn " << i;
    }
    EXPECT_EQ(a->emitted(), 500u);
  }
}

TEST(StreamGenerator, SkipMatchesDrawForDraw) {
  const graph::Graph g = graph::topology::make_ring(10);
  for (const char* spec :
       {"steady;rate=40;seed=5", "diurnal;rate=40;amp=0.3;period=50;seed=5",
        "flash;rate=40;boost=4;every=30;blen=5;seed=5"}) {
    auto a = workload::make_stream(spec, g);
    auto b = workload::make_stream(spec, g);
    for (int i = 0; i < 137; ++i) (void)a->next();
    b->skip(137);
    EXPECT_EQ(b->emitted(), 137u);
    for (int i = 0; i < 100; ++i) {
      EXPECT_EQ(*a->next(), *b->next()) << spec << " txn " << i;
    }
  }
}

TEST(StreamGenerator, EmitsValidNonDecreasingTransactions) {
  const graph::Graph g = graph::topology::make_scale_free(16, 3, 13);
  for (const char* spec :
       {"steady;rate=30;seed=2", "diurnal;rate=30;amp=0.8;period=40;seed=2",
        "flash;rate=30;boost=10;every=25;blen=5;seed=2"}) {
    auto s = workload::make_stream(spec, g);
    double prev = 0.0;
    for (int i = 0; i < 1000; ++i) {
      const auto tx = s->next();
      ASSERT_TRUE(tx.has_value());
      EXPECT_GE(tx->arrival, prev) << spec;
      prev = tx->arrival;
      EXPECT_LT(tx->src, g.node_count());
      EXPECT_LT(tx->dst, g.node_count());
      EXPECT_NE(tx->src, tx->dst);
      EXPECT_GT(tx->amount, 0);
    }
  }
}

TEST(StreamGenerator, DiurnalRateTracksThePhase) {
  const graph::Graph g = graph::topology::make_ring(8);
  // Period 100 with amp 0.9: the first half-period runs near 1.9x the
  // base rate, the second near 0.1x. Count arrivals in each.
  auto s = workload::make_stream("diurnal;rate=50;amp=0.9;period=100;seed=4",
                                 g);
  std::size_t peak = 0;
  std::size_t trough = 0;
  while (true) {
    const auto tx = s->next();
    ASSERT_TRUE(tx.has_value());
    if (tx->arrival >= 100.0) break;
    (tx->arrival < 50.0 ? peak : trough) += 1;
  }
  EXPECT_GT(peak, 2 * trough) << "peak " << peak << " trough " << trough;
}

TEST(StreamGenerator, FlashCrowdConcentratesArrivalsInBursts) {
  const graph::Graph g = graph::topology::make_ring(8);
  // boost=20 over blen=5 epochs spaced ~every=50: burst seconds should
  // be far denser than quiet seconds.
  auto s = workload::make_stream(
      "flash;rate=4;boost=20;every=50;blen=5;seed=6", g);
  std::vector<std::size_t> per_second(500, 0);
  while (true) {
    const auto tx = s->next();
    ASSERT_TRUE(tx.has_value());
    if (tx->arrival >= 500.0) break;
    per_second[static_cast<std::size_t>(tx->arrival)] += 1;
  }
  std::size_t max_sec = 0;
  std::size_t total = 0;
  for (const std::size_t c : per_second) {
    max_sec = std::max(max_sec, c);
    total += c;
  }
  const double mean_sec = static_cast<double>(total) / 500.0;
  EXPECT_GT(static_cast<double>(max_sec), 5.0 * mean_sec)
      << "max/sec " << max_sec << " mean/sec " << mean_sec;
}

TEST(StreamGenerator, TraceStreamReplaysTheTraceAndEnds) {
  const graph::Graph g = graph::topology::make_ring(6);
  const std::string path = testing::TempDir() + "stream_trace.csv";
  {
    std::ofstream out(path);
    out << "src,dst,amount,arrival\n";
    out << "0,3," << core::from_units(10) << ",0.5\n";
    out << "1,4," << core::from_units(20) << ",1.5\n";
    out << "2,5," << core::from_units(30) << ",2.5\n";
  }
  auto s = workload::make_stream("trace;path=" + path, g);
  const auto t0 = s->next();
  ASSERT_TRUE(t0.has_value());
  EXPECT_EQ(t0->src, 0u);
  EXPECT_EQ(t0->dst, 3u);
  EXPECT_EQ(t0->arrival, 0.5);
  (void)s->next();
  const auto t2 = s->next();
  ASSERT_TRUE(t2.has_value());
  EXPECT_EQ(t2->amount, core::from_units(30));
  EXPECT_FALSE(s->next().has_value());  // exhausted
  EXPECT_EQ(s->emitted(), 3u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Service driver: windows, retirement, snapshot/restore.
// ---------------------------------------------------------------------

ServiceConfig small_service(const std::string& workload,
                            const std::string& adversary = "") {
  ServiceConfig cfg;
  cfg.topology = "scalefree-24";
  cfg.capacity_units = 800.0;
  cfg.duration = 90.0;
  cfg.window = 15.0;
  cfg.seed = 21;
  cfg.workload = workload;
  cfg.adversary = adversary;
  return cfg;
}

const char* const kGeneratorSpecs[] = {
    "steady;rate=6;seed=3",
    "diurnal;rate=6;amp=0.7;period=45;seed=3",
    "flash;rate=4;boost=8;every=30;blen=6;seed=3",
};

TEST(Service, RejectsNonFiniteDurationAndWindow) {
  // An infinite duration used to emit windows forever.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), 0.0}) {
    for (double ServiceConfig::*field :
         {&ServiceConfig::duration, &ServiceConfig::window}) {
      ServiceConfig cfg = small_service(kGeneratorSpecs[0]);
      cfg.*field = bad;
      EXPECT_THROW(Service{cfg}, std::invalid_argument) << bad;
    }
  }
}

TEST(Service, WindowDeltasSumToFinalMetrics) {
  Service svc(small_service(kGeneratorSpecs[0]));
  const sim::Metrics& m = svc.finish();
  std::uint64_t attempted = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t partial = 0;
  std::uint64_t failed = 0;
  core::Amount delivered = 0;
  for (const WindowRecord& w : svc.windows()) {
    attempted += w.attempted;
    succeeded += w.succeeded;
    partial += w.partial;
    failed += w.failed;
    delivered += w.delivered;
  }
  EXPECT_EQ(attempted, m.attempted);
  EXPECT_EQ(succeeded, m.succeeded);
  EXPECT_EQ(partial, m.partial);
  EXPECT_EQ(failed, m.failed);
  EXPECT_EQ(delivered, m.delivered_volume);
  EXPECT_EQ(attempted, succeeded + partial + failed);
  EXPECT_EQ(svc.txns_streamed(), m.attempted);
}

TEST(Service, WindowSizeNeverChangesTheOutcome) {
  ServiceConfig a = small_service(kGeneratorSpecs[1]);
  ServiceConfig b = a;
  b.window = 45.0;  // 3x coarser export windows
  Service sa(a);
  Service sb(b);
  EXPECT_EQ(sa.finish(), sb.finish());
  EXPECT_EQ(sa.state_checksum(), sb.state_checksum());
  EXPECT_EQ(sa.windows().size(), 7u);  // 6 boundaries + closing window
  EXPECT_EQ(sb.windows().size(), 3u);
}

TEST(Service, RetirementNeverChangesTheOutcome) {
  ServiceConfig a = small_service(kGeneratorSpecs[0]);
  ServiceConfig b = a;
  b.retire = false;
  Service sa(a);
  Service sb(b);
  EXPECT_EQ(sa.finish(), sb.finish());
  EXPECT_EQ(sa.state_checksum(), sb.state_checksum());
  // Retirement actually freed records on the retiring run.
  EXPECT_LT(sa.live_payments(), sb.live_payments());
}

/// Straight-through reference vs snapshot-at-`split`/restore/continue.
void expect_split_identity(const ServiceConfig& cfg, double split) {
  Service straight(cfg);
  const sim::Metrics ref = straight.finish();
  const std::uint64_t ref_checksum = straight.state_checksum();

  Service first(cfg);
  first.run(split);
  const exp::Json snap = exp::Json::parse(first.snapshot().dump());
  std::unique_ptr<Service> second = Service::restore(snap);
  EXPECT_EQ(second->finish(), ref) << "split " << split;
  EXPECT_EQ(second->state_checksum(), ref_checksum) << "split " << split;
  ASSERT_EQ(second->windows().size(), straight.windows().size());
  for (std::size_t i = 0; i < straight.windows().size(); ++i) {
    EXPECT_EQ(second->windows()[i].checksum, straight.windows()[i].checksum)
        << "window " << i;
    EXPECT_EQ(second->windows()[i].attempted, straight.windows()[i].attempted)
        << "window " << i;
  }
}

TEST(ServiceSnapshot, SteadySplitsAreByteIdentical) {
  const ServiceConfig cfg = small_service(kGeneratorSpecs[0]);
  for (const double split : {15.0, 45.0, 80.0}) {
    expect_split_identity(cfg, split);
  }
}

TEST(ServiceSnapshot, DiurnalSplitsAreByteIdentical) {
  const ServiceConfig cfg = small_service(kGeneratorSpecs[1]);
  for (const double split : {22.5, 45.0, 89.0}) {
    expect_split_identity(cfg, split);
  }
}

TEST(ServiceSnapshot, FlashSplitsAreByteIdentical) {
  const ServiceConfig cfg = small_service(kGeneratorSpecs[2]);
  for (const double split : {15.0, 60.0}) {
    expect_split_identity(cfg, split);
  }
}

TEST(ServiceSnapshot, RestoreIgnoresLegacyShardsKey) {
  // Older spider-service-snapshot-v1 documents carry a "shards" engine
  // knob. Every shard count ran byte-identically to the serial engine,
  // so restore ignores the key and reproduces the uninterrupted run.
  const ServiceConfig cfg = small_service(kGeneratorSpecs[0]);
  Service straight(cfg);
  const sim::Metrics ref = straight.finish();

  Service first(cfg);
  first.run(45.0);
  exp::Json snap = exp::Json::parse(first.snapshot().dump());
  EXPECT_EQ(snap.find("shards"), nullptr);
  snap.set("shards", std::uint64_t{2});
  std::unique_ptr<Service> second = Service::restore(snap);
  EXPECT_EQ(second->finish(), ref);
  EXPECT_EQ(second->state_checksum(), straight.state_checksum());
}

TEST(ServiceSnapshot, SplitsUnderActiveFaultsAreByteIdentical) {
  const ServiceConfig cfg = small_service(
      kGeneratorSpecs[0],
      "churn=0.05;downtime=4;close=0.01;jam=0.05;jamhold=8;jamfrac=0.5;"
      "grief=0.03;griefhold=5;huboutage=0.02;hubdown=6;seed=17");
  for (const double split : {30.0, 60.0}) {
    expect_split_identity(cfg, split);
  }
}

TEST(ServiceSnapshot, MaxSeedRoundTrips) {
  // Seeds >= 2^63 serialize as negative int64 JSON numbers; restore must
  // read back the same seed and state checksum.
  ServiceConfig cfg = small_service(kGeneratorSpecs[0]);
  cfg.seed = std::numeric_limits<std::uint64_t>::max();
  expect_split_identity(cfg, 45.0);
  Service svc(cfg);
  svc.run(45.0);
  const exp::Json snap = exp::Json::parse(svc.snapshot().dump());
  EXPECT_EQ(snap.at("seed").as_uint(), cfg.seed);
  EXPECT_EQ(Service::restore(snap)->state_checksum(), svc.state_checksum());
}

TEST(ServiceSnapshot, RestoreRejectsTamperedSnapshots) {
  Service svc(small_service(kGeneratorSpecs[0]));
  svc.run(30.0);
  exp::Json snap = svc.snapshot();
  exp::Json bad_checksum = exp::Json::parse(snap.dump());
  bad_checksum.set("state_checksum", std::int64_t{12345});
  EXPECT_THROW((void)Service::restore(bad_checksum), std::runtime_error);
  exp::Json bad_format = exp::Json::parse(snap.dump());
  bad_format.set("format", "not-a-snapshot");
  EXPECT_THROW((void)Service::restore(bad_format), std::runtime_error);
  exp::Json bad_txns = exp::Json::parse(snap.dump());
  bad_txns.set("txns_streamed", std::uint64_t{999999});
  EXPECT_THROW((void)Service::restore(bad_txns), std::runtime_error);
}

TEST(Service, EmptyStreamRunsToCompletion) {
  const std::string path = testing::TempDir() + "empty_trace.csv";
  {
    std::ofstream out(path);
    out << "src,dst,amount,arrival\n";
  }
  ServiceConfig cfg = small_service("trace;path=" + path);
  Service svc(cfg);
  const sim::Metrics& m = svc.finish();
  EXPECT_EQ(m.attempted, 0u);
  EXPECT_EQ(svc.txns_streamed(), 0u);
  EXPECT_EQ(svc.windows().size(), 7u);  // boundaries still export
  for (const WindowRecord& w : svc.windows()) {
    EXPECT_EQ(w.attempted, 0u);
  }
  std::remove(path.c_str());
}

TEST(Service, ZeroDurationIsRejectedAndSubWindowRunsFinish) {
  // Zero sim time is not a run (the simulator needs end_time > 0)...
  ServiceConfig cfg = small_service(kGeneratorSpecs[0]);
  cfg.duration = 0.0;
  EXPECT_THROW((void)Service(cfg), std::invalid_argument);
  // ...but a duration shorter than one export window is: no boundary is
  // ever crossed and everything lands in the closing window.
  cfg.duration = 7.0;
  Service svc(cfg);
  const sim::Metrics& m = svc.finish();
  ASSERT_EQ(svc.windows().size(), 1u);
  EXPECT_EQ(svc.windows()[0].t0, 0.0);
  EXPECT_EQ(svc.windows()[0].t1, 7.0);
  EXPECT_EQ(svc.windows()[0].attempted, m.attempted);
  EXPECT_EQ(svc.now(), 7.0);
}

TEST(Service, RejectsBadConfiguration) {
  ServiceConfig cfg = small_service(kGeneratorSpecs[0]);
  cfg.scheme = "teleport";
  EXPECT_THROW((void)Service(cfg), std::invalid_argument);
  cfg = small_service(kGeneratorSpecs[0]);
  cfg.window = 0.0;
  EXPECT_THROW((void)Service(cfg), std::invalid_argument);
  cfg = small_service("steady;rate=0");
  EXPECT_THROW((void)Service(cfg), std::invalid_argument);
}

TEST(Service, WindowJsonCarriesTheRecordFields) {
  Service svc(small_service(kGeneratorSpecs[0]));
  svc.run(30.0);
  ASSERT_GE(svc.windows().size(), 1u);
  const exp::Json j = Service::window_to_json(svc.windows()[0]);
  for (const char* key :
       {"window", "t0", "t1", "attempted", "succeeded", "partial", "failed",
        "retired", "delivered", "events", "live", "p50", "p99",
        "events_per_sec", "checksum"}) {
    EXPECT_NE(j.find(key), nullptr) << key;
  }
  EXPECT_EQ(j.at("t1").as_double(), 15.0);
}

TEST(Service, SpiderCcSchemeRunsAndSnapshots) {
  ServiceConfig cfg = small_service(kGeneratorSpecs[0]);
  cfg.scheme = "spider-cc";
  expect_split_identity(cfg, 45.0);
}

// ---------------------------------------------------------------------
// Memory bounds: live payments track the arrival horizon, not the
// stream length (satellite of the full-materialization fix).
// ---------------------------------------------------------------------

TEST(ServiceSoak, PeakLivePaymentsAreBoundedByTheHorizonNotTheStream) {
  // Same saturating stream, 2x and 4x the duration: txns_streamed
  // scales linearly, peak live payments must not (they are bounded by
  // arrivals inside one deadline horizon). SPIDER_FULL=1 scales the
  // long leg to a ~1M-transaction soak.
  const char* full = std::getenv("SPIDER_FULL");
  const bool full_scale = full != nullptr && full[0] == '1';
  ServiceConfig base;
  base.topology = "scalefree-24";
  base.capacity_units = 400.0;
  base.window = 30.0;
  base.seed = 5;
  base.workload = "steady;rate=500;seed=12";
  base.deadline_offset = 10.0;

  ServiceConfig short_cfg = base;
  short_cfg.duration = 60.0;
  Service short_svc(short_cfg);
  (void)short_svc.finish();

  ServiceConfig long_cfg = base;
  long_cfg.duration = full_scale ? 2000.0 : 240.0;  // full: ~1M txns
  Service long_svc(long_cfg);
  (void)long_svc.finish();

  EXPECT_GT(long_svc.txns_streamed(), 3 * short_svc.txns_streamed());
  // Peak live is a property of rate x deadline horizon; allow slack for
  // stochastic variation but forbid anything close to linear growth.
  EXPECT_LT(long_svc.peak_live_payments(),
            2 * short_svc.peak_live_payments() + 1000);
  // Retirement keeps the transport records bounded too.
  EXPECT_LT(long_svc.live_payments(), long_svc.txns_streamed() / 2);
}

// ---------------------------------------------------------------------
// PacketSimulator service API guards + transport retirement.
// ---------------------------------------------------------------------

std::optional<core::PaymentRequest> no_arrivals(void*) {
  return std::nullopt;
}

std::optional<core::PaymentRequest> nan_arrival(void*) {
  core::PaymentRequest req;
  req.src = 0;
  req.dst = 2;
  req.amount = core::from_units(5);
  req.arrival = std::numeric_limits<double>::quiet_NaN();
  return req;
}

TEST(PacketSimService, ApiGuards) {
  const graph::Graph g = graph::topology::make_ring(6);
  const std::vector<core::Amount> caps(g.edge_count(), core::from_units(50));
  {
    sim::PacketSimulator sim(g, caps);
    EXPECT_THROW(sim.run_service_until(1.0), std::logic_error);
    EXPECT_THROW((void)sim.retire_resolved(), std::logic_error);
    EXPECT_THROW((void)sim.finish_service(), std::logic_error);
    EXPECT_THROW(sim.start_service(nullptr, nullptr), std::invalid_argument);
  }
  {
    sim::PacketSimulator sim(g, caps);
    core::PaymentRequest req;
    req.src = 0;
    req.dst = 2;
    req.amount = core::from_units(5);
    req.arrival = 1.0;
    (void)sim.submit(req);
    // submit() and service mode are mutually exclusive.
    EXPECT_THROW(sim.start_service(&no_arrivals, nullptr), std::logic_error);
  }
  {
    sim::PacketSimulator sim(g, caps);
    sim.start_service(&no_arrivals, nullptr);
    EXPECT_THROW(sim.start_service(&no_arrivals, nullptr), std::logic_error);
    sim.run_service_until(5.0);
    EXPECT_EQ(sim.now(), 5.0);
    const sim::Metrics& m = sim.finish_service();
    EXPECT_EQ(m.attempted, 0u);
    EXPECT_EQ(&sim.finish_service(), &m);  // idempotent
  }
  {
    // A streamed NaN arrival is rejected at admission (the first pull).
    sim::PacketSimulator sim(g, caps);
    EXPECT_THROW(sim.start_service(&nan_arrival, nullptr),
                 std::invalid_argument);
  }
}

TEST(TransportRetirement, RecyclesSlotsAndForgetsIds) {
  core::Transport tp(0, 42);
  core::PaymentRequest req;
  req.src = 0;
  req.dst = 1;
  req.amount = core::from_units(10);
  req.deadline = 100.0;
  const auto& units = tp.begin_payment(0, req, core::from_units(10));
  ASSERT_EQ(units.size(), 1u);
  EXPECT_EQ(tp.live_payments(), 1u);
  EXPECT_FALSE(tp.resolved(0));
  std::vector<core::KeyRelease> releases;
  tp.confirm_unit(core::TxUnitId{0, 0}, 1.0, /*marked=*/false, releases);
  EXPECT_TRUE(tp.resolved(0));
  tp.retire_payment(0);
  EXPECT_EQ(tp.live_payments(), 0u);
  EXPECT_THROW((void)tp.delivered(0), std::invalid_argument);
  EXPECT_THROW(tp.retire_payment(0), std::invalid_argument);
  // The freed slot is recycled by the next payment.
  const auto& units2 = tp.begin_payment(7, req, core::from_units(5));
  EXPECT_EQ(units2.size(), 2u);
  EXPECT_EQ(tp.live_payments(), 1u);
  // Abandonment resolves too, and double-abandon stays single-counted.
  tp.abandon_unit(core::TxUnitId{7, 0});
  tp.abandon_unit(core::TxUnitId{7, 0});
  EXPECT_FALSE(tp.resolved(7));
  tp.abandon_unit(core::TxUnitId{7, 1});
  EXPECT_TRUE(tp.resolved(7));
  EXPECT_EQ(tp.delivered(7), 0);
}

}  // namespace
}  // namespace spider
