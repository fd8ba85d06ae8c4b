#include "service/service.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "exp/sweep.hpp"
#include "faults/fault_profile.hpp"
#include "schemes/schemes.hpp"

namespace spider::service {

namespace {

sim::PacketSimConfig make_sim_config(const ServiceConfig& cfg,
                                     sim::InvariantAuditor* auditor,
                                     faults::FaultInjector* injector) {
  sim::PacketSimConfig sc = schemes::packet_scheme_config(cfg.scheme);
  sc.end_time = cfg.duration;
  sc.mtu = core::from_units(cfg.mtu_units);
  sc.seed = cfg.seed;
  sc.auditor = auditor;
  sc.faults = injector;
  return sc;
}

}  // namespace

Service::Service(ServiceConfig cfg)
    : cfg_(std::move(cfg)), graph_(exp::make_named_topology(cfg_.topology)) {
  if (!core::positive_finite(cfg_.duration) ||
      !core::positive_finite(cfg_.window)) {
    throw std::invalid_argument("Service: bad duration/window");
  }
  if (cfg_.capacity_units <= 0 || cfg_.mtu_units <= 0) {
    throw std::invalid_argument("Service: bad capacity/mtu");
  }
  next_boundary_ = cfg_.window;
  stream_ = workload::make_stream(cfg_.workload, graph_);
  if (!cfg_.adversary.empty()) {
    faults::FaultProfile profile = faults::parse_profile(cfg_.adversary);
    if (profile.horizon <= 0) profile.horizon = cfg_.duration;
    adversary_canonical_ = faults::to_string(profile);
    injector_ = std::make_unique<faults::FaultInjector>(
        faults::generate_plan(profile, graph_));
  }
  if (cfg_.audit) auditor_ = std::make_unique<sim::InvariantAuditor>();
  sim_ = std::make_unique<sim::PacketSimulator>(
      graph_,
      std::vector<core::Amount>(graph_.edge_count(),
                                core::from_units(cfg_.capacity_units)),
      make_sim_config(cfg_, auditor_.get(), injector_.get()));
  prev_wall_ = std::chrono::steady_clock::now();
  sim_->start_service(&Service::pull_arrival, this);
}

std::optional<core::PaymentRequest> Service::pull_arrival(void* ctx) {
  auto* self = static_cast<Service*>(ctx);
  std::optional<core::PaymentRequest> req = self->stream_->next();
  if (req.has_value() && self->cfg_.deadline_offset > 0) {
    req->deadline = req->arrival + self->cfg_.deadline_offset;
  }
  return req;
}

void Service::emit_window(double t0, double t1) {
  WindowRecord w;
  w.index = windows_emitted_;
  w.t0 = t0;
  w.t1 = t1;
  // Retire first so this window's record owns the classifications it
  // triggered.
  w.retired = cfg_.retire ? sim_->retire_resolved() : 0;
  const sim::Metrics& m = sim_->metrics();
  w.attempted = m.attempted - prev_.attempted;
  w.succeeded = m.succeeded - prev_.succeeded;
  w.partial = m.partial - prev_.partial;
  w.failed = m.failed - prev_.failed;
  w.delivered = m.delivered_volume - prev_.delivered_volume;
  w.events = sim_->events_processed() - prev_events_;
  w.live = sim_->live_payments();
  w.p50 = m.latency_hist.quantile_since(prev_hist_, 0.5);
  w.p99 = m.latency_hist.quantile_since(prev_hist_, 0.99);
  const auto wall = std::chrono::steady_clock::now();
  const double secs =
      std::chrono::duration<double>(wall - prev_wall_).count();
  w.events_per_sec = secs > 0 ? static_cast<double>(w.events) / secs : 0.0;
  w.checksum = sim_->state_checksum();
  prev_ = m;
  prev_hist_ = m.latency_hist;
  prev_events_ = sim_->events_processed();
  prev_wall_ = wall;
  ++windows_emitted_;
  windows_.push_back(w);
  if (cfg_.window_sink != nullptr) {
    *cfg_.window_sink << window_to_json(w).dump() << '\n';
  }
}

void Service::run(double until) {
  if (finished_) throw std::logic_error("Service: run after finish");
  const double stop = std::min(until, cfg_.duration);
  while (next_boundary_ <= stop) {
    sim_->run_service_until(next_boundary_);
    emit_window(emitted_to_, next_boundary_);
    emitted_to_ = next_boundary_;
    next_boundary_ += cfg_.window;
  }
  sim_->run_service_until(stop);
}

const sim::Metrics& Service::finish() {
  if (finished_) return sim_->metrics();
  run(cfg_.duration);
  const sim::Metrics& m = sim_->finish_service();
  // The remainder classified at end_time lands in one closing window
  // (possibly empty), so window deltas always sum to the final totals.
  emit_window(emitted_to_, cfg_.duration);
  emitted_to_ = cfg_.duration;
  finished_ = true;
  return m;
}

exp::Json Service::snapshot() const {
  if (finished_) {
    throw std::logic_error("Service: snapshot after finish");
  }
  exp::Json j = exp::Json::object();
  j.set("format", "spider-service-snapshot-v1");
  j.set("topology", cfg_.topology);
  j.set("capacity_units", cfg_.capacity_units);
  j.set("scheme", cfg_.scheme);
  j.set("workload", stream_->spec());
  j.set("adversary", adversary_canonical_);
  j.set("duration", cfg_.duration);
  j.set("window", cfg_.window);
  j.set("deadline_offset", cfg_.deadline_offset);
  j.set("mtu_units", cfg_.mtu_units);
  j.set("seed", cfg_.seed);
  j.set("audit", cfg_.audit);
  j.set("retire", cfg_.retire);
  j.set("sim_time", sim_->now());
  j.set("txns_streamed", sim_->txns_streamed());
  j.set("windows_emitted", windows_emitted_);
  j.set("state_checksum", sim_->state_checksum());
  j.set("metrics", exp::report::metrics_to_json(sim_->metrics()));
  return j;
}

std::unique_ptr<Service> Service::restore(const exp::Json& snap,
                                          std::ostream* sink) {
  const exp::Json* fmt = snap.find("format");
  if (fmt == nullptr || fmt->as_string() != "spider-service-snapshot-v1") {
    throw std::runtime_error("Service::restore: not a service snapshot");
  }
  ServiceConfig cfg;
  cfg.topology = snap.at("topology").as_string();
  cfg.capacity_units = snap.at("capacity_units").as_double();
  cfg.scheme = snap.at("scheme").as_string();
  cfg.workload = snap.at("workload").as_string();
  cfg.adversary = snap.at("adversary").as_string();
  cfg.duration = snap.at("duration").as_double();
  cfg.window = snap.at("window").as_double();
  cfg.deadline_offset = snap.at("deadline_offset").as_double();
  cfg.mtu_units = snap.at("mtu_units").as_double();
  cfg.seed = snap.at("seed").as_uint();
  cfg.audit = snap.at("audit").as_bool();
  cfg.retire = snap.at("retire").as_bool();
  cfg.window_sink = nullptr;  // replay is silent
  auto svc = std::make_unique<Service>(std::move(cfg));
  svc->run(snap.at("sim_time").as_double());
  if (svc->txns_streamed() != snap.at("txns_streamed").as_uint()) {
    throw std::runtime_error("Service::restore: stream position diverged");
  }
  if (svc->windows_emitted_ != snap.at("windows_emitted").as_uint()) {
    throw std::runtime_error("Service::restore: window count diverged");
  }
  if (svc->state_checksum() != snap.at("state_checksum").as_uint()) {
    throw std::runtime_error("Service::restore: state checksum mismatch");
  }
  svc->cfg_.window_sink = sink;
  return svc;
}

exp::Json Service::window_to_json(const WindowRecord& w) {
  exp::Json j = exp::Json::object();
  j.set("window", w.index);
  j.set("t0", w.t0);
  j.set("t1", w.t1);
  j.set("attempted", w.attempted);
  j.set("succeeded", w.succeeded);
  j.set("partial", w.partial);
  j.set("failed", w.failed);
  j.set("retired", w.retired);
  j.set("delivered", static_cast<std::int64_t>(w.delivered));
  j.set("events", w.events);
  j.set("live", w.live);
  j.set("p50", w.p50);
  j.set("p99", w.p99);
  j.set("events_per_sec", w.events_per_sec);
  j.set("checksum", w.checksum);
  return j;
}

}  // namespace spider::service
