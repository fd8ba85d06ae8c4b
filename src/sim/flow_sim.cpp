#include "sim/flow_sim.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "faults/injector.hpp"
#include "sim/audit.hpp"
#include "sim/sim_steps.hpp"

namespace spider::sim {

std::string Metrics::summary() const {
  std::ostringstream os;
  os << "attempted=" << attempted << " succeeded=" << succeeded
     << " partial=" << partial << " failed=" << failed
     << " success_ratio=" << success_ratio()
     << " success_volume=" << success_volume()
     << " latency_p50=" << latency_p50() << " latency_p99=" << latency_p99();
  return os.str();
}

FlowSimulator::FlowSimulator(const graph::Graph& g,
                             std::vector<core::Amount> edge_capacity,
                             RoutingScheme& scheme, FlowSimConfig config)
    : graph_(g),
      capacity_(std::move(edge_capacity)),
      net_(g, capacity_),
      scheme_(scheme),
      cfg_(config),
      faults_(config.faults),
      retry_queue_(config.retry_policy) {
  if (cfg_.delta <= 0 || cfg_.poll_interval <= 0 || cfg_.end_time <= 0) {
    throw std::invalid_argument("FlowSimulator: non-positive timing config");
  }
}

void FlowSimulator::add_payment(const PaymentRequest& req) {
  if (ran_) throw std::logic_error("FlowSimulator: add_payment after run");
  check_request(req, graph_.node_count());
  // Positional init would silently convert a bool into the Amount
  // `fees_paid` slot if the member order ever changed.
  payments_.push_back(PaymentState{.req = req});
}

void FlowSimulator::record_series(core::Amount amount) {
  if (!cfg_.collect_series) return;
  const auto bucket =
      static_cast<std::size_t>(events_.now() / cfg_.series_bucket);
  if (metrics_.delivered_series.size() <= bucket) {
    metrics_.delivered_series.resize(bucket + 1, 0.0);
  }
  metrics_.delivered_series[bucket] += core::to_units(amount);
}

void FlowSimulator::enqueue_retry(core::PaymentId pid) {
  PaymentState& st = payments_[pid];
  if (st.closed || st.enqueued) return;
  core::QueuedUnit qu;
  qu.unit = core::TxUnitId{pid, 0};
  qu.amount = st.req.amount;
  qu.remaining_payment = st.req.amount - st.delivered;
  qu.enqueued = events_.now();
  qu.deadline = st.req.deadline;
  retry_queue_.push(qu);
  st.enqueued = true;
}

void FlowSimulator::attempt(core::PaymentId pid) {
  PaymentState& st = payments_[pid];
  if (st.closed) return;
  if (events_.now() > st.req.deadline) {
    st.closed = true;
    return;
  }
  if (faults_ != nullptr &&
      (faults_->node_down(st.req.src) || faults_->node_down(st.req.dst))) {
    // An endpoint is down, so no routing attempt is possible right now.
    // The attempt is not consumed (even for atomic schemes -- their one
    // shot happens once the endpoints are live); the payment waits out
    // an exponential backoff in the retry queue instead of hammering a
    // dead host every poll. The deadline check above still bounds this.
    fault_backoff(st);
    enqueue_retry(pid);
    return;
  }
  const core::Amount remaining = st.req.amount - st.delivered - st.inflight;
  if (remaining <= 0) return;
  ++metrics_.total_attempt_rounds;
  // During a probe-staleness spike schemes route against the frozen
  // snapshot; locking below still validates against the live network.
  const core::ChannelNetwork* view = &net_;
  if (stale_net_ != nullptr) {
    view = stale_net_.get();
    ++metrics_.fault_stale_decisions;
  }
  std::vector<RouteChoice> choices =
      scheme_.route(st.req, remaining, *view, events_.now());
  if (scheme_.atomic()) {
    attempt_atomic(st, pid, std::move(choices));
  } else {
    attempt_non_atomic(st, pid, std::move(choices));
  }
}

void FlowSimulator::attempt_atomic(PaymentState& st, core::PaymentId pid,
                                   std::vector<RouteChoice> choices) {
  // All-or-nothing: lock every choice; any shortfall rolls everything
  // back and the payment fails permanently.
  if (faults_ != nullptr) {
    // Fault-blocked paths are not live choices: drop them up front so
    // the total/needed comparison below sees only usable routes.
    std::erase_if(choices, [&](const RouteChoice& c) {
      if (!faults_->path_blocked(c.path, graph_)) return false;
      ++metrics_.fault_reroutes;
      return true;
    });
  }
  st.closed = true;  // single attempt either way
  core::Amount total = 0;
  for (const RouteChoice& c : choices) total += c.amount;
  const core::Amount needed = st.req.amount - st.delivered - st.inflight;
  if (choices.empty() || total != needed) return;  // scheme gave up
  const core::Preimage key = next_key_++;
  const core::LockHash lockhash = core::hash_preimage(key);
  std::vector<core::RouteLock> locks;
  locks.reserve(choices.size());
  for (const RouteChoice& c : choices) {
    if (c.amount <= 0) continue;
    auto rl = net_.lock_route(c.path, c.amount, lockhash);
    if (!rl) {
      for (const core::RouteLock& held : locks) net_.fail_route(held);
      return;
    }
    locks.push_back(std::move(*rl));
  }
  // Success: all locked; schedule the in-flight completions.
  for (core::RouteLock& rl : locks) {
    send(pid, rl.amount, std::move(rl), key);
  }
}

void FlowSimulator::attempt_non_atomic(PaymentState& st, core::PaymentId pid,
                                       std::vector<RouteChoice> choices) {
  const core::Preimage key = next_key_++;
  const core::LockHash lockhash = core::hash_preimage(key);
  const bool fee_free = cfg_.fee_policy.free();
  bool fault_blocked = false;
  for (const RouteChoice& c : choices) {
    if (faults_ != nullptr && faults_->path_blocked(c.path, graph_)) {
      ++metrics_.fault_reroutes;
      fault_blocked = true;
      continue;
    }
    const core::Amount needed = st.req.amount - st.delivered - st.inflight;
    if (needed <= 0) break;
    core::Amount amt = std::min({c.amount, needed, net_.path_available(c.path)});
    if (amt <= 0) continue;
    if (fee_free) {
      auto rl = net_.lock_route(c.path, amt, lockhash);
      if (!rl) continue;  // raced with another lock; retry next poll
      send(pid, amt, std::move(*rl), key);
      continue;
    }
    // Fee-aware send: upstream hops carry amount + downstream fees, the
    // sender skips paths that would blow the payment's fee budget.
    const auto amounts =
        core::hop_amounts(cfg_.fee_policy, amt, c.path.arcs.size());
    const core::Amount fee = amounts.front() - amt;
    if (st.fees_paid + fee > st.req.max_fee) continue;
    auto rl = net_.lock_route_with_fees(c.path, amounts, lockhash);
    if (!rl) continue;  // some hop can't also carry the fees; retry later
    st.fees_paid += fee;
    metrics_.fees_paid += fee;
    send(pid, amt, std::move(*rl), key);
  }
  if (st.req.amount - st.delivered - st.inflight > 0) {
    if (fault_blocked) fault_backoff(st);
    enqueue_retry(pid);
  }
}

void FlowSimulator::send(core::PaymentId pid, core::Amount amt,
                         core::RouteLock&& lock, core::Preimage key) {
  PaymentState& st = payments_[pid];
  st.inflight += amt;
  held_amount_ += lock.total_held;
  ++metrics_.units_sent;
  st.backoff_exp = 0;  // progress: the fault backoff starts over
  st.not_before = 0;
  TimePoint delay = cfg_.delta;
  if (faults_ != nullptr && faults_->withholding(st.req.dst, events_.now())) {
    // A withholding receiver sits on the HTLCs and settles only when
    // its spell expires (plus the usual in-flight delay).
    delay = (faults_->withhold_until(st.req.dst) - events_.now()) + cfg_.delta;
    ++metrics_.fault_withheld_acks;
  }
  if (faults_ != nullptr && faults_->griefing(st.req.dst, events_.now())) {
    // A griefing receiver max-holds every settlement to its spell end.
    const TimePoint griefed =
        (faults_->grief_until(st.req.dst) - events_.now()) + cfg_.delta;
    if (griefed > delay) delay = griefed;
    ++metrics_.fault_griefed_acks;
  }
  const core::SlabHandle h = live_sends_.acquire();
  LiveSend& ls = *live_sends_.get(h);
  ls.lock = std::move(lock);
  ls.key = key;
  ls.pid = pid;
  ls.cancelled = false;
  events_.schedule_typed_in(delay, EventKind::kSettle, h.packed());
}

void FlowSimulator::complete(core::SlabHandle h) {
  LiveSend* ls = live_sends_.get(h);
  if (ls == nullptr) return;  // defensive: only this event releases
  PaymentState& st = payments_[ls->pid];
  if (ls->cancelled) {
    // A mid-run channel closure severed this route; its locks already
    // failed and refunded at close time. Surviving non-atomic
    // remainders re-enter the retry loop.
    st.inflight -= ls->lock.amount;
    if (!scheme_.atomic()) enqueue_retry(ls->pid);
    live_sends_.release(h);
    return;
  }
  // The simulator is both every sender and every receiver, so it settles
  // each route with the preimage it generated at lock time.
  net_.settle_route(ls->lock, ls->key);
  held_amount_ -= ls->lock.total_held;
  st.inflight -= ls->lock.amount;
  st.delivered += ls->lock.amount;
  metrics_.delivered_volume += ls->lock.amount;
  record_series(ls->lock.amount);
  if (st.delivered == st.req.amount) {
    metrics_.sum_completion_latency += events_.now() - st.req.arrival;
    metrics_.latency_hist.add(events_.now() - st.req.arrival);
  }
  live_sends_.release(h);
}

void FlowSimulator::sample_series() {
  metrics_.queue_depth_series.push_back(
      static_cast<double>(retry_queue_.size()));
  for (graph::EdgeId e = 0; e < graph_.edge_count(); ++e) {
    metrics_.channel_imbalance_series[e].push_back(
        core::to_units(net_.channel(e).imbalance()));
  }
  if (events_.now() + cfg_.series_bucket <= cfg_.end_time) {
    events_.schedule_typed_in(cfg_.series_bucket, EventKind::kSeriesSample);
  }
}

void FlowSimulator::rebalance_sweep() {
  // A router tops up its side of a channel on-chain when its spendable
  // balance drops below `threshold * half_escrow`. The deposit restores
  // the original 50/50 split but only becomes spendable after the
  // blockchain confirmation delay.
  for (graph::EdgeId e = 0; e < graph_.edge_count(); ++e) {
    if (faults_ != nullptr && faults_->edge_closed(e)) continue;
    const core::Amount half = capacity_[e] / 2;
    const core::Amount floor_amt = static_cast<core::Amount>(
        static_cast<double>(half) * cfg_.rebalance_threshold);
    for (const core::Side side : {core::Side::kA, core::Side::kB}) {
      const core::Amount bal = net_.channel(e).balance(side);
      if (bal >= floor_amt) continue;
      const core::Amount top_up = half - bal;
      if (top_up <= 0) continue;
      ++metrics_.rebalance_events;
      metrics_.rebalanced_volume += top_up;
      events_.schedule_typed_in(
          cfg_.rebalance_delay, EventKind::kRebalanceDeposit,
          (std::uint64_t{e} << 1) | static_cast<std::uint64_t>(side),
          static_cast<std::uint64_t>(top_up));
    }
  }
  if (events_.now() + cfg_.rebalance_interval <= cfg_.end_time) {
    events_.schedule_typed_in(cfg_.rebalance_interval,
                              EventKind::kRebalanceSweep);
  }
}

void FlowSimulator::deposit(graph::EdgeId e, core::Side side,
                            core::Amount amount) {
  net_.channel(e).deposit(side, amount);
  if (cfg_.auditor != nullptr) cfg_.auditor->note_external_deposit(amount);
}

void FlowSimulator::poll() {
  std::vector<core::QueuedUnit> batch;
  const std::size_t budget =
      cfg_.max_retries_per_poll == 0 ? retry_queue_.size()
                                     : cfg_.max_retries_per_poll;
  batch.reserve(std::min(budget, retry_queue_.size()));
  // Pop in policy order; re-add incomplete payments afterwards.
  while (batch.size() < budget) {
    auto qu = retry_queue_.pop();
    if (!qu) break;
    payments_[qu->unit.payment].enqueued = false;
    batch.push_back(*qu);
  }
  for (const core::QueuedUnit& qu : batch) {
    const core::PaymentId pid = qu.unit.payment;
    if (faults_ != nullptr && events_.now() < payments_[pid].not_before) {
      // Fault backoff window still open: skip this poll, stay queued.
      ++metrics_.fault_backoff_retries;
      enqueue_retry(pid);
      continue;
    }
    attempt(pid);
    PaymentState& st = payments_[pid];
    if (!st.closed && st.req.amount - st.delivered > 0) {
      enqueue_retry(pid);
    }
  }
  if (events_.now() + cfg_.poll_interval <= cfg_.end_time) {
    events_.schedule_typed_in(cfg_.poll_interval, EventKind::kPoll);
  }
}

void FlowSimulator::dispatch(void* ctx, EventKind kind, std::uint64_t a,
                             std::uint64_t b) {
  auto* self = static_cast<FlowSimulator*>(ctx);
  switch (kind) {
    case EventKind::kArrival:
      self->attempt(static_cast<core::PaymentId>(a));
      break;
    case EventKind::kSettle:
      self->complete(core::SlabHandle::unpack(a));
      break;
    case EventKind::kPoll:
      self->poll();
      break;
    case EventKind::kSeriesSample:
      self->sample_series();
      break;
    case EventKind::kRebalanceSweep:
      self->rebalance_sweep();
      break;
    case EventKind::kRebalanceDeposit:
      self->deposit(static_cast<graph::EdgeId>(a >> 1),
                    static_cast<core::Side>(a & 1),
                    static_cast<core::Amount>(b));
      break;
    case EventKind::kFaultStart:
      self->apply_fault(static_cast<std::size_t>(a));
      break;
    case EventKind::kFaultEnd:
      self->end_fault(a);
      break;
    default:
      throw std::logic_error("FlowSimulator: unexpected typed event kind");
  }
}

void FlowSimulator::apply_fault(std::size_t index) {
  const faults::FaultInjector::Applied ap =
      faults_->apply(index, events_.now());
  ++metrics_.fault_events_applied;
  if (ap.needs_end_event) {
    events_.schedule_typed(ap.until, EventKind::kFaultEnd,
                           faults::FaultInjector::pack_end(ap.kind, ap.target));
  }
  switch (ap.kind) {
    case faults::FaultKind::kNodeDown:
      // Query-side gating: attempt() refuses down endpoints and
      // path_blocked() hides routes through the node. In-flight routes
      // keep their locks -- the HTLCs were accepted before the crash
      // and resolve normally (chain/lifecycle.hpp).
      ++metrics_.fault_node_downs;
      break;
    case faults::FaultKind::kChannelClose:
      ++metrics_.fault_channel_closures;
      if (ap.became_active) close_channel(static_cast<graph::EdgeId>(ap.target));
      break;
    case faults::FaultKind::kWithhold:
      ++metrics_.fault_withhold_spells;
      break;
    case faults::FaultKind::kProbeStale:
      ++metrics_.fault_stale_spells;
      if (ap.became_active) stale_net_ = stale_snapshot(net_);
      break;
    case faults::FaultKind::kJam:
      // Capacity jamming is an HTLC-slot attack; the fluid model has no
      // per-unit locks to jam, so the spell is counted but has no
      // capacity effect here (the packet simulator models it fully).
      ++metrics_.fault_jam_spells;
      break;
    case faults::FaultKind::kGrief:
      ++metrics_.fault_grief_spells;
      break;
  }
}

void FlowSimulator::end_fault(std::uint64_t word) {
  const faults::FaultKind kind = faults::FaultInjector::unpack_end_kind(word);
  const std::uint32_t target = faults::FaultInjector::unpack_end_target(word);
  if (!faults_->expire(kind, target)) return;  // an overlapping window remains
  if (kind == faults::FaultKind::kProbeStale) stale_net_.reset();
}

void FlowSimulator::close_channel(graph::EdgeId e) {
  live_sends_.for_each([&](core::SlabHandle, LiveSend& ls) {
    if (ls.cancelled) return;
    for (const graph::ArcId a : ls.lock.path.arcs) {
      if (graph::edge_of(a) != e) continue;
      net_.fail_route(ls.lock);
      held_amount_ -= ls.lock.total_held;
      ls.cancelled = true;
      ++metrics_.fault_units_failed;
      break;
    }
  });
}

void FlowSimulator::fault_backoff(PaymentState& st) {
  // Exponential backoff on fault-blocked attempts: the payment sits out
  // 2^k poll intervals (capped at 2^6) before the retry queue considers
  // it again, so a down endpoint is not hammered every poll.
  const std::uint32_t exp = std::min<std::uint32_t>(st.backoff_exp, 6);
  st.not_before =
      events_.now() + cfg_.poll_interval * static_cast<double>(1U << exp);
  if (st.backoff_exp < 16) ++st.backoff_exp;
}

void FlowSimulator::arm_auditor() {
  InvariantAuditor& a = *cfg_.auditor;
  attach_auditor(a, net_, held_amount_, events_);
  a.add_check("retry-queue", [this]() -> std::optional<std::string> {
    std::size_t enqueued = 0;
    for (const PaymentState& st : payments_) {
      if (st.enqueued) ++enqueued;
    }
    if (enqueued == retry_queue_.size()) return std::nullopt;
    std::ostringstream os;
    os << enqueued << " payments flagged enqueued, retry queue holds "
       << retry_queue_.size();
    return os.str();
  });
}

Metrics FlowSimulator::run(const fluid::PaymentGraph& demand_estimate) {
  if (ran_) throw std::logic_error("FlowSimulator: run called twice");
  ran_ = true;
  if (cfg_.auditor != nullptr) arm_auditor();
  events_.set_dispatcher(&FlowSimulator::dispatch, this);
  if (faults_ != nullptr) {
    schedule_fault_plan(*faults_, graph_, cfg_.end_time, events_);
  }
  scheme_.prepare(graph_, capacity_, demand_estimate, cfg_.delta);
  metrics_.series_bucket = cfg_.series_bucket;

  for (core::PaymentId pid = 0; pid < payments_.size(); ++pid) {
    const PaymentState& st = payments_[pid];
    if (st.req.arrival > cfg_.end_time) continue;
    ++metrics_.attempted;
    metrics_.attempted_volume += st.req.amount;
    events_.schedule_typed(st.req.arrival, EventKind::kArrival, pid);
  }
  events_.schedule_typed(cfg_.poll_interval, EventKind::kPoll);
  if (cfg_.collect_series) {
    metrics_.channel_imbalance_series.assign(graph_.edge_count(), {});
    events_.schedule_typed(cfg_.series_bucket, EventKind::kSeriesSample);
  }
  if (cfg_.enable_rebalancing) {
    events_.schedule_typed(cfg_.rebalance_interval, EventKind::kRebalanceSweep);
  }
  events_.run_until(cfg_.end_time);
  if (cfg_.auditor != nullptr) {
    cfg_.auditor->finish(events_.now(), events_.processed());
  }

  for (const PaymentState& st : payments_) {
    if (st.req.arrival > cfg_.end_time) continue;
    record_outcome(metrics_, st.req.amount, st.delivered);
  }
  return metrics_;
}

}  // namespace spider::sim
