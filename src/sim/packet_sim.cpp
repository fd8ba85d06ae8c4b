#include "sim/packet_sim.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "faults/injector.hpp"
#include "sim/audit.hpp"
#include "sim/sim_steps.hpp"

namespace spider::sim {

PacketSimulator::PacketSimulator(const graph::Graph& g,
                                 std::vector<core::Amount> edge_capacity,
                                 PacketSimConfig config)
    : graph_(g),
      capacity_(std::move(edge_capacity)),
      net_(g, capacity_),
      cfg_(config),
      faults_(config.faults) {
  if (cfg_.mtu <= 0 || !core::positive_finite(cfg_.hop_delay) ||
      !core::positive_finite(cfg_.end_time)) {
    throw std::invalid_argument("PacketSimulator: bad config");
  }
  if (cfg_.cc_mode == CongestionControlMode::kSpiderCc &&
      (cfg_.cc_alpha <= 0 || cfg_.cc_beta <= 0 || cfg_.cc_beta >= 1 ||
       cfg_.cc_min_window <= 0 || cfg_.cc_initial_window < cfg_.cc_min_window ||
       cfg_.cc_max_window < cfg_.cc_initial_window)) {
    throw std::invalid_argument("PacketSimulator: bad spider-cc config");
  }
  transports_.resize(g.node_count());
  routers_.reserve(g.node_count());
  arc_local_.assign(g.arc_count(), 0);
  for (core::NodeId v = 0; v < g.node_count(); ++v) {
    routers_.emplace_back(v, cfg_.router_policy);
    const std::span<const graph::ArcId> out = g.out_arcs(v);
    routers_.back().bind(out);
    for (std::size_t i = 0; i < out.size(); ++i) {
      arc_local_[out[i]] = static_cast<std::uint32_t>(i);
    }
  }
  if (cfg_.cc_mode == CongestionControlMode::kSpiderCc) {
    core::MarkingConfig mc;
    mc.enabled = true;
    mc.threshold = cfg_.cc_mark_threshold;
    mc.unmark_fraction = cfg_.cc_mark_unmark_fraction;
    mc.ewma_gain = cfg_.cc_mark_ewma_gain;
    for (core::NodeId v = 0; v < g.node_count(); ++v) {
      routers_[v].configure_marking(mc);
    }
  }
  pair_rows_.resize(g.node_count());
  events_.set_dispatcher(&PacketSimulator::dispatch, this);
}

void PacketSimulator::dispatch(void* ctx, EventKind kind, std::uint64_t a,
                               std::uint64_t b) {
  (void)b;
  auto* self = static_cast<PacketSimulator*>(ctx);
  switch (kind) {
    case EventKind::kArrival:
      // Pull-driven chaining: fetch the next transaction before
      // admitting this one. The pull point is a pure function of the
      // event sequence, so run_service_until() chunk boundaries cannot
      // perturb sequence assignment.
      self->pull_next_arrival();
      self->arrive(static_cast<core::PaymentId>(a));
      break;
    case EventKind::kHopAdvance:
      self->reach_next_hop(core::SlabHandle::unpack(a));
      break;
    case EventKind::kAck:
      self->ack_unit(core::SlabHandle::unpack(a));
      break;
    case EventKind::kExpirySweep:
      self->sweep_expired();
      break;
    case EventKind::kSeriesSample:
      self->sample_series();
      break;
    case EventKind::kFaultStart:
      self->apply_fault(static_cast<std::size_t>(a));
      break;
    case EventKind::kFaultEnd:
      self->end_fault(a);
      break;
    default:
      throw std::logic_error("PacketSimulator: unexpected event kind");
  }
}

core::PaymentId PacketSimulator::submit(const core::PaymentRequest& req) {
  if (ran_) throw std::logic_error("PacketSimulator: submit after run");
  check_request(req, graph_.node_count());
  if (!requests_.empty() && req.arrival < requests_.back().arrival) {
    throw std::invalid_argument(
        "PacketSimulator: submitted arrivals must be non-decreasing");
  }
  requests_.push_back(req);
  return requests_.size() - 1;
}

std::vector<PacketSimulator::PairSlot>::const_iterator
PacketSimulator::find_dst(const std::vector<PairSlot>& row, core::NodeId dst) {
  return std::lower_bound(
      row.begin(), row.end(), dst,
      [](const PairSlot& slot, core::NodeId d) { return slot.dst < d; });
}

std::uint32_t PacketSimulator::pair_index(core::NodeId src, core::NodeId dst) {
  std::vector<PairSlot>& row = pair_rows_[src];
  const auto it = find_dst(row, dst);
  if (it != row.end() && it->dst == dst) return it->index;
  const auto index = static_cast<std::uint32_t>(pairs_.size());
  pairs_.emplace_back();
  row.insert(it, PairSlot{dst, index});
  return index;
}

void PacketSimulator::PairState::compact_backlog() {
  if (next == 0 || 2 * next < backlog.size()) return;
  backlog.erase(backlog.begin(),
                backlog.begin() + static_cast<std::ptrdiff_t>(next));
  next = 0;
}

core::SlabHandle PacketSimulator::handle_of(core::TxUnitId uid) const {
  const std::vector<std::uint64_t>& row = payment_units_[uid.payment];
  if (uid.seq >= row.size()) return {};
  return core::SlabHandle::unpack(row[uid.seq]);
}

void PacketSimulator::init_pair_paths(PairState& ps, core::NodeId src,
                                      core::NodeId dst) {
  if (ps.paths_init) return;
  ps.paths_init = true;
  if (cfg_.paths != nullptr && cfg_.paths->has_pair(src, dst)) {
    const std::span<const graph::Path> pre = cfg_.paths->find(src, dst);
    ps.paths.assign(pre.begin(), pre.end());
    return;
  }
  ps.paths = finder_.edge_disjoint(graph_, src, dst, cfg_.path_k);
}

const graph::Path* PacketSimulator::select_path(PairState& ps,
                                               const core::TxUnit& unit) {
  init_pair_paths(ps, unit.src, unit.dst);
  if (ps.paths.empty()) return nullptr;
  if (cfg_.path_policy == UnitPathPolicy::kRoundRobin) {
    if (faults_ == nullptr) return &ps.paths[ps.rr++ % ps.paths.size()];
    // Graceful degradation: walk the cursor past fault-blocked
    // candidates (reroute around down nodes and closed channels).
    for (std::size_t tried = 0; tried < ps.paths.size(); ++tried) {
      const graph::Path& p = ps.paths[ps.rr++ % ps.paths.size()];
      if (!faults_->path_blocked(p, graph_)) {
        metrics_.fault_reroutes += tried;
        return &p;
      }
    }
    return nullptr;
  }
  // kWidest: the paper's imbalance-aware intuition -- send where the most
  // funds are available right now (waterfilling one unit at a time).
  // During a probe-staleness spike the availability signal is read from
  // the snapshot frozen at spike start; locks still validate against
  // live channel state, so only the *decision* degrades.
  const bool stale = stale_net_ != nullptr;
  const core::ChannelNetwork& signal = stale ? *stale_net_ : net_;
  if (stale) ++metrics_.fault_stale_decisions;
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t best = kNone;
  core::Amount best_avail = -1;
  std::uint64_t blocked = 0;
  for (std::size_t i = 0; i < ps.paths.size(); ++i) {
    if (faults_ != nullptr && faults_->path_blocked(ps.paths[i], graph_)) {
      ++blocked;
      continue;
    }
    const core::Amount avail = signal.path_available(ps.paths[i]);
    if (avail > best_avail) {
      best_avail = avail;
      best = i;
    }
  }
  if (best == kNone) return nullptr;
  metrics_.fault_reroutes += blocked;
  return &ps.paths[best];
}

void PacketSimulator::arrive(core::PaymentId pid) {
  const core::PaymentRequest& req = requests_[pid];
  std::unique_ptr<core::Transport>& tp = transports_[req.src];
  if (tp == nullptr) {
    tp = std::make_unique<core::Transport>(req.src,
                                           cfg_.seed ^ (req.src * 0x9e37ull));
  }
  const std::vector<core::TxUnit>& units =
      tp->begin_payment(pid, req, cfg_.mtu);
  payment_units_[pid].assign(units.size(), 0);
  const std::uint32_t pair = pair_index(req.src, req.dst);
  for (const core::TxUnit& u : units) submit_unit(u, pair);
}

void PacketSimulator::submit_unit(const core::TxUnit& unit,
                                  std::uint32_t pair) {
  switch (cfg_.cc_mode) {
    case CongestionControlMode::kNone:
      launch_unit(unit, pair);
      return;
    case CongestionControlMode::kSpiderCc:
      spider_submit(unit, pair);
      return;
    case CongestionControlMode::kFailureWindow:
      break;
  }
  PairState& cc = pairs_[pair];
  if (!cc.cc_init) {
    cc.cc_init = true;
    cc.window = cfg_.cc_initial_window;
  }
  if (static_cast<double>(cc.outstanding) < cc.window) {
    ++cc.outstanding;
    launch_unit(unit, pair);
  } else {
    cc.backlog.push_back(unit);
  }
}

void PacketSimulator::unit_left(std::uint32_t pair, std::uint32_t path_index,
                                bool success, bool marked) {
  switch (cfg_.cc_mode) {
    case CongestionControlMode::kNone:
      return;
    case CongestionControlMode::kFailureWindow:
      cc_unit_left(pair, success);
      return;
    case CongestionControlMode::kSpiderCc:
      spider_unit_left(pair, path_index, success, marked);
      return;
  }
}

void PacketSimulator::cc_unit_left(std::uint32_t pair, bool success) {
  if (cfg_.cc_mode != CongestionControlMode::kFailureWindow) return;
  PairState& cc = pairs_[pair];
  if (cc.outstanding > 0) --cc.outstanding;
  if (success) {
    cc.window = std::min(cfg_.cc_max_window, cc.window + 1.0 / cc.window);
  } else {
    cc.window = std::max(1.0, cc.window / 2.0);
  }
  // A launched unit can fail synchronously (no route) and re-enter here;
  // let the outermost frame own the backlog drain.
  if (cc.draining) return;
  cc.draining = true;
  while (cc.next < cc.backlog.size() &&
         static_cast<double>(cc.outstanding) < cc.window) {
    const core::TxUnit u = cc.backlog[cc.next++];
    // Skip units whose deadline already passed; the transport will mark
    // the payment partial/failed at status time.
    if (u.deadline < now()) {
      transports_[u.src]->abandon_unit(u.id);
      continue;
    }
    ++cc.outstanding;
    launch_unit(u, pair);
  }
  cc.draining = false;
  cc.compact_backlog();
}

std::size_t PacketSimulator::backlog_units() const {
  std::size_t total = 0;
  for (const PairState& ps : pairs_) total += ps.backlog.size() - ps.next;
  return total;
}

std::size_t PacketSimulator::spider_pick_path(const PairState& ps) {
  // Window-gated widest: the AIMD windows decide *whether* a unit may
  // launch (no headroom anywhere parks it in the backlog) and the
  // kWidest availability signal decides *where* among the open windows
  // (most available funds wins, index breaks ties). Marking closes the
  // windows of queue-building paths, so the two signals cooperate:
  // windows pace the aggregate, availability steers around imbalance.
  // During a probe-staleness spike availability reads the frozen
  // snapshot, exactly like select_path.
  const bool stale = stale_net_ != nullptr;
  const core::ChannelNetwork& signal = stale ? *stale_net_ : net_;
  if (stale) ++metrics_.fault_stale_decisions;
  std::size_t best = kPathsBlocked;
  core::Amount best_avail = -1;
  bool any_live = false;
  for (std::size_t i = 0; i < ps.paths.size(); ++i) {
    if (faults_ != nullptr && faults_->path_blocked(ps.paths[i], graph_)) {
      continue;
    }
    any_live = true;
    if (static_cast<double>(ps.out[i]) >= ps.win[i]) continue;
    const core::Amount avail = signal.path_available(ps.paths[i]);
    if (avail > best_avail) {
      best_avail = avail;
      best = i;
    }
  }
  if (best != kPathsBlocked) return best;
  return any_live ? kWindowsFull : kPathsBlocked;
}

void PacketSimulator::spider_submit(const core::TxUnit& unit,
                                    std::uint32_t pair) {
  if (faults_ != nullptr && faults_->node_down(unit.src)) {
    // A down host originates nothing (see launch_unit); no window state
    // was touched, so there is nothing to roll back or drain.
    ++metrics_.fault_units_failed;
    transports_[unit.src]->abandon_unit(unit.id);
    return;
  }
  PairState& ps = pairs_[pair];
  init_pair_paths(ps, unit.src, unit.dst);
  if (!ps.cc_init) {
    ps.cc_init = true;
    ps.win.assign(ps.paths.size(), cfg_.cc_initial_window);
    ps.out.assign(ps.paths.size(), 0);
  }
  if (ps.paths.empty()) {
    transports_[unit.src]->abandon_unit(unit.id);
    return;
  }
  const std::size_t pick = spider_pick_path(ps);
  if (pick == kPathsBlocked) {
    // Every candidate path is fault-blocked: same resolution the
    // unwindowed launch reaches when select_path finds no live path.
    ++metrics_.fault_units_failed;
    transports_[unit.src]->abandon_unit(unit.id);
    return;
  }
  if (pick == kWindowsFull) {
    ps.backlog.push_back(unit);
    return;
  }
  ++ps.out[pick];
  start_unit(unit, pair, &ps.paths[pick], static_cast<std::uint32_t>(pick));
}

void PacketSimulator::spider_unit_left(std::uint32_t pair,
                                       std::uint32_t path_index, bool success,
                                       bool marked) {
  // The unit launched through spider_submit, so the pair's paths and
  // windows exist.
  PairState& ps = pairs_[pair];
  if (path_index < ps.win.size()) {
    if (ps.out[path_index] > 0) --ps.out[path_index];
    double& w = ps.win[path_index];
    if (success && !marked) {
      w = std::min(cfg_.cc_max_window, w + cfg_.cc_alpha / w);
    } else {
      w = std::max(cfg_.cc_min_window, w * (1.0 - cfg_.cc_beta));
      ++metrics_.cc_window_decreases;
    }
  }
  // A launched unit can fail synchronously and re-enter here; let the
  // outermost frame own the backlog drain (same guard as cc_unit_left).
  if (ps.draining) return;
  ps.draining = true;
  while (ps.next < ps.backlog.size()) {
    const core::TxUnit u = ps.backlog[ps.next];
    if (u.deadline < now()) {
      ++ps.next;
      transports_[u.src]->abandon_unit(u.id);
      continue;
    }
    const std::size_t pick = spider_pick_path(ps);
    if (pick == kWindowsFull) break;  // re-drained on the next departure
    ++ps.next;
    if (pick == kPathsBlocked) {
      ++metrics_.fault_units_failed;
      transports_[u.src]->abandon_unit(u.id);
      continue;
    }
    ++ps.out[pick];
    start_unit(u, pair, &ps.paths[pick], static_cast<std::uint32_t>(pick));
  }
  ps.draining = false;
  ps.compact_backlog();
}

std::vector<double> PacketSimulator::cc_windows(core::NodeId src,
                                                core::NodeId dst) const {
  if (cfg_.cc_mode != CongestionControlMode::kSpiderCc) return {};
  if (src >= pair_rows_.size()) return {};
  const std::vector<PairSlot>& row = pair_rows_[src];
  const auto it = find_dst(row, dst);
  if (it == row.end() || it->dst != dst) return {};
  return pairs_[it->index].win;
}

void PacketSimulator::launch_unit(const core::TxUnit& unit,
                                  std::uint32_t pair) {
  if (faults_ != nullptr && faults_->node_down(unit.src)) {
    // A down host originates nothing. This gate is also the fix for the
    // latent sweep_expired hazard: failing an expired unit drains its
    // pair's congestion-control backlog, and a relaunched unit of a
    // down source would otherwise queue at the dead (already drained)
    // router via advance()'s dry-channel path.
    ++metrics_.fault_units_failed;
    transports_[unit.src]->abandon_unit(unit.id);
    cc_unit_left(pair, /*success=*/false);
    return;
  }
  const graph::Path* path = select_path(pairs_[pair], unit);
  if (path == nullptr || path->arcs.empty()) {
    transports_[unit.src]->abandon_unit(unit.id);
    cc_unit_left(pair, /*success=*/false);
    return;
  }
  start_unit(unit, pair, path, 0);
}

void PacketSimulator::start_unit(const core::TxUnit& unit, std::uint32_t pair,
                                 const graph::Path* path,
                                 std::uint32_t path_index) {
  const core::SlabHandle h = units_.acquire();
  UnitState& st = *units_.get(h);
  st.unit = unit;
  if (cfg_.cc_mode == CongestionControlMode::kSpiderCc &&
      cfg_.cc_unit_timeout > 0) {
    // Per-launch HTLC expiry: only the launched copy gets the tightened
    // deadline -- a retried unit re-enters the backlog with the
    // payment's own deadline and is re-tightened on its next launch.
    st.unit.deadline = std::min(unit.deadline, now() + cfg_.cc_unit_timeout);
  }
  st.path = path;
  st.hop = 0;
  st.htlcs.clear();  // recycled slot may hold the previous tenant's
  st.path_index = path_index;
  st.pair = pair;
  st.marked = false;
  payment_units_[unit.id.payment][unit.id.seq] = h.packed();
  ++metrics_.units_sent;
  advance(h);
}

void PacketSimulator::advance(core::SlabHandle h, TimePoint queue_delay) {
  UnitState* st = units_.get(h);
  if (st == nullptr) return;
  const graph::ArcId arc = st->path->arcs[st->hop];
  if (faults_ != nullptr && (faults_->node_down(graph_.tail(arc)) ||
                             faults_->edge_closed(graph::edge_of(arc)))) {
    // The forwarding node is down or the channel closed under the unit:
    // it cannot proceed or wait here, so every upstream lock fails and
    // the funds refund (the same resolution its expiry would reach).
    ++metrics_.fault_units_failed;
    fail_unit(st->unit.id);
    return;
  }
  const std::optional<core::HtlcId> htlc =
      net_.offer_htlc(arc, st->unit.amount, st->unit.lock);
  if (!htlc) {
    // Dry channel: queue at this hop's router (paper Fig. 3).
    core::QueuedUnit qu;
    qu.unit = st->unit.id;
    qu.amount = st->unit.amount;
    qu.remaining_payment =
        transports_[st->unit.src]->remaining(st->unit.id.payment);
    qu.enqueued = now();
    qu.deadline = st->unit.deadline;
    routers_[graph_.tail(arc)].push_local(arc_local_[arc], qu);
    ++total_queued_units_;
    total_queued_amount_ += qu.amount;
    return;
  }
  st->htlcs.push_back(*htlc);
  held_amount_ += st->unit.amount;
  if (cfg_.cc_mode == CongestionControlMode::kSpiderCc) {
    // The router feeds its queue-delay estimator with every departing
    // unit's wait (0 on pass-through) and stamps the resulting one-bit
    // mark onto the unit; once marked, always marked (§5 of the NSDI
    // design: any congested hop suffices).
    st->marked |= routers_[graph_.tail(arc)].observe_delay_local(
        arc_local_[arc], queue_delay);
  }
  // The unit lands at the arc's head one hop delay from now.
  events_.schedule_typed_in(cfg_.hop_delay, EventKind::kHopAdvance,
                            h.packed());
}

void PacketSimulator::reach_next_hop(core::SlabHandle h) {
  UnitState* st = units_.get(h);
  if (st == nullptr) return;
  ++st->hop;
  if (st->hop == st->path->arcs.size()) {
    unit_reached_destination(h);
  } else {
    advance(h);
  }
}

void PacketSimulator::unit_reached_destination(core::SlabHandle h) {
  const UnitState& st = *units_.get(h);
  // Receiver confirms (payment id + sequence number, §4.1); the ack
  // travels back to the sender in one aggregate delay.
  const TimePoint ack_delay =
      cfg_.hop_delay * static_cast<double>(st.path->arcs.size());
  TimePoint withheld = 0;
  if (faults_ != nullptr && faults_->withholding(st.unit.dst, now())) {
    // The receiver withholds its confirmation until the spell ends;
    // every hop's hold stays pending meanwhile (the griefing the
    // paper's Δ-bounded holds exist to bound).
    withheld = faults_->withhold_until(st.unit.dst) - now();
    ++metrics_.fault_withheld_acks;
  }
  if (faults_ != nullptr && faults_->griefing(st.unit.dst, now())) {
    // Griefing is the targeted, maximal form of withholding: the hub
    // holds every ack it owes until the spell deadline. A concurrent
    // withhold spell only strengthens to the later of the two.
    const TimePoint griefed = faults_->grief_until(st.unit.dst) - now();
    if (griefed > withheld) withheld = griefed;
    ++metrics_.fault_griefed_acks;
  }
  if (withheld > 0) {
    // A held ack's delay is arbitrary: schedule it at its absolute time
    // so it takes no delay lane (DESIGN.md §16).
    events_.schedule_typed(now() + (ack_delay + withheld), EventKind::kAck,
                           h.packed());
  } else {
    events_.schedule_typed_in(ack_delay, EventKind::kAck, h.packed());
  }
}

void PacketSimulator::ack_unit(core::SlabHandle h) {
  const UnitState* st = units_.get(h);
  if (st == nullptr) return;  // unit already failed (e.g. expired)
  if (st->marked) ++metrics_.cc_marked_acks;
  // confirm_unit releases no keys for late confirmations (the sender
  // withholds them; the unit's locks fail via the expiry sweep) and
  // for atomic payments still missing shares.
  key_releases_.clear();
  transports_[st->unit.src]->confirm_unit(st->unit.id, now(), st->marked,
                                          key_releases_);
  for (const core::KeyRelease& kr : key_releases_) {
    settle_unit(kr.unit, kr.key);
  }
}

void PacketSimulator::settle_unit(core::TxUnitId uid, core::Preimage key) {
  const core::SlabHandle h = handle_of(uid);
  UnitState* st = units_.get(h);
  if (st == nullptr) return;
  // Settle every hop; funds become usable at each receiving side, so
  // service the queues that were waiting for them.
  for (std::size_t i = 0; i < st->htlcs.size(); ++i) {
    if (!net_.settle_htlc(st->path->arcs[i], st->htlcs[i], key)) {
      throw std::logic_error("packet_sim: settle failed (bad key?)");
    }
  }
  held_amount_ -=
      st->unit.amount * static_cast<core::Amount>(st->htlcs.size());
  metrics_.delivered_volume += st->unit.amount;
  const core::PaymentId pid = uid.payment;
  if (transports_[st->unit.src]->remaining(pid) == 0) {
    metrics_.sum_completion_latency += now() - requests_[pid].arrival;
    metrics_.latency_hist.add(now() - requests_[pid].arrival);
  }
  // The path outlives the unit (owned by PairState); grab it before the
  // slot is released -- servicing below may recycle the slot.
  const graph::Path* path = st->path;
  const std::uint32_t pair = st->pair;
  const std::uint32_t path_index = st->path_index;
  const bool marked = st->marked;
  units_.release(h);
  unit_left(pair, path_index, /*success=*/true, marked);
  for (const graph::ArcId arc : path->arcs) {
    service_arc(graph::reverse(arc));
  }
}

void PacketSimulator::fail_unit(core::TxUnitId uid, bool retryable) {
  const core::SlabHandle h = handle_of(uid);
  UnitState* st = units_.get(h);
  if (st == nullptr) return;
  for (std::size_t i = 0; i < st->htlcs.size(); ++i) {
    net_.fail_htlc(st->path->arcs[i], st->htlcs[i]);
  }
  held_amount_ -=
      st->unit.amount * static_cast<core::Amount>(st->htlcs.size());
  // A timed-out spider-cc unit retries (fresh launch, fresh timeout)
  // while the payment's own deadline allows; the relaunch queues behind
  // whatever the window decrease below lets through first. Restore the
  // payment deadline the launch tightened (see start_unit).
  core::TxUnit retry_unit = st->unit;
  bool retry = retryable && cfg_.cc_mode == CongestionControlMode::kSpiderCc;
  if (retry) {
    retry_unit.deadline = requests_[uid.payment].deadline;
    retry = retry_unit.deadline >= now();
  }
  if (!retry) transports_[st->unit.src]->abandon_unit(uid);
  const graph::Path* path = st->path;
  const std::uint32_t pair = st->pair;
  const std::uint32_t path_index = st->path_index;
  const std::size_t locked_hops = st->htlcs.size();
  units_.release(h);
  unit_left(pair, path_index, /*success=*/false, /*marked=*/false);
  // Funds return to the offering sides; their sending direction frees up.
  for (std::size_t i = 0; i < locked_hops; ++i) {
    service_arc(path->arcs[i]);
  }
  if (retry) {
    ++metrics_.cc_timeout_retries;
    spider_submit(retry_unit, pair);
  }
}

void PacketSimulator::service_arc(graph::ArcId a) {
  if (faults_ != nullptr && faults_->node_down(graph_.tail(a))) return;
  core::Router& router = routers_[graph_.tail(a)];
  const std::size_t i = arc_local_[a];
  while (const core::QueuedUnit* top = router.peek_local(i)) {
    const core::Amount avail = net_.available(a);
    if (avail < top->amount) break;  // policy head blocked; wait for funds
    const core::QueuedUnit qu = *router.pop_local(i);
    --total_queued_units_;
    total_queued_amount_ -= qu.amount;
    advance(handle_of(qu.unit), now() - qu.enqueued);
  }
}

void PacketSimulator::sweep_expired() {
  if (total_queued_units_ != 0) {
    // Node-id order matters: failing a unit can push newly queued units
    // into routers later in the scan, which this same sweep must see --
    // exactly as a full walk over all routers would.
    for (core::NodeId v = 0; v < graph_.node_count(); ++v) {
      core::Router& r = routers_[v];
      if (r.queued_units() == 0) continue;  // O(1) skip
      expired_units_.clear();
      r.drop_expired(now(), expired_units_);
      for (const core::QueuedUnit& qu : expired_units_) {
        --total_queued_units_;
        total_queued_amount_ -= qu.amount;
        fail_unit(qu.unit, /*retryable=*/true);
      }
    }
  }
  if (now() + cfg_.expiry_sweep_interval <= cfg_.end_time) {
    events_.schedule_typed_in(cfg_.expiry_sweep_interval,
                              EventKind::kExpirySweep);
  }
}

void PacketSimulator::apply_fault(std::size_t index) {
  const faults::FaultInjector::Applied ap = faults_->apply(index, now());
  ++metrics_.fault_events_applied;
  if (ap.needs_end_event) {
    // Jam end events carry the *plan index* in the target slot: two
    // overlapping jams on one edge must each release their own batch,
    // which the edge id alone cannot distinguish.
    const std::uint64_t payload =
        ap.kind == faults::FaultKind::kJam
            ? faults::FaultInjector::pack_end(
                  ap.kind, static_cast<std::uint32_t>(index))
            : faults::FaultInjector::pack_end(ap.kind, ap.target);
    events_.schedule_typed(ap.until, EventKind::kFaultEnd, payload);
  }
  switch (ap.kind) {
    case faults::FaultKind::kNodeDown:
      ++metrics_.fault_node_downs;
      if (ap.became_active) fail_node_queues(ap.target);
      break;
    case faults::FaultKind::kChannelClose:
      ++metrics_.fault_channel_closures;
      if (ap.became_active) close_channel(ap.target);
      break;
    case faults::FaultKind::kWithhold:
      ++metrics_.fault_withhold_spells;
      break;
    case faults::FaultKind::kProbeStale:
      ++metrics_.fault_stale_spells;
      if (ap.became_active) stale_net_ = stale_snapshot(net_);
      break;
    case faults::FaultKind::kJam:
      ++metrics_.fault_jam_spells;
      start_jam(index);
      break;
    case faults::FaultKind::kGrief:
      ++metrics_.fault_grief_spells;
      break;
  }
}

void PacketSimulator::end_fault(std::uint64_t word) {
  const faults::FaultKind kind = faults::FaultInjector::unpack_end_kind(word);
  const std::uint32_t target = faults::FaultInjector::unpack_end_target(word);
  if (kind == faults::FaultKind::kJam) {
    // `target` is the plan index (see apply_fault); the jammed edge
    // comes from the plan. The injector depth always decrements; the
    // batch may already be gone if a channel close released it early.
    const std::size_t index = target;
    faults_->expire(kind, faults_->plan().at(index).target);
    for (std::size_t i = 0; i < jam_batches_.size(); ++i) {
      if (jam_batches_[i].plan_index == index) {
        release_jam(i);
        break;
      }
    }
    return;
  }
  if (!faults_->expire(kind, target)) return;  // overlapping window remains
  if (kind == faults::FaultKind::kProbeStale) stale_net_.reset();
  // A recovered node restarts with empty queues; its channels' funds
  // are serviced organically by the next settle/fail on each arc.
}

void PacketSimulator::start_jam(std::size_t index) {
  const faults::FaultEvent& ev = faults_->plan().at(index);
  const graph::EdgeId e = ev.target;
  JamBatch batch;
  batch.plan_index = index;
  batch.edge = e;
  if (!faults_->edge_closed(e)) {
    const core::Channel& ch = net_.channel(e);
    for (const core::Side side : {core::Side::kA, core::Side::kB}) {
      const auto lock = static_cast<core::Amount>(
          ev.magnitude * static_cast<double>(ch.balance(side)));
      if (lock <= 0) continue;
      // The attacker never settles, so the lock hash only needs to be
      // unique per (spell, side); derived from the plan index.
      const core::LockHash hash = core::hash_preimage(
          0x6a616dull ^ (static_cast<core::Preimage>(index) << 1) ^
          static_cast<core::Preimage>(side == core::Side::kB ? 1 : 0));
      const graph::ArcId arc = side == core::Side::kA
                                   ? graph::forward_arc(e)
                                   : graph::backward_arc(e);
      const std::optional<core::HtlcId> h = net_.offer_htlc(arc, lock, hash);
      if (!h) continue;
      batch.holds.push_back({arc, *h, lock});
      held_amount_ += lock;
      metrics_.fault_jam_locked_volume += lock;
    }
  }
  jam_batches_.push_back(std::move(batch));
}

void PacketSimulator::release_jam(std::size_t batch_index) {
  const JamBatch batch = std::move(jam_batches_[batch_index]);
  jam_batches_.erase(jam_batches_.begin() +
                     static_cast<std::ptrdiff_t>(batch_index));
  for (const JamHold& hold : batch.holds) {
    // Abort at deadline: the lock refunds its side.
    net_.fail_htlc(hold.arc, hold.id);
    held_amount_ -= hold.amount;
  }
  // Freed funds can admit waiting units in both directions.
  service_arc(2 * batch.edge);
  service_arc(2 * batch.edge + 1);
}

void PacketSimulator::fail_node_queues(core::NodeId v) {
  // A down router answers nothing, so everything it queued resolves the
  // way expiry resolves it: the unit fails and its upstream holds
  // refund. Cascades from fail_unit can service *other* routers but can
  // never re-queue at `v` (launch_unit and advance are gated on
  // node_down), so the drain terminates; the outer loop re-checks the
  // O(1) counter in case a cascade enqueued before this sweep reached
  // a later arc.
  core::Router& r = routers_[v];
  while (r.queued_units() > 0) {
    for (std::size_t i = 0; i < r.arc_count(); ++i) {
      while (const auto qu = r.pop_local(i)) {
        --total_queued_units_;
        total_queued_amount_ -= qu->amount;
        ++metrics_.fault_units_failed;
        fail_unit(qu->unit);
      }
    }
  }
}

void PacketSimulator::close_channel(graph::EdgeId e) {
  // Honest unilateral close (chain/lifecycle.hpp semantics): the latest
  // commitment confirms on-chain, every HTLC pending on the channel
  // resolves as failed -- refunding the offerer -- and no further HTLCs
  // can be offered (edge_closed() gates advance). Handles are collected
  // first: fail_unit mutates the slab (releases, and cc backlog drains
  // may acquire), which for_each must not observe.
  std::vector<core::SlabHandle> affected;
  units_.for_each([&](core::SlabHandle h, UnitState& st) {
    for (std::size_t i = 0; i < st.htlcs.size(); ++i) {
      if (graph::edge_of(st.path->arcs[i]) == e) {
        affected.push_back(h);
        return;
      }
    }
    // Units waiting in a router queue for this edge's funds can stop
    // waiting: the funds are gone for good.
    if (st.hop < st.path->arcs.size() && st.htlcs.size() == st.hop &&
        graph::edge_of(st.path->arcs[st.hop]) == e) {
      affected.push_back(h);
    }
  });
  for (const core::SlabHandle h : affected) fault_kill_unit(h);
  // Attacker locks on the closing channel resolve as failed too (they
  // are channel HTLCs like any other); release_jam erases the batch so
  // the spell's own kFaultEnd later finds nothing to release.
  bool found = true;
  while (found) {
    found = false;
    for (std::size_t i = 0; i < jam_batches_.size(); ++i) {
      if (jam_batches_[i].edge == e) {
        release_jam(i);
        found = true;
        break;
      }
    }
  }
}

void PacketSimulator::fault_kill_unit(core::SlabHandle h) {
  UnitState* st = units_.get(h);
  if (st == nullptr) return;  // an earlier kill's cascade got it first
  if (st->hop < st->path->arcs.size() && st->htlcs.size() == st->hop) {
    // Waiting in a router queue: remove the entry so no ghost can block
    // the queue head once the slab slot is released.
    const graph::ArcId arc = st->path->arcs[st->hop];
    if (routers_[graph_.tail(arc)].erase(arc, st->unit.id, st->unit.amount)) {
      --total_queued_units_;
      total_queued_amount_ -= st->unit.amount;
    }
  }
  ++metrics_.fault_units_failed;
  fail_unit(st->unit.id);
}

void PacketSimulator::sample_series() {
  metrics_.queue_depth_series.push_back(
      static_cast<double>(queued_units()));
  for (graph::EdgeId e = 0; e < graph_.edge_count(); ++e) {
    metrics_.channel_imbalance_series[e].push_back(
        core::to_units(net_.channel(e).imbalance()));
  }
  if (now() + cfg_.series_bucket <= cfg_.end_time) {
    events_.schedule_typed_in(cfg_.series_bucket, EventKind::kSeriesSample);
  }
}

void PacketSimulator::arm_auditor() {
  InvariantAuditor& a = *cfg_.auditor;
  attach_auditor(a, net_, held_amount_, events_);
  a.add_check("queue-counters", [this] { return audit_queue_counters(); });
}

std::optional<std::string> PacketSimulator::audit_queue_counters() const {
  std::size_t units = 0;
  core::Amount amount = 0;
  for (const core::Router& r : routers_) {
    std::size_t r_units = 0;
    core::Amount r_amount = 0;
    for (const graph::ArcId a : graph_.out_arcs(r.id())) {
      const core::UnitQueue* q = r.find_queue(a);
      if (q == nullptr) continue;
      r_units += q->size();
      r_amount += q->total_amount();
    }
    if (r_units != r.queued_units() || r_amount != r.queued_amount()) {
      std::ostringstream os;
      os << "router " << r.id() << " counters (units=" << r.queued_units()
         << ", amount=" << r.queued_amount() << ") != recount (units="
         << r_units << ", amount=" << r_amount << ")";
      return os.str();
    }
    units += r_units;
    amount += r_amount;
  }
  if (units != total_queued_units_ || amount != total_queued_amount_) {
    std::ostringstream os;
    os << "simulator totals (units=" << total_queued_units_
       << ", amount=" << total_queued_amount_ << ") != recount (units="
       << units << ", amount=" << amount << ")";
    return os.str();
  }
  return std::nullopt;
}

namespace {
/// Simulated seconds between the retire_resolved() calls of run().
constexpr TimePoint kRetireInterval = 5.0;
}  // namespace

Metrics PacketSimulator::run() {
  if (ran_) throw std::logic_error("PacketSimulator: run called twice");
  // The source walks requests_ in submission order: stream_submit finds
  // each request already stored under its id (the admission count).
  start(
      [](void* ctx) -> std::optional<core::PaymentRequest> {
        const auto& self = *static_cast<const PacketSimulator*>(ctx);
        if (self.metrics_.attempted == self.requests_.size()) {
          return std::nullopt;
        }
        return self.requests_[self.metrics_.attempted];
      },
      this);
  for (TimePoint t = kRetireInterval; t < cfg_.end_time;
       t += kRetireInterval) {
    run_service_until(t);
    retire_resolved();
  }
  return finish_service();
}

// --- service mode (DESIGN.md §13) ------------------------------------

void PacketSimulator::start_service(ArrivalSource source, void* ctx) {
  if (ran_) {
    throw std::logic_error("PacketSimulator: start_service after run");
  }
  if (!requests_.empty()) {
    throw std::logic_error(
        "PacketSimulator: submit() and service mode are exclusive");
  }
  if (source == nullptr) {
    throw std::invalid_argument("PacketSimulator: null arrival source");
  }
  start(source, ctx);
}

void PacketSimulator::start(ArrivalSource source, void* ctx) {
  ran_ = true;
  arrival_source_ = source;
  arrival_ctx_ = ctx;
  if (cfg_.auditor != nullptr) arm_auditor();
  if (faults_ != nullptr) {
    schedule_fault_plan(*faults_, graph_, cfg_.end_time, events_);
  }
  events_.schedule_typed(cfg_.expiry_sweep_interval, EventKind::kExpirySweep);
  if (cfg_.collect_series) {
    metrics_.series_bucket = cfg_.series_bucket;
    metrics_.channel_imbalance_series.assign(graph_.edge_count(), {});
    events_.schedule_typed(cfg_.series_bucket, EventKind::kSeriesSample);
  }
  // Prime the pump: the first pull happens here, every later pull
  // happens inside the previous arrival's dispatch.
  pull_next_arrival();
}

void PacketSimulator::pull_next_arrival() {
  if (arrival_source_ == nullptr) return;
  const std::optional<core::PaymentRequest> req = arrival_source_(arrival_ctx_);
  if (!req.has_value() || req->arrival > cfg_.end_time) {
    arrival_source_ = nullptr;  // stream exhausted (or ran past the run)
    return;
  }
  stream_submit(*req);
}

void PacketSimulator::stream_submit(const core::PaymentRequest& req) {
  check_request(req, graph_.node_count());
  if (req.arrival < now()) {
    throw std::invalid_argument(
        "PacketSimulator: streamed arrivals must be non-decreasing");
  }
  const auto pid = static_cast<core::PaymentId>(metrics_.attempted);
  if (pid == requests_.size()) requests_.push_back(req);
  payment_units_.emplace_back();
  live_.push_back(pid);
  peak_live_ = std::max(peak_live_, live_.size());
  ++metrics_.attempted;
  metrics_.attempted_volume += req.amount;
  events_.schedule_typed(req.arrival, EventKind::kArrival, pid);
}

void PacketSimulator::run_service_until(TimePoint t) {
  if (!ran_) {
    throw std::logic_error("PacketSimulator: run_service_until outside service");
  }
  const TimePoint stop = std::min(t, cfg_.end_time);
  events_.run_until(stop);
}

void PacketSimulator::classify_payment(core::PaymentId pid) {
  const core::PaymentRequest& req = requests_[pid];
  record_outcome(metrics_, req.amount, transports_[req.src]->delivered(pid));
}

std::size_t PacketSimulator::retire_resolved() {
  if (!ran_) {
    throw std::logic_error("PacketSimulator: retire_resolved outside service");
  }
  std::size_t retired = 0;
  std::size_t w = 0;
  for (std::size_t r = 0; r < live_.size(); ++r) {
    const core::PaymentId pid = live_[r];
    // A streamed payment whose kArrival event is still in the future
    // has no transport record yet; it is trivially unresolved.
    if (requests_[pid].arrival > now()) {
      live_[w++] = pid;
      continue;
    }
    core::Transport& tp = *transports_[requests_[pid].src];
    if (tp.resolved(pid)) {
      // resolved => every unit confirmed or abandoned, i.e. no live
      // slab entry and no queued router entry reference this payment;
      // late ack/settle events no-op via the slab generation check and
      // the emptied handle row. finish_service() has already classified
      // every payment still live when it ran.
      if (!finished_service_) classify_payment(pid);
      tp.retire_payment(pid);
      std::vector<std::uint64_t>().swap(payment_units_[pid]);
      ++retired;
    } else {
      live_[w++] = pid;
    }
  }
  live_.resize(w);
  return retired;
}

const Metrics& PacketSimulator::finish_service() {
  if (!ran_) {
    throw std::logic_error("PacketSimulator: finish_service outside service");
  }
  if (finished_service_) return metrics_;
  finished_service_ = true;
  run_service_until(cfg_.end_time);
  if (cfg_.auditor != nullptr) {
    cfg_.auditor->finish(now(), events_processed());
  }
  // Classify the unresolved remainder at end_time (their records stay
  // live for inspection).
  for (const core::PaymentId pid : live_) classify_payment(pid);
  return metrics_;
}

std::uint64_t PacketSimulator::state_checksum() const {
  constexpr std::uint64_t kOffset = 1469598103934665603ull;
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h = kOffset;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= kPrime;
  };
  mix(std::bit_cast<std::uint64_t>(now()));
  mix(events_processed());
  mix(txns_streamed());
  mix(metrics_.attempted);
  mix(metrics_.units_sent);
  mix(metrics_.total_attempt_rounds);
  mix(static_cast<std::uint64_t>(metrics_.delivered_volume));
  mix(metrics_.fault_events_applied);
  mix(static_cast<std::uint64_t>(total_queued_units_));
  mix(static_cast<std::uint64_t>(total_queued_amount_));
  mix(static_cast<std::uint64_t>(held_amount_));
  for (graph::EdgeId e = 0; e < graph_.edge_count(); ++e) {
    const core::Channel& ch = net_.channel(e);
    mix(static_cast<std::uint64_t>(ch.balance(core::Side::kA)));
    mix(static_cast<std::uint64_t>(ch.balance(core::Side::kB)));
    mix(static_cast<std::uint64_t>(ch.pending(core::Side::kA)));
    mix(static_cast<std::uint64_t>(ch.pending(core::Side::kB)));
  }
  mix(events_.canonical_checksum());
  return h;
}

}  // namespace spider::sim
