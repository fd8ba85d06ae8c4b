#pragma once
// Packet-level simulator of the Spider architecture (paper §4).
//
// Implements what the paper's own evaluation deferred to future work:
// hosts split payments into MTU-bounded transaction units, each unit is
// source-routed and locked hop-by-hop with per-hop propagation delay,
// routers queue units that find a dry channel and service the queue (by
// a configurable scheduling policy) as funds return, receivers confirm
// units to the sender, and the sender's transport releases hash-lock
// keys (per unit for non-atomic payments; all-at-once AMP style for
// atomic payments), settling every hop.
//
// Hot-path substrate (PR 2): in-flight units live in a generation-
// checked slab keyed by a one-word handle that rides inside the typed
// event queue (no per-event allocation, no hash lookups per hop);
// per-(src,dst) state -- candidate paths, round-robin cursor, AIMD
// congestion window, host backlog -- lives in one table found once per
// payment through per-source sorted rows; router queues are dense
// per-out-arc vectors addressed by a precomputed arc -> local-index
// table; queued unit/value totals are O(1) running counters, so the
// expiry sweep touches only routers that actually queue units.
//
// Used by the architecture examples, the packet-vs-flow ablation bench,
// and the end-to-end tests of core/ (channel, transport, router, htlc).

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/network.hpp"
#include "core/router.hpp"
#include "core/scheduler.hpp"
#include "core/slab.hpp"
#include "core/transport.hpp"
#include "core/types.hpp"
#include "graph/path_table.hpp"
#include "graph/paths.hpp"
#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"

namespace spider::faults {
class FaultInjector;  // faults/injector.hpp
}

namespace spider::sim {

class InvariantAuditor;  // sim/audit.hpp

enum class UnitPathPolicy : std::uint8_t {
  kWidest,      // per unit, pick the candidate path with most available
  kRoundRobin,  // cycle through the candidate paths
};

/// Host rate control applied to transaction-unit release.
enum class CongestionControlMode : std::uint8_t {
  /// No pacing: every unit launches at arrival.
  kNone,
  /// Legacy per-(src,dst) AIMD window driven by unit *failures*
  /// (confirmations grow the shared window, failed/expired units halve
  /// it). Kept byte-identical to the pre-spider-cc simulator.
  kFailureWindow,
  /// Spider-NSDI congestion control (arXiv:1809.05088 §5): routers
  /// stamp a one-bit queue-delay mark onto units, and each (src, dst)
  /// pair keeps one AIMD window *per candidate path* -- multiplicative
  /// decrease on marked acks and failures, additive increase on clean
  /// acks. Units launch onto the window with the most headroom and
  /// overflow waits in the host backlog, replacing the per-unit
  /// widest/round-robin pick for this mode.
  kSpiderCc,
};

struct PacketSimConfig {
  core::Amount mtu = core::from_units(10.0);
  TimePoint hop_delay = 0.05;   // per-hop propagation/processing delay
  TimePoint end_time = 100.0;
  core::SchedulingPolicy router_policy = core::SchedulingPolicy::kSrpt;
  std::size_t path_k = 4;       // edge-disjoint candidate paths per pair
  UnitPathPolicy path_policy = UnitPathPolicy::kWidest;
  /// Router queues drop expired units this often.
  TimePoint expiry_sweep_interval = 0.5;
  std::uint64_t seed = 1;

  /// Collect telemetry time series into the metrics: per-channel
  /// imbalance and router-queue depth sampled every `series_bucket`
  /// seconds.
  bool collect_series = false;
  double series_bucket = 5.0;

  /// Host congestion control; see CongestionControlMode.
  CongestionControlMode cc_mode = CongestionControlMode::kNone;
  double cc_initial_window = 4.0;
  double cc_max_window = 64.0;

  /// Spider-cc window dynamics (used only in kSpiderCc): a clean ack
  /// grows its path's window by `cc_alpha / window`; a marked ack or a
  /// failed unit shrinks it to `window * (1 - cc_beta)`, floored at
  /// `cc_min_window`.
  double cc_alpha = 1.0;
  double cc_beta = 0.1;
  double cc_min_window = 1.0;
  /// Router one-bit marking knobs (kSpiderCc only; core::MarkingConfig).
  TimePoint cc_mark_threshold = 0.3;
  double cc_mark_unmark_fraction = 0.5;
  double cc_mark_ewma_gain = 0.25;
  /// Per-launch HTLC expiry for spider-cc units (<= 0 disables): a unit
  /// stuck in a router queue `cc_unit_timeout` seconds after its launch
  /// is dropped by the expiry sweep, its hop locks refund, the path's
  /// window takes a multiplicative decrease (the timeout is a loss
  /// signal), and the unit re-enters the host backlog to retry while
  /// the payment's own deadline (if any) allows. This is what real HTLC
  /// timeouts do: stuck value cannot gridlock the network forever.
  TimePoint cc_unit_timeout = 15.0;

  /// Optional runtime invariant auditor (sim/audit.hpp). When set, the
  /// simulator attaches it to its network at run() start, registers its
  /// queue-counter and HTLC-hold checks, and drives it from the event
  /// loop. Observation-only: metrics are byte-identical either way.
  /// Must outlive run().
  InvariantAuditor* auditor = nullptr;

  /// Optional precomputed candidate-path table (exp/path_precompute).
  /// Pairs the table covers skip the lazy per-pair edge-disjoint
  /// computation; uncovered pairs still compute on first use. The table
  /// must hold `path_k` edge-disjoint shortest paths per covered pair
  /// (what exp::precompute_paths builds), so metrics are byte-identical
  /// with or without it. Must outlive the simulator.
  const graph::PathTable* paths = nullptr;

  /// Optional fault injector (faults/injector.hpp). When set, the
  /// simulator binds it at run() start and schedules one typed
  /// kFaultStart event per plan entry: down nodes neither forward nor
  /// originate (their queues fail via the expiry machinery and path
  /// selection reroutes around them), closed channels fail their
  /// pending HTLCs and accept no new ones, withholding receivers delay
  /// confirmations, and probe-staleness spikes freeze the widest-path
  /// availability signal. An injector with an *empty* plan schedules
  /// nothing and leaves the run byte-identical to `faults == nullptr`.
  /// Must outlive run().
  faults::FaultInjector* faults = nullptr;
};

class PacketSimulator {
 public:
  PacketSimulator(const graph::Graph& g,
                  std::vector<core::Amount> edge_capacity,
                  PacketSimConfig config = {});

  /// Registers a payment; it enters the network at `req.arrival`.
  /// Arrivals must be non-decreasing across calls (throws
  /// std::invalid_argument otherwise), so the returned payment id is
  /// the submission index. Call before run().
  core::PaymentId submit(const core::PaymentRequest& req);

  /// Runs the submitted payments to end_time and reports metrics: a
  /// service run (below) whose source walks the submissions in order,
  /// retiring resolved payments every few simulated seconds.
  Metrics run();

  // --- service mode (DESIGN.md §13) --------------------------------
  // Every run pulls arrivals one at a time: each kArrival dispatch
  // first pulls the source's next transaction (scheduling it as a
  // typed event) and then admits the current one, so the pull points
  // -- and therefore every sequence number -- are a function of the
  // event sequence alone. run_service_until() chunking, metric-window
  // boundaries, retirement and snapshot points cannot perturb the
  // event order, which is what makes replay-based snapshot/restore
  // byte-identical. A long-running caller calls start_service() with
  // its own source instead of submit() + run().

  /// Pulls the next arrival, or nullopt when the stream is exhausted.
  /// Arrival times must be non-decreasing across calls (the stream
  /// contract); a source returning an arrival past end_time ends the
  /// stream.
  using ArrivalSource = std::optional<core::PaymentRequest> (*)(void* ctx);

  /// Enters service mode: arms the auditor/fault plan/sweeps exactly as
  /// run() does, then primes the first pull. Mutually exclusive with
  /// run() and submit(). `ctx` must outlive the service run.
  void start_service(ArrivalSource source, void* ctx);

  /// Advances the simulation to min(t, end_time). Resumable: call as
  /// many times as the driver's window/snapshot schedule needs.
  void run_service_until(TimePoint t);

  /// Retires every live payment whose outcome is final (all units
  /// confirmed or abandoned): classifies it into the metrics, frees its
  /// transport record and unit-handle row (after finish_service(), which
  /// already classified it, it only frees). Call at deterministic points
  /// only (window boundaries); returns how many were retired.
  std::size_t retire_resolved();

  /// Runs to end_time, finishes the auditor, classifies the unresolved
  /// remainder, and returns the final metrics. Idempotent.
  const Metrics& finish_service();

  /// Cumulative metrics so far (valid any time in service mode; final
  /// classification counters only move at retire/finish points).
  [[nodiscard]] const Metrics& metrics() const { return metrics_; }

  /// Payments admitted so far (== the stream's consumed transactions).
  [[nodiscard]] std::uint64_t txns_streamed() const {
    return metrics_.attempted;
  }
  /// Live (admitted, not yet retired) payments right now / at peak.
  [[nodiscard]] std::size_t live_payments() const { return live_.size(); }
  [[nodiscard]] std::size_t peak_live_payments() const { return peak_live_; }

  /// FNV-1a digest of the deterministic simulation state: clock, event
  /// count, key metrics counters, per-edge balances and pending holds,
  /// queue totals, and the engine's queued-event layout. Two byte-
  /// identical runs agree on it at any same-time point; snapshot
  /// restore validates against it.
  [[nodiscard]] std::uint64_t state_checksum() const;
  // ------------------------------------------------------------------

  [[nodiscard]] const core::ChannelNetwork& network() const { return net_; }
  [[nodiscard]] TimePoint now() const { return events_.now(); }
  /// Discrete events executed so far (the unit of events/sec benches).
  [[nodiscard]] std::uint64_t events_processed() const {
    return events_.processed();
  }

  /// Total value sitting in router queues right now. O(1).
  [[nodiscard]] core::Amount queued_amount() const {
    return total_queued_amount_;
  }
  /// Total units sitting in router queues right now. O(1).
  [[nodiscard]] std::size_t queued_units() const {
    return total_queued_units_;
  }
  /// Units waiting in host congestion-control backlogs right now.
  [[nodiscard]] std::size_t backlog_units() const;

  /// Spider-cc per-path AIMD windows of (src, dst), in candidate-path
  /// order; empty when the pair has no congestion-control state yet or
  /// the mode is not kSpiderCc. Exposed for tests and telemetry.
  [[nodiscard]] std::vector<double> cc_windows(core::NodeId src,
                                               core::NodeId dst) const;

 private:
  /// One in-flight transaction unit; lives in the `units_` slab, keyed
  /// by slab handle (the TxUnitId -> handle map is `payment_units_`).
  struct UnitState {
    core::TxUnit unit;
    const graph::Path* path = nullptr;  // into PairState::paths (stable)
    std::vector<core::HtlcId> htlcs;    // one per completed offer
    std::uint32_t hop = 0;              // next arc index to traverse
    std::uint32_t path_index = 0;       // index of `path` in its PairState
    std::uint32_t pair = 0;             // index of its PairState in pairs_
    bool marked = false;                // one-bit congestion mark (spider-cc)
  };

  /// All per-(src, dst) state: candidate paths, the round-robin cursor,
  /// and the congestion-control window + backlog. Lives in the `pairs_`
  /// deque (stable addresses), found through `pair_rows_`.
  struct PairState {
    std::vector<graph::Path> paths;  // edge-disjoint candidates
    bool paths_init = false;
    std::size_t rr = 0;  // round-robin cursor over `paths`
    // Congestion control (initialised on first submitted unit).
    bool cc_init = false;
    double window = 0.0;         // kFailureWindow: one shared window
    std::size_t outstanding = 0;
    // kSpiderCc: per-path AIMD windows, parallel to `paths`.
    std::vector<double> win;
    std::vector<std::uint32_t> out;  // per-path outstanding units
    std::vector<core::TxUnit> backlog;  // FIFO via `next` index
    std::size_t next = 0;
    bool draining = false;

    /// Drops the consumed prefix [0, next) once it is at least half the
    /// vector, so a pair whose backlog never empties holds only its
    /// pending units; each unit is moved O(1) times amortized.
    void compact_backlog();
  };
  /// One entry of a source's pair row: destination and pairs_ index.
  struct PairSlot {
    core::NodeId dst;
    std::uint32_t index;
  };

  /// Typed-event sink registered with the EventQueue.
  static void dispatch(void* ctx, EventKind kind, std::uint64_t a,
                       std::uint64_t b);

  /// Shared run()/start_service() start: auditor, fault plan, expiry
  /// sweep, series sampling, then the first pull from `source`.
  void start(ArrivalSource source, void* ctx);
  /// Admits one pulled request under the next payment id (the
  /// admission count), storing it unless run() already did: allocates
  /// its unit row, counts it attempted, and schedules its kArrival.
  void stream_submit(const core::PaymentRequest& req);
  /// Pulls one transaction from the arrival source (nulling it on
  /// exhaustion or past-end arrivals) and admits it.
  void pull_next_arrival();
  /// Final classification of payment `pid` (succeeded/partial/failed).
  /// Each payment is classified once: by the retire_resolved() call
  /// that retires it, or by finish_service() if it is still live then.
  void classify_payment(core::PaymentId pid);

  /// Index of the (src, dst) PairState in pairs_, created on first
  /// touch. Looked up once per payment; units carry the index.
  [[nodiscard]] std::uint32_t pair_index(core::NodeId src, core::NodeId dst);
  /// First entry of `row` whose destination is not below `dst`.
  static std::vector<PairSlot>::const_iterator find_dst(
      const std::vector<PairSlot>& row, core::NodeId dst);
  /// Fills `ps.paths` on first use: from cfg_.paths when the table
  /// covers the pair, else edge-disjoint shortest paths over the frozen
  /// CSR view through the reusable finder scratch.
  void init_pair_paths(PairState& ps, core::NodeId src, core::NodeId dst);
  /// Handle of an in-flight unit (stale after settle/fail -- the slab's
  /// generation check turns late lookups into no-ops).
  [[nodiscard]] core::SlabHandle handle_of(core::TxUnitId uid) const;

  void arrive(core::PaymentId pid);
  /// Admits a unit of pair `pair` through congestion control (or
  /// directly when disabled).
  void submit_unit(const core::TxUnit& unit, std::uint32_t pair);
  void launch_unit(const core::TxUnit& unit, std::uint32_t pair);
  /// Called when a unit leaves the network (settled or failed); updates
  /// the AIMD window state and drains the backlog.
  void unit_left(std::uint32_t pair, std::uint32_t path_index, bool success,
                 bool marked);
  /// kFailureWindow flavour of unit_left (pre-spider-cc semantics).
  void cc_unit_left(std::uint32_t pair, bool success);
  // --- spider-cc (kSpiderCc) ---------------------------------------
  /// Window-gated admission: lazily builds the pair's candidate paths
  /// and per-path windows, then launches onto the path with the most
  /// window headroom or parks the unit in the host backlog.
  void spider_submit(const core::TxUnit& unit, std::uint32_t pair);
  /// Window-gated widest path pick; kPathsBlocked when every candidate
  /// is fault-blocked, kWindowsFull when live paths exist but no window
  /// has room.
  static constexpr std::size_t kPathsBlocked = static_cast<std::size_t>(-1);
  static constexpr std::size_t kWindowsFull = static_cast<std::size_t>(-2);
  [[nodiscard]] std::size_t spider_pick_path(const PairState& ps);
  /// AIMD update for path `path_index` + backlog drain.
  void spider_unit_left(std::uint32_t pair, std::uint32_t path_index,
                        bool success, bool marked);
  // ------------------------------------------------------------------
  /// Slab acquisition + first hop shared by every launch flavour.
  void start_unit(const core::TxUnit& unit, std::uint32_t pair,
                  const graph::Path* path, std::uint32_t path_index);
  /// Chosen candidate path of `ps` for this unit; nullptr when no path
  /// exists.
  const graph::Path* select_path(PairState& ps, const core::TxUnit& unit);
  /// Tries to lock the next hop; queues at the router on dry channels.
  /// `queue_delay` is the time the unit just spent waiting in this
  /// hop's router queue (0 on a pass-through) -- the sample feeding the
  /// router's one-bit marking estimator under spider-cc.
  void advance(core::SlabHandle h, TimePoint queue_delay = 0.0);
  void reach_next_hop(core::SlabHandle h);
  void unit_reached_destination(core::SlabHandle h);
  /// The receiver's confirmation reached the sender.
  void ack_unit(core::SlabHandle h);
  void settle_unit(core::TxUnitId uid, core::Preimage key);
  /// `retryable` marks failures that came from the spider-cc per-launch
  /// timeout: the unit refunds its locks and goes back to the host
  /// backlog (fresh timeout on relaunch) instead of being abandoned.
  void fail_unit(core::TxUnitId uid, bool retryable = false);
  void service_arc(graph::ArcId a);
  void sweep_expired();
  void sample_series();
  /// Fires a kFaultStart event: flips injector state, schedules the
  /// matching kFaultEnd, and applies the immediate consequences.
  void apply_fault(std::size_t index);
  /// Fires a kFaultEnd event (payload = FaultInjector::pack_end word).
  void end_fault(std::uint64_t word);
  /// Drains a freshly-down node's router queues through the expiry
  /// failure path (paper: a crashed router answers nothing, so its
  /// queued units' upstream locks time out and refund).
  void fail_node_queues(core::NodeId v);
  /// Mid-run unilateral close of edge `e` (chain::lifecycle semantics):
  /// every unit holding or waiting on the channel fails, refunding the
  /// offerers; edge_closed() gates any new offers.
  void close_channel(graph::EdgeId e);
  /// Fails one fault-affected unit, first removing its router-queue
  /// entry (if any) so no ghost entry can block a queue head.
  void fault_kill_unit(core::SlabHandle h);
  /// Starts a jamming spell (plan entry `index`): locks the configured
  /// fraction of each side's spendable balance in attacker HTLCs.
  void start_jam(std::size_t index);
  /// Ends a jamming spell: fails the batch's HTLCs (refunding the
  /// attacker) and services both arcs. Exactly-once per batch -- the
  /// spell's own kFaultEnd and a mid-spell channel close both route
  /// here.
  void release_jam(std::size_t batch_index);
  /// Arms the auditor (sim_steps.hpp attach_auditor) plus the packet-sim
  /// specific check (router queue counters vs running totals).
  void arm_auditor();
  /// Recounts every router queue and compares against the O(1) running
  /// counters; returns a diagnosis on mismatch.
  [[nodiscard]] std::optional<std::string> audit_queue_counters() const;

  const graph::Graph& graph_;
  /// Reusable path-query scratch (single-threaded event loop: one is
  /// enough).
  graph::PathFinder finder_;
  std::vector<core::Amount> capacity_;
  core::ChannelNetwork net_;
  PacketSimConfig cfg_;
  faults::FaultInjector* faults_;  // == cfg_.faults (hot-path alias)
  /// Frozen per-side channel state backing routing decisions during a
  /// probe-staleness spike; null when signals are fresh.
  std::unique_ptr<core::ChannelNetwork> stale_net_;

  EventQueue events_;
  std::vector<core::PaymentRequest> requests_;
  /// Per node, built by arrive() on the node's first payment: most
  /// nodes of a large topology never send, and an empty Transport is
  /// ~2.6 KB (mostly its 2.5 KB key RNG), growing with the payments it
  /// holds. Every other access follows a begin_payment.
  std::vector<std::unique_ptr<core::Transport>> transports_;
  std::vector<core::Router> routers_;  // per node

  core::Slab<UnitState> units_;  // in-flight units
  /// payment_units_[pid][seq] = packed slab handle of that unit (0 when
  /// never launched; stale once the unit left the network).
  std::vector<std::vector<std::uint64_t>> payment_units_;
  /// arc_local_[a] = index of arc `a` in tail(a)'s out-arc list.
  std::vector<std::uint32_t> arc_local_;
  /// pair_rows_[src] = the source's touched pairs, sorted by dst: a
  /// row grows with the destinations the source pays, not with the
  /// node count. pairs_ indices are assigned in first-touch order.
  std::vector<std::vector<PairSlot>> pair_rows_;
  std::deque<PairState> pairs_;  // deque: stable addresses for paths

  // O(1) running totals over all router queues.
  std::size_t total_queued_units_ = 0;
  core::Amount total_queued_amount_ = 0;
  /// Value this simulator believes is locked in live HTLC holds
  /// (+amount per offered hop, -amount per settled/failed hop); the
  /// auditor cross-checks it against the channels' pending totals.
  core::Amount held_amount_ = 0;

  Metrics metrics_;

  // --- service mode -------------------------------------------------
  bool ran_ = false;  // run() or start_service() was called
  bool finished_service_ = false;
  ArrivalSource arrival_source_ = nullptr;
  void* arrival_ctx_ = nullptr;
  /// Admitted, not-yet-retired payment ids (compacted in place by
  /// retire_resolved; order is admission order, deterministic).
  std::vector<core::PaymentId> live_;
  std::size_t peak_live_ = 0;

  /// One active jamming spell's locks. Batches append in apply order,
  /// are scanned linearly (active spell counts are small), and are
  /// erased on release -- erasure is what makes the end-of-spell /
  /// mid-spell-channel-close release exactly-once.
  struct JamBatch {
    std::size_t plan_index = 0;
    graph::EdgeId edge = 0;
    std::vector<std::pair<core::HtlcId, core::Amount>> holds;
  };
  std::vector<JamBatch> jam_batches_;
};

}  // namespace spider::sim
