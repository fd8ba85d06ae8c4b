#pragma once
// Flow-level payment-channel-network simulator reproducing the paper's
// evaluation semantics (§6.1):
//  * arriving payments are routed by a pluggable scheme as long as funds
//    are available on the chosen paths;
//  * routed funds are held in flight for `delta` (0.5 s) and unavailable
//    to every party along the path, then released at the far side;
//  * non-atomic payments live in a global queue of incomplete payments
//    that is periodically polled and scheduled (SRPT by default [8]);
//  * atomic schemes get one all-or-nothing attempt per payment.
//
// In-network queues and end-host rate control (the architecture of §4)
// are modelled by the separate packet-level simulator; the paper's own
// evaluation explicitly defers them, and Fig. 6/7 use these flow
// semantics.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/fees.hpp"
#include "core/network.hpp"
#include "core/scheduler.hpp"
#include "core/slab.hpp"
#include "core/types.hpp"
#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"
#include "sim/scheme.hpp"

namespace spider::faults {
class FaultInjector;  // faults/injector.hpp
}

namespace spider::sim {

class InvariantAuditor;  // sim/audit.hpp

struct FlowSimConfig {
  /// Simulation horizon; results are collected at this time (paper: 200 s
  /// for the ISP topology, 85 s for Ripple). It, `delta` and
  /// `poll_interval` must be positive and finite.
  TimePoint end_time = 200.0;
  /// In-flight delay before routed funds become available (paper: 0.5 s).
  TimePoint delta = 0.5;
  /// Global incomplete-payment queue polling period.
  TimePoint poll_interval = 0.2;
  /// Scheduling policy for the retry queue (paper: SRPT).
  core::SchedulingPolicy retry_policy = core::SchedulingPolicy::kSrpt;
  /// Max payments re-attempted per poll (0 = unbounded). Bounds the cost
  /// of very long queues; SRPT order decides who gets the budget.
  std::size_t max_retries_per_poll = 0;
  /// Collect telemetry time series into the metrics: delivered volume
  /// per bucket, plus per-channel imbalance and retry-queue depth
  /// sampled every `series_bucket` seconds.
  bool collect_series = false;
  double series_bucket = 5.0;

  /// On-chain rebalancing (operationalizes §5.2.3): every
  /// `rebalance_interval` seconds, any channel side whose spendable
  /// balance fell below `rebalance_threshold` of its half of the escrow
  /// deposits funds on-chain to restore the 50/50 split. Each deposit is
  /// counted (with its confirmation delay modelled by becoming available
  /// only `rebalance_delay` later) so throughput gains can be weighed
  /// against on-chain cost, as the gamma objective (eq. 6) prescribes.
  bool enable_rebalancing = false;
  double rebalance_threshold = 0.2;
  TimePoint rebalance_interval = 5.0;
  TimePoint rebalance_delay = 1.0;

  /// Routing fees charged by forwarding routers (zero by default, like
  /// the paper's evaluation). When set, senders pay amount + fees, each
  /// intermediate hop keeps its cut on settle, and paths whose cumulative
  /// fees would exceed the payment's `max_fee` are not used.
  core::FeePolicy fee_policy;

  /// Optional runtime invariant auditor (sim/audit.hpp). When set, the
  /// simulator attaches it to its network at run() start, registers the
  /// retry-queue consistency check, reports rebalancing deposits, and
  /// drives it from the event loop. Observation-only: metrics are
  /// byte-identical either way. Must outlive run().
  InvariantAuditor* auditor = nullptr;

  /// Optional fault injector (faults/injector.hpp). When set, the
  /// simulator binds it at run() start and schedules one typed
  /// kFaultStart event per plan entry: payments to/from down nodes wait
  /// with exponential backoff in the retry queue, closed channels
  /// cancel the in-flight routes crossing them (funds refund), schemes
  /// never see fault-blocked paths as live choices, withholding
  /// receivers delay settlement past delta, and staleness spikes freeze
  /// the channel-state view schemes route against. An injector with an
  /// *empty* plan schedules nothing and leaves the run byte-identical
  /// to `faults == nullptr`. Must outlive run().
  faults::FaultInjector* faults = nullptr;
};

class FlowSimulator {
 public:
  /// The graph and scheme must outlive the simulator. Channel funds are
  /// split equally per edge (paper §6.2).
  FlowSimulator(const graph::Graph& g,
                std::vector<core::Amount> edge_capacity,
                RoutingScheme& scheme, FlowSimConfig config = {});

  /// Registers a payment to arrive at `req.arrival` (< end_time to be
  /// attempted). Call before run().
  void add_payment(const PaymentRequest& req);

  /// Runs to `end_time` and returns the metrics. `demand_estimate` is
  /// forwarded to the scheme's prepare() (pass an empty PaymentGraph for
  /// schemes that ignore it). Single-shot: construct a fresh simulator
  /// per run.
  Metrics run(const fluid::PaymentGraph& demand_estimate);

  [[nodiscard]] const core::ChannelNetwork& network() const { return net_; }
  [[nodiscard]] TimePoint now() const { return events_.now(); }

 private:
  struct PaymentState {
    PaymentRequest req;
    core::Amount delivered = 0;
    core::Amount inflight = 0;
    core::Amount fees_paid = 0;  // routing fees committed so far
    bool closed = false;    // atomic attempt finished / deadline passed
    bool enqueued = false;  // sitting in the retry queue
    /// Fault backoff: consecutive fault-blocked attempts (resets on any
    /// successful send) and the earliest poll allowed to retry.
    std::uint32_t backoff_exp = 0;
    TimePoint not_before = 0;
  };

  /// A routed share between send() and its delayed completion. Lives in
  /// the `live_sends_` slab -- reachable mid-flight, so a mid-run
  /// channel closure can cancel it; the kSettle event carries only its
  /// handle.
  struct LiveSend {
    core::RouteLock lock;
    core::Preimage key = 0;
    core::PaymentId pid = 0;
    bool cancelled = false;
  };

  /// Event sink: routes each EventKind to the member that handles it.
  static void dispatch(void* ctx, EventKind kind, std::uint64_t a,
                       std::uint64_t b);

  void attempt(core::PaymentId pid);
  void attempt_atomic(PaymentState& st, core::PaymentId pid,
                      std::vector<RouteChoice> choices);
  void attempt_non_atomic(PaymentState& st, core::PaymentId pid,
                          std::vector<RouteChoice> choices);
  void send(core::PaymentId pid, core::Amount amt, core::RouteLock&& lock,
            core::Preimage key);
  void complete(core::SlabHandle h);
  void poll();
  /// Fires a kFaultStart event; see PacketSimulator for the protocol.
  void apply_fault(std::size_t index);
  void end_fault(std::uint64_t word);
  /// Mid-run unilateral close of edge `e`: cancels every live in-flight
  /// route crossing it (locks fail, funds refund; chain/lifecycle.hpp
  /// semantics) and re-queues the surviving non-atomic remainders.
  void close_channel(graph::EdgeId e);
  /// Applies exponential backoff after a fault-blocked attempt.
  void fault_backoff(PaymentState& st);
  void rebalance_sweep();
  /// A rebalancing deposit confirms on-chain: `amount` becomes
  /// spendable on `side` of edge `e`.
  void deposit(graph::EdgeId e, core::Side side, core::Amount amount);
  void enqueue_retry(core::PaymentId pid);
  void record_series(core::Amount amount);
  void sample_series();
  /// Arms the auditor (sim_steps.hpp attach_auditor) plus the flow-sim
  /// specific retry-queue consistency check.
  void arm_auditor();

  const graph::Graph& graph_;
  std::vector<core::Amount> capacity_;
  core::ChannelNetwork net_;
  RoutingScheme& scheme_;
  FlowSimConfig cfg_;

  faults::FaultInjector* faults_;  // == cfg_.faults (hot-path alias)
  /// Frozen per-side channel state backing scheme routing during a
  /// probe-staleness spike; null when signals are fresh.
  std::unique_ptr<core::ChannelNetwork> stale_net_;

  EventQueue events_;
  std::vector<PaymentState> payments_;
  core::Slab<LiveSend> live_sends_;  // in-flight shares awaiting delta
  core::RetryRun retry_queue_;
  core::Preimage next_key_ = 1;
  /// Value this simulator believes is locked in live route locks (sum
  /// of RouteLock::total_held between send and complete); the auditor
  /// cross-checks it against the channels' pending totals.
  core::Amount held_amount_ = 0;
  Metrics metrics_;
  bool ran_ = false;
};

}  // namespace spider::sim
