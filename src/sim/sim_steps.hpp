#pragma once
// Steps the flow and packet simulators perform identically, each
// defined once: request admission, fault-plan start-up, the invariant
// auditor's event hook, the probe-staleness snapshot and the final
// per-payment outcome tally.

#include <cstddef>
#include <memory>

#include "core/network.hpp"
#include "core/types.hpp"
#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"

namespace spider::faults {
class FaultInjector;  // faults/injector.hpp
}

namespace spider::sim {

class InvariantAuditor;  // sim/audit.hpp

/// Throws std::invalid_argument unless `req` joins two distinct nodes
/// of a `node_count`-node graph with a positive amount and a finite
/// arrival time.
void check_request(const core::PaymentRequest& req, std::size_t node_count);

/// Binds `faults` to `g` and schedules one kFaultStart event (payload =
/// plan index) per plan entry due by `end_time`. An empty plan
/// schedules nothing, so the event sequence -- and therefore every
/// metric bit -- matches a run without the injector.
void schedule_fault_plan(faults::FaultInjector& faults, const graph::Graph& g,
                         TimePoint end_time, EventQueue& events);

/// Attaches `auditor` to `net`, has it cross-check `held` (the
/// simulator's own count of value locked in flight) and drives it from
/// `events`' post-event hook. `held` must outlive the run.
void attach_auditor(InvariantAuditor& auditor,
                    const core::ChannelNetwork& net, const core::Amount& held,
                    EventQueue& events);

/// The frozen view of a probe-staleness spike: a network whose
/// per-side deposits are `net`'s spendable + pending funds, i.e. what
/// each side commands once in-flight holds resolve. Each edge's escrow
/// is positive, so every channel of the copy is valid even when one
/// side is drained.
[[nodiscard]] std::unique_ptr<core::ChannelNetwork> stale_snapshot(
    const core::ChannelNetwork& net);

/// Counts one attempted payment of `amount` that delivered `delivered`
/// by the end of the run: succeeded, partial or failed.
void record_outcome(Metrics& m, core::Amount amount, core::Amount delivered);

}  // namespace spider::sim
