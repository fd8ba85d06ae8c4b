#include "sim/sim_steps.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "faults/injector.hpp"
#include "sim/audit.hpp"

namespace spider::sim {

void check_request(const core::PaymentRequest& req, std::size_t node_count) {
  if (req.src >= node_count || req.dst >= node_count || req.src == req.dst ||
      req.amount <= 0 || !std::isfinite(req.arrival)) {
    throw std::invalid_argument("malformed payment request");
  }
}

void schedule_fault_plan(faults::FaultInjector& faults, const graph::Graph& g,
                         TimePoint end_time, EventQueue& events) {
  faults.bind(g);
  const std::vector<faults::FaultEvent>& plan = faults.plan().events();
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (plan[i].time > end_time) continue;
    events.schedule_typed(plan[i].time, EventKind::kFaultStart, i);
  }
}

void attach_auditor(InvariantAuditor& auditor,
                    const core::ChannelNetwork& net, const core::Amount& held,
                    EventQueue& events) {
  auditor.attach_network(net);
  auditor.set_claimed_holds_provider([&held] { return held; });
  auditor.add_check("htlc-book", [&net] { return audit_htlc_book(net); });
  events.set_post_event_hook(
      [](void* ctx, TimePoint now, std::uint64_t processed) {
        static_cast<InvariantAuditor*>(ctx)->on_event(now, processed);
      },
      &auditor);
}

std::unique_ptr<core::ChannelNetwork> stale_snapshot(
    core::ChannelNetwork& net) {
  const graph::Graph& g = net.graph();
  std::vector<std::pair<core::Amount, core::Amount>> deposits;
  deposits.reserve(g.edge_count());
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
    const core::Channel& ch = net.channel(e);
    deposits.emplace_back(
        ch.balance(core::Side::kA) + ch.pending(core::Side::kA),
        ch.balance(core::Side::kB) + ch.pending(core::Side::kB));
  }
  auto snapshot = std::make_unique<core::ChannelNetwork>(g, deposits);
  // Dry-pair memos key on the raise epoch alone, so the snapshot must
  // show one no other view ever shows: it takes live + 1 and the live
  // network jumps past it.
  snapshot->advance_raise_epoch(net.raise_epoch() + 1);
  net.advance_raise_epoch(net.raise_epoch() + 2);
  return snapshot;
}

void record_outcome(Metrics& m, core::Amount amount, core::Amount delivered) {
  if (delivered == amount) {
    ++m.succeeded;
    m.completed_volume += amount;
  } else if (delivered > 0) {
    ++m.partial;
  } else {
    ++m.failed;
  }
}

}  // namespace spider::sim
