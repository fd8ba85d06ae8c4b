#include "sim/audit.hpp"

#include <sstream>
#include <vector>

namespace spider::sim {

std::string AuditViolation::to_string() const {
  std::ostringstream os;
  os << "audit violation [" << check << "] at t=" << time << " event "
     << event_index << ": " << detail;
  return os.str();
}

void InvariantAuditor::attach_network(const core::ChannelNetwork& net) {
  net_ = &net;
  endowment_ = net.total_funds();
  external_deposits_ = 0;
  last_time_ = 0;
  next_check_ =
      cfg_.check_every_events == 0 ? ~std::uint64_t{0} : cfg_.check_every_events;
  finished_ = false;
}

void InvariantAuditor::add_check(std::string name, Check fn) {
  checks_.emplace_back(std::move(name), std::move(fn));
}

void InvariantAuditor::record(const std::string& check, std::string detail,
                              TimePoint now,
                              std::uint64_t events_processed) {
  if (violations_.size() >= cfg_.max_violations) return;
  AuditViolation v{check, std::move(detail), now, events_processed};
  if (cfg_.throw_on_violation) throw AuditFailure(v);
  violations_.push_back(std::move(v));
}

void InvariantAuditor::run_checks(TimePoint now,
                                  std::uint64_t events_processed) {
  ++checks_run_;

  // Monotone event time: the clock must never run backwards.
  if (now < last_time_) {
    std::ostringstream os;
    os << "event time moved backwards: " << last_time_ << " -> " << now;
    record("monotone-time", os.str(), now, events_processed);
  }
  last_time_ = now;

  if (net_ != nullptr) {
    // Per-channel conservation: balance(A) + balance(B) + pending holds
    // must equal each channel's escrow total.
    const graph::Graph& g = net_->graph();
    core::Amount total = 0;
    core::Amount pending = 0;
    for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
      const core::Channel& c = net_->channel(e);
      if (!c.conserves_funds()) {
        std::ostringstream os;
        os << "channel " << e << " violates balance+pending==total: "
           << c.balance(core::Side::kA) << "+" << c.balance(core::Side::kB)
           << "+" << c.pending(core::Side::kA) << "+"
           << c.pending(core::Side::kB) << " != " << c.total();
        record("conservation", os.str(), now, events_processed);
      }
      total += c.total();
      pending += c.pending(core::Side::kA) + c.pending(core::Side::kB);
    }

    // Endowment conservation: escrow only grows through recorded
    // on-chain deposits; anything else minted or destroyed value.
    const core::Amount expected = endowment_ + external_deposits_;
    if (total != expected) {
      std::ostringstream os;
      os << "network escrow " << total << " != initial endowment "
         << endowment_ << " + recorded deposits " << external_deposits_;
      record("conservation", os.str(), now, events_processed);
    }

    // Claimed in-flight holds: the simulator's accounting of value it
    // locked must match the channels' pending totals. A mismatch means
    // an HTLC hold leaked (unit freed without settle/fail) or was
    // double-released.
    if (claimed_holds_) {
      const core::Amount claimed = claimed_holds_();
      if (claimed != pending) {
        std::ostringstream os;
        os << "simulator claims " << claimed
           << " in-flight hold value, channels hold " << pending;
        record("htlc-holds", os.str(), now, events_processed);
      }
    }
  }

  for (const auto& [name, fn] : checks_) {
    if (std::optional<std::string> detail = fn()) {
      record(name, std::move(*detail), now, events_processed);
    }
  }
}

std::optional<std::string> audit_htlc_book(const core::ChannelNetwork& net) {
  const graph::Graph& g = net.graph();
  std::vector<core::Amount> held(2 * g.edge_count(), 0);
  net.htlc_book().for_each([&held](core::SlabHandle, const core::Htlc& h) {
    held[h.arc] += h.amount;
  });
  std::size_t inflight = 0;
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
    const core::Channel& c = net.channel(e);
    inflight += c.inflight_count();
    for (const core::Side side : {core::Side::kA, core::Side::kB}) {
      const core::Amount booked = held[2 * e + static_cast<unsigned>(side)];
      if (booked != c.pending(side)) {
        std::ostringstream os;
        os << "edge " << e << " side " << static_cast<int>(side)
           << ": book holds " << booked << ", channel pending "
           << c.pending(side);
        return os.str();
      }
    }
  }
  if (inflight != net.htlc_book().live()) {
    std::ostringstream os;
    os << "book has " << net.htlc_book().live()
       << " live HTLCs, channels count " << inflight << " in flight";
    return os.str();
  }
  return std::nullopt;
}

std::string InvariantAuditor::summary() const {
  std::ostringstream os;
  os << "audit: " << checks_run_ << " pass(es), ";
  if (violations_.empty()) {
    os << "clean";
    return os.str();
  }
  os << violations_.size() << " violation(s)";
  const std::size_t show = violations_.size() < 3 ? violations_.size() : 3;
  for (std::size_t i = 0; i < show; ++i) {
    os << "\n  " << violations_[i].to_string();
  }
  if (violations_.size() > show) {
    os << "\n  ... " << (violations_.size() - show) << " more";
  }
  return os.str();
}

}  // namespace spider::sim
