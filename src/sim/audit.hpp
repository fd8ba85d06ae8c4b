#pragma once
// Runtime invariant auditor for the simulators.
//
// The experimental pipeline rests on two contracts that no unit test
// can watch continuously: value is conserved (paper eqs. 1-5 assume
// flows never create or destroy funds; Prop. 1's circulation bound is
// meaningless otherwise) and event time only moves forward. The
// InvariantAuditor turns those contracts into checks that run every N
// processed events and once at teardown, against the live simulator
// state:
//
//  * conservation -- sum over channels of (balances + pending HTLC
//    holds) equals the initial escrow endowment plus recorded on-chain
//    deposits; per-channel conservation (Channel::conserves_funds)
//    holds for every edge.
//  * claimed holds -- the simulator's own accounting of value it
//    believes is locked in flight matches the channels' pending totals
//    (catches leaked or double-released HTLC holds).
//  * monotone time -- the event clock never runs backwards.
//  * simulator-registered checks -- e.g. the HTLC book (audit_htlc_book,
//    registered by sim_steps.hpp attach_auditor for both simulators) and
//    the packet simulator's Router::queued_units running counters vs
//    the actual queue sizes.
//
// Opt-in and observation-only: an auditor is attached through
// PacketSimConfig/FlowSimConfig::auditor and fires from the EventQueue's
// post-event hook; with no auditor attached the hook is a single
// predictable branch per event. Violations are collected (and optionally
// thrown) but the auditor never mutates simulation state, so an audited
// run's metrics are byte-identical to an unaudited one.

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/network.hpp"
#include "core/types.hpp"

namespace spider::sim {

using core::TimePoint;

struct AuditViolation {
  std::string check;   // which invariant ("conservation", ...)
  std::string detail;  // human-readable diagnosis
  TimePoint time = 0;  // sim clock when detected
  std::uint64_t event_index = 0;  // events processed when detected

  [[nodiscard]] std::string to_string() const;
};

struct AuditConfig {
  /// Full invariant pass every this many processed events (teardown
  /// always checks). 0 disables periodic checks (teardown only).
  std::uint64_t check_every_events = 4096;
  /// Throw AuditFailure on the first violation instead of collecting.
  bool throw_on_violation = false;
  /// Stop recording after this many violations (the run is already
  /// corrupt; unbounded collection would just thrash memory).
  std::size_t max_violations = 64;
};

/// Thrown when AuditConfig::throw_on_violation is set.
class AuditFailure : public std::logic_error {
 public:
  explicit AuditFailure(const AuditViolation& v)
      : std::logic_error(v.to_string()), violation(v) {}
  AuditViolation violation;
};

/// The network's HTLC book against its channels: the live records,
/// summed per (edge, side), must equal each channel's pending(), and the
/// live count must equal the channels' in-flight counts. Returns the
/// first mismatch, or nullopt. Read-only.
[[nodiscard]] std::optional<std::string> audit_htlc_book(
    const core::ChannelNetwork& net);

class InvariantAuditor {
 public:
  /// A named extra check: returns a violation detail string, or nullopt
  /// when the invariant holds.
  using Check = std::function<std::optional<std::string>()>;

  explicit InvariantAuditor(AuditConfig cfg = {}) : cfg_(cfg) {}

  /// Binds the auditor to a network and records its current total
  /// escrow as the conservation baseline. The network must outlive the
  /// auditor's last check. Re-attaching resets baseline and bookkeeping
  /// but keeps recorded violations.
  void attach_network(const core::ChannelNetwork& net);

  /// Records escrow legitimately added after attach (on-chain
  /// rebalancing deposits, §5.2.3); conservation expects endowment +
  /// deposits from then on.
  void note_external_deposit(core::Amount amount) {
    external_deposits_ += amount;
  }

  /// The simulator's own claim of how much value it holds in flight
  /// (sum of live HTLC hold amounts). When set, the conservation pass
  /// also cross-checks it against the channels' pending totals.
  void set_claimed_holds_provider(std::function<core::Amount()> fn) {
    claimed_holds_ = std::move(fn);
  }

  /// Registers an extra invariant evaluated on every full pass (queue
  /// counters, slab occupancy, ...).
  void add_check(std::string name, Check fn);

  /// Cheap per-event guard: runs a full pass every
  /// `check_every_events`. Called from the EventQueue post-event hook.
  void on_event(TimePoint now, std::uint64_t events_processed) {
    if (events_processed < next_check_) return;
    run_checks(now, events_processed);
    next_check_ = cfg_.check_every_events == 0
                      ? ~std::uint64_t{0}
                      : events_processed + cfg_.check_every_events;
  }

  /// Runs one full invariant pass immediately.
  void run_checks(TimePoint now, std::uint64_t events_processed);

  /// Teardown pass; call after the simulator's run() returns.
  void finish(TimePoint now, std::uint64_t events_processed) {
    run_checks(now, events_processed);
    finished_ = true;
  }

  [[nodiscard]] bool ok() const { return violations_.empty(); }
  [[nodiscard]] const std::vector<AuditViolation>& violations() const {
    return violations_;
  }
  /// Full passes executed (a clean-run test asserts this is > 0, i.e.
  /// the auditor actually looked).
  [[nodiscard]] std::uint64_t checks_run() const { return checks_run_; }
  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] core::Amount endowment() const { return endowment_; }

  /// One-line report: "audit: N checks, clean" or the first violations.
  [[nodiscard]] std::string summary() const;

 private:
  void record(const std::string& check, std::string detail, TimePoint now,
              std::uint64_t events_processed);

  AuditConfig cfg_;
  const core::ChannelNetwork* net_ = nullptr;
  core::Amount endowment_ = 0;
  core::Amount external_deposits_ = 0;
  std::function<core::Amount()> claimed_holds_;
  std::vector<std::pair<std::string, Check>> checks_;
  std::vector<AuditViolation> violations_;
  std::uint64_t next_check_ = 0;
  std::uint64_t checks_run_ = 0;
  TimePoint last_time_ = 0;
  bool finished_ = false;
};

}  // namespace spider::sim
