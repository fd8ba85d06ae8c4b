#pragma once
// Transaction-unit scheduling (paper §4.2, §6.1).
//
// Spider routers queue transaction units when channel funds run dry and
// service the queue as funds return (UnitQueue); hosts schedule
// incomplete payments from a global retry queue (RetryRun). Both serve
// in one policy order (PolicyOrder). The paper's evaluation schedules
// by *shortest remaining processing time* (SRPT): smallest incomplete
// payment amount first [8].

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/types.hpp"

namespace spider::core {

enum class SchedulingPolicy : std::uint8_t {
  kFifo,  // first in, first out (arrival order)
  kLifo,  // last in, first out
  kSrpt,  // shortest remaining payment amount first (paper default)
  kEdf,   // earliest deadline first
};

[[nodiscard]] std::string to_string(SchedulingPolicy p);

/// A schedulable work item: one transaction unit (router queues) or one
/// incomplete payment (host retry queue; then `unit.seq` is unused).
struct QueuedUnit {
  TxUnitId unit;
  Amount amount = 0;             // value carried by this item
  Amount remaining_payment = 0;  // SRPT key: payment's incomplete amount
  TimePoint enqueued = 0;
  TimePoint deadline = kNever;
};

/// The priority order of a scheduling policy: `(*this)(a, b)` == "a is
/// served before b". Ties break by (payment, seq), so it is a strict
/// total order over distinct units and the serving sequence never
/// depends on a container's layout. The one definition of policy order:
/// UnitQueue and RetryRun both use it. Defined inline so the heap and
/// merge algorithms inline it (millions of comparisons per simulated
/// second).
struct PolicyOrder {
  SchedulingPolicy policy;
  bool operator()(const QueuedUnit& a, const QueuedUnit& b) const {
    switch (policy) {
      case SchedulingPolicy::kFifo:
        if (a.enqueued != b.enqueued) return a.enqueued < b.enqueued;
        break;
      case SchedulingPolicy::kLifo:
        if (a.enqueued != b.enqueued) return a.enqueued > b.enqueued;
        break;
      case SchedulingPolicy::kSrpt:
        if (a.remaining_payment != b.remaining_payment) {
          return a.remaining_payment < b.remaining_payment;
        }
        break;
      case SchedulingPolicy::kEdf:
        if (a.deadline != b.deadline) return a.deadline < b.deadline;
        break;
    }
    return a.unit < b.unit;  // deterministic tie-break
  }
};

/// Priority queue over QueuedUnits in PolicyOrder. Backed by a binary
/// heap in a vector: zero allocation per push (a red-black tree node
/// each, in a former life) and contiguous scans for drop_expired.
class UnitQueue {
 public:
  explicit UnitQueue(SchedulingPolicy policy);

  void push(const QueuedUnit& u);

  /// Removes and returns the highest-priority item (nullopt when empty).
  std::optional<QueuedUnit> pop();

  /// Highest-priority item without removing it.
  [[nodiscard]] const QueuedUnit* peek() const;

  /// Removes a specific unit (e.g. proactively cancelled in-flight units,
  /// §4.1). Returns true if found.
  bool erase(TxUnitId unit);

  /// Updates the SRPT key of all items of `payment` (progress was made
  /// elsewhere). No-op for other policies' ordering keys.
  void update_remaining(PaymentId payment, Amount remaining);

  /// Removes every item whose deadline is < `now` and appends them to
  /// `expired` in priority order. O(1) when nothing can have expired (a
  /// conservative minimum deadline is tracked across pushes); a full
  /// scan only runs otherwise.
  void drop_expired(TimePoint now, std::vector<QueuedUnit>& expired);

  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }

  /// Total value queued (sum of item amounts). O(1).
  [[nodiscard]] Amount total_amount() const { return total_amount_; }

  [[nodiscard]] SchedulingPolicy policy() const { return policy_; }

 private:
  /// Heap comparator for std::*_heap (max-heap of "fires later" ==
  /// min-heap of priority).
  struct Later {
    PolicyOrder order;
    bool operator()(const QueuedUnit& a, const QueuedUnit& b) const {
      return order(b, a);
    }
  };

  [[nodiscard]] Later later() const { return Later{PolicyOrder{policy_}}; }

  SchedulingPolicy policy_;
  std::vector<QueuedUnit> items_;  // binary heap via std::*_heap
  Amount total_amount_ = 0;
  /// Lower bound on the smallest deadline queued; pushes tighten it,
  /// removals leave it conservative, drop_expired scans recompute it.
  TimePoint min_deadline_ = kNever;
};

/// The host's global queue of incomplete payments (paper §6.1), served
/// in polls: each poll takes the first `budget` items in PolicyOrder as
/// its batch, attempts them, and puts the incomplete ones back. Most go
/// back with an unchanged key (a dry retry does not move SRPT's
/// remaining amount), so instead of popping and re-pushing every one
/// through a heap the run keeps its items in a vector sorted by
/// PolicyOrder and walks the batch in place:
///  * a batch item re-queued with an equivalent key stays where it is;
///  * re-keyed items and items pushed between polls wait in a side list,
///    sorted and merged into the run in one linear pass when the next
///    poll begins.
/// Every batch is exactly the one a UnitQueue would yield when the batch
/// is popped at the start of the poll and re-pushed during it.
///
/// One poll: `begin_poll(budget)` returns the batch; call `serve(i)`
/// before working on batch item i (in order); a `push()` of the served
/// item's unit re-queues it; `end_poll()` drops the batch items that
/// were not re-queued.
class RetryRun {
 public:
  explicit RetryRun(SchedulingPolicy policy) : order_{policy} {}

  /// Queues `u`. Each unit may be queued at most once at a time.
  void push(const QueuedUnit& u);

  /// Starts a poll: merges the items pushed since the last poll into
  /// the run, then takes the first min(budget, size()) items in policy
  /// order (all of them when `budget` is 0) out of the queue as the
  /// batch. The span stays valid until end_poll(); item i may be
  /// overwritten once serve(i + 1) is called.
  std::span<const QueuedUnit> begin_poll(std::size_t budget);

  /// Marks batch item `i` as the one being served: until the next
  /// serve() or end_poll(), a push() of its unit re-queues it.
  void serve(std::size_t i) { serving_ = i; }

  /// Ends the poll: batch items that were not re-queued leave the run.
  void end_poll();

  /// Items queued, the batch excluded while a poll is open.
  [[nodiscard]] std::size_t size() const {
    return kept_ + (run_.size() - batch_) + pushed_.size();
  }

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};

  PolicyOrder order_;
  /// Sorted by order_. During a poll, [0, batch_) is the batch, of which
  /// the re-queued items are compacted into [0, kept_).
  std::vector<QueuedUnit> run_;
  std::vector<QueuedUnit> pushed_;  // unsorted; merged at begin_poll()
  std::size_t batch_ = 0;
  std::size_t kept_ = 0;
  std::size_t serving_ = kNone;
};

}  // namespace spider::core
