#pragma once
// Deterministic parallel experiment runner. A sweep is a list of
// independent trials (scheme x topology x seed); the runner fans them
// out over threads that live only for one for_each call. Every trial
// derives its own RNG seed from (base_seed, index) via derive_seed(),
// each worker writes only its own result slot, and results come back in
// trial-index order -- so a sweep's output is bit-identical whether it
// ran on 1 thread or 16, in any execution order.
//
// Concurrency contract (DESIGN.md §11): threads exist only inside one
// for_each call and share only its atomic work cursor and their own
// failure slots; there is no mutex. Callbacks must be chunk-pure -- a
// callback may read shared immutable state and write only through its
// own index.

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

namespace spider::exp {

/// Mixes a base seed and a trial index into an independent 64-bit seed
/// (splitmix64 finalizer). Pure function: the same (base, index) always
/// yields the same seed, and distinct indices yield well-separated
/// streams.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base_seed,
                                        std::uint64_t trial_index);

class Runner {
 public:
  /// `threads` = 0 picks std::thread::hardware_concurrency(). No thread
  /// starts here: each for_each call starts its own.
  explicit Runner(std::size_t threads = 0);

  [[nodiscard]] std::size_t threads() const { return threads_; }

  /// Calls fn(i) exactly once for every i in [0, count), on the calling
  /// thread plus min(threads(), count) - 1 threads started for this
  /// call, and joins them before returning. A throwing call does not
  /// stop the others; afterwards the exception of the lowest failing
  /// index is rethrown, so the error is the same at any thread count.
  /// fn may itself call for_each (on this runner or another): nothing
  /// is shared between calls.
  void for_each(std::size_t count,
                const std::function<void(std::size_t)>& fn) const;

  /// Parallel map: returns {fn(0), fn(1), ..., fn(count-1)} in index
  /// order regardless of which thread ran which index.
  template <typename Fn>
  auto map(std::size_t count, Fn&& fn) const {
    using T = decltype(fn(std::size_t{0}));
    std::vector<std::optional<T>> slots(count);
    for_each(count, [&](std::size_t i) { slots[i].emplace(fn(i)); });
    std::vector<T> out;
    out.reserve(count);
    for (auto& s : slots) out.push_back(std::move(*s));
    return out;
  }

 private:
  std::size_t threads_;
};

}  // namespace spider::exp
