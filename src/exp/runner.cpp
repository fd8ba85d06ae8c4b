#include "exp/runner.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <limits>
#include <thread>

namespace spider::exp {

std::uint64_t derive_seed(std::uint64_t base_seed,
                          std::uint64_t trial_index) {
  // splitmix64: advance the state by the golden-gamma-scaled index, then
  // finalize. Never returns 0 twice for distinct inputs in practice.
  std::uint64_t z = base_seed + (trial_index + 1) * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Runner::Runner(std::size_t threads) : threads_(threads) {
  if (threads_ == 0) {
    threads_ = std::thread::hardware_concurrency();
    if (threads_ == 0) threads_ = 1;
  }
}

void Runner::for_each(std::size_t count,
                      const std::function<void(std::size_t)>& fn) const {
  // One worker's first failure. The cursor only moves forward, so it is
  // also that worker's lowest failing index.
  struct Failure {
    std::size_t index = std::numeric_limits<std::size_t>::max();
    std::exception_ptr error;
  };
  const std::size_t workers = std::min(threads_, count);
  if (workers == 0) return;
  std::atomic<std::size_t> next{0};
  std::vector<Failure> failures(workers);
  const auto drain = [&](Failure& failure) {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        fn(i);
      } catch (...) {
        if (!failure.error) failure = {i, std::current_exception()};
      }
    }
  };
  {
    // Declared after everything drain() touches, so an exception while
    // starting helpers still joins the started ones first.
    std::vector<std::jthread> helpers;
    helpers.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w) {
      helpers.emplace_back(drain, std::ref(failures[w]));
    }
    drain(failures[0]);
  }
  const Failure& first = *std::min_element(
      failures.begin(), failures.end(),
      [](const Failure& a, const Failure& b) { return a.index < b.index; });
  if (first.error) std::rethrow_exception(first.error);
}

}  // namespace spider::exp
