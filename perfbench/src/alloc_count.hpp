#pragma once
// Heap-allocation counter fed by the counting operator new in
// alloc_count.cpp. That file is linked only into the benchmark's own
// executables, so the library under test is unchanged.

#include <cstdint>

namespace perfbench {

/// Number of successful global operator new calls (all forms) so far.
[[nodiscard]] std::uint64_t alloc_count() noexcept;

}  // namespace perfbench
