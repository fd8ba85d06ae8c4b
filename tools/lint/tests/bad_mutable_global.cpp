// Golden bad snippet: mutable namespace-scope / static / thread_local
// state. Every marked line must fire [mutable-global] -- shared mutable
// state outside the annotated pool races across worker threads.
#include <cstdint>
#include <vector>

int g_trial_counter = 0;                     // fires: namespace scope
std::vector<int> g_registry;                 // fires: namespace scope
static double cache_hit_rate = 0.0;          // fires: static storage
thread_local std::uint64_t tls_scratch = 0;  // fires: thread_local

int bump() {
  static int calls = 0;  // fires: function-local static is still shared
  return ++calls;
}
