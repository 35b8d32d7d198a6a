// Timing loops around single public functions of the layers under test.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "host.hpp"
#include "latency.hpp"

namespace perfbench {

/// Keeps a loop's result observable so the compiler cannot drop the loop.
inline std::atomic<std::uint64_t> g_sink{0};

/// Run `body` (which does `ops` operations and returns a checksum of
/// their results) several times and return the median time per operation
/// in nanoseconds.  The first repetition warms caches and is discarded.
template <class Body>
double ns_per_op(std::size_t ops, Body&& body, int repetitions = 7) {
  if (ops == 0) return 0.0;
  g_sink.fetch_add(body(), std::memory_order_relaxed);
  std::vector<double> samples;
  for (int i = 0; i < repetitions; ++i) {
    const std::uint64_t start = now_ns();
    const std::uint64_t checksum = body();
    samples.push_back(static_cast<double>(now_ns() - start) /
                      static_cast<double>(ops));
    g_sink.fetch_add(checksum, std::memory_order_relaxed);
  }
  return exact_quantile(samples, 0.5);
}

}  // namespace perfbench
