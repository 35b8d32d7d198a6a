// The simulator workload: the paper's repeated-set adversary routed by
// greedy (Thm 3.1) and delayed cuckoo (Thm 4.3) on one thread.
#pragma once

#include <cstdint>

#include "report.hpp"

namespace perfbench {

/// Simulate fixed-length passes of the repeated set, each policy through
/// the repository's simulation loop (core::simulate()), until `seconds`
/// have been measured.  Every pass replays the same seeded run, so its
/// outcome counts must repeat exactly.  Each step, workload generation and
/// each policy's step() are timed in every pass; `trace` adds the
/// per-layer timing of the offline cuckoo assignment.
Report run_sim(std::uint64_t seed, double seconds, bool trace);

}  // namespace perfbench
