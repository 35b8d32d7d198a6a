// The serving workloads: open-loop load from one generator thread over one
// loopback connection into an in-process net::NetServer +
// engine::ServingEngine backend, directly or through a cluster::Router.
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"

namespace perfbench {

/// True for "direct-fresh", "direct-reappear" and "router-fresh".
bool is_serving_workload(const std::string& workload);

/// Bring the system up (several times, for setup_s), drive it for
/// `seconds` of measured load and check its outputs.  With `trace`, the
/// first half of the time is driven untraced and the second half with
/// per-request timestamps at the backend's edges, and the per-layer
/// metrics are reported instead of only the end-to-end ones.
Report run_serving(const std::string& workload, std::uint64_t seed,
                   double seconds, bool trace);

}  // namespace perfbench
