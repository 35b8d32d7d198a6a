#include "sim.hpp"

#include <algorithm>
#include <numeric>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/metrics.hpp"
#include "core/placement.hpp"
#include "core/simulator.hpp"
#include "cuckoo/offline_assignment.hpp"
#include "host.hpp"
#include "latency.hpp"
#include "micro.hpp"
#include "policies/delayed_cuckoo.hpp"
#include "policies/greedy.hpp"
#include "stats/rng.hpp"
#include "workloads/repeated_set.hpp"

namespace perfbench {
namespace {

using namespace rlb;

constexpr std::size_t kServers = 1u << 14;  // m
/// Steps per simulation: several delayed-cuckoo phases (ceil(log2 log2 m)
/// = 4 steps each) and room for greedy's log m + 1 queues to fill.
constexpr std::size_t kHorizon = 16;
constexpr std::uint64_t kPolicySeed = 11;

workloads::RepeatedSetWorkload repeated_set(std::uint64_t seed) {
  return workloads::RepeatedSetWorkload(kServers, 1ull << 40,
                                        stats::derive_seed(seed, 0x5e7));
}

/// The repeated set, with a clock read at every step boundary.
/// core::simulate() asks for step t's batch only once all of step t-1's
/// work (the balancer's step, backlog sampling, flush) is done, so
/// consecutive fill_step() calls bracket one whole simulated step.
class TimedWorkload final : public core::Workload {
 public:
  explicit TimedWorkload(std::uint64_t seed) : inner_(repeated_set(seed)) {}

  void fill_step(core::Time t, std::vector<core::ChunkId>& out) override {
    mark();
    const std::uint64_t start = now_ns();
    inner_.fill_step(t, out);
    fill_ns += now_ns() - start;
    requests += out.size();
  }
  std::size_t max_requests_per_step() const override {
    return inner_.max_requests_per_step();
  }

  /// Wall and thread-CPU clock at a step boundary.
  void mark() {
    wall_marks.push_back(now_ns());
    cpu_marks.push_back(thread_cpu_ns());
  }

  std::vector<std::uint64_t> wall_marks;
  std::vector<std::uint64_t> cpu_marks;
  std::uint64_t fill_ns = 0;
  std::uint64_t requests = 0;

 private:
  workloads::RepeatedSetWorkload inner_;
};

/// A balancer whose step() is timed; everything else is passed through.
class TimedBalancer final : public core::LoadBalancer {
 public:
  explicit TimedBalancer(core::LoadBalancer& inner) : inner_(inner) {}

  std::string_view name() const override { return inner_.name(); }
  std::size_t server_count() const override { return inner_.server_count(); }
  void step(core::Time t, std::span<const core::ChunkId> requests,
            core::Metrics& metrics) override {
    const std::uint64_t start = now_ns();
    inner_.step(t, requests, metrics);
    step_ns += now_ns() - start;
  }
  std::uint32_t backlog(core::ServerId s) const override {
    return inner_.backlog(s);
  }
  void backlogs(std::vector<std::uint32_t>& out) const override {
    inner_.backlogs(out);
  }
  std::uint64_t total_backlog() const override {
    return inner_.total_backlog();
  }
  void flush(core::Metrics& metrics) override { inner_.flush(metrics); }
  void set_server_up(core::ServerId s, bool up, bool dump_queue,
                     core::Metrics& metrics) override {
    inner_.set_server_up(s, up, dump_queue, metrics);
  }
  bool server_up(core::ServerId s) const override {
    return inner_.server_up(s);
  }
  bool set_request_sink(core::RequestSink* sink) override {
    return inner_.set_request_sink(sink);
  }

  std::uint64_t step_ns = 0;

 private:
  core::LoadBalancer& inner_;
};

/// Outcome of a pass; identical for every pass of one run.
struct Outcome {
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t max_latency = 0;
  std::uint64_t max_backlog = 0;
  bool operator==(const Outcome&) const = default;
};

/// Timings of one policy's simulation in one pass.
struct RunTimings {
  /// Wall time and thread CPU time of each step.
  std::vector<double> step_ns;
  std::vector<double> step_cpu_ns;
  /// The whole core::simulate() call.
  std::uint64_t simulate_ns = 0;
  std::uint64_t balancer_step_ns = 0;
  std::uint64_t fill_ns = 0;
  std::uint64_t requests = 0;
};

/// Timings of one pass: greedy's simulation, then delayed cuckoo's.
struct PassTimings {
  /// Constructing both balancers and their workloads.
  double setup_s = 0.0;
  RunTimings greedy;
  RunTimings cuckoo;

  std::uint64_t total_ns() const {
    return greedy.simulate_ns + cuckoo.simulate_ns;
  }
};

/// Simulate kHorizon steps of `workload` through `balancer` with the
/// repository's simulation loop, and fold the result into `outcome`.
RunTimings simulate_timed(core::LoadBalancer& balancer, TimedWorkload& workload,
                          Outcome& outcome, Report& report) {
  TimedBalancer timed(balancer);
  const std::uint64_t start = now_ns();
  const core::SimResult result =
      core::simulate(timed, workload, core::SimConfig{.steps = kHorizon});
  workload.mark();
  RunTimings run;
  run.simulate_ns = now_ns() - start;
  for (std::size_t t = 0; t + 1 < workload.wall_marks.size(); ++t) {
    run.step_ns.push_back(static_cast<double>(workload.wall_marks[t + 1] -
                                              workload.wall_marks[t]));
    run.step_cpu_ns.push_back(static_cast<double>(workload.cpu_marks[t + 1] -
                                                  workload.cpu_marks[t]));
  }
  run.balancer_step_ns = timed.step_ns;
  run.fill_ns = workload.fill_ns;
  run.requests = workload.requests;

  const core::Metrics& metrics = result.metrics;
  report.check(result.steps_run == kHorizon && run.step_ns.size() == kHorizon,
               std::string(balancer.name()) + ": simulated a short run");
  report.check(metrics.submitted() == metrics.completed() +
                                          metrics.rejected() +
                                          balancer.total_backlog(),
               std::string(balancer.name()) +
                   ": generated != served + rejected + final backlog");
  outcome.submitted += metrics.submitted();
  outcome.rejected += metrics.rejected();
  outcome.max_latency = std::max(outcome.max_latency, metrics.max_latency());
  outcome.max_backlog = std::max(outcome.max_backlog, result.max_backlog);
  return run;
}

Outcome run_pass(std::uint64_t seed, PassTimings& timings, Report& report) {
  const std::uint64_t setup_start = now_ns();
  policies::GreedyBalancer greedy(
      policies::GreedyBalancer::theorem_config(kServers, 4, 4, kPolicySeed));
  policies::DelayedCuckooConfig cuckoo_config;
  cuckoo_config.servers = kServers;
  cuckoo_config.processing_rate = 16;
  cuckoo_config.seed = kPolicySeed;
  policies::DelayedCuckooBalancer cuckoo(cuckoo_config);
  TimedWorkload greedy_workload(seed);
  TimedWorkload cuckoo_workload(seed);
  timings.setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;

  Outcome outcome;
  timings.greedy = simulate_timed(greedy, greedy_workload, outcome, report);
  timings.cuckoo = simulate_timed(cuckoo, cuckoo_workload, outcome, report);
  return outcome;
}

/// Best-of-replays timings: every pass replays the same seeded steps, so
/// step t costs the same work in each.  Other tenants of the host slow
/// whole stretches of passes, by up to 2x over a few seconds, and only
/// ever slow them, so the fastest replay is the steady estimate of what
/// the code itself costs.
struct BestTimings {
  /// Per step index, the fastest replay of that step (greedy's plus
  /// cuckoo's), in wall time and in CPU time.
  std::vector<double> step_ns;
  std::vector<double> step_cpu_ns;
  /// The fastest whole pass.
  PassTimings pass;
  std::uint64_t passes = 0;
};

/// Passes until `seconds` have gone by (at least one).
/// Pass i runs on cpus[i % cpus.size()], so a CPU that another tenant
/// slows for a while costs passes, not the estimate.
BestTimings replay(std::uint64_t seed, double seconds,
                   const Outcome& expected, const std::vector<int>& cpus,
                   Report& report, std::vector<double>& setups) {
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  BestTimings best;
  std::vector<double> greedy_ns(kHorizon, 1e300);
  std::vector<double> cuckoo_ns(kHorizon, 1e300);
  std::vector<double> greedy_cpu_ns(kHorizon, 1e300);
  std::vector<double> cuckoo_cpu_ns(kHorizon, 1e300);
  do {
    pin_calling_thread(cpus[best.passes % cpus.size()]);
    PassTimings timings;
    report.check(run_pass(seed, timings, report) == expected,
                 "simulation outcome differs between passes of one seed");
    setups.push_back(timings.setup_s);
    for (std::size_t t = 0; t < kHorizon; ++t) {
      greedy_ns[t] = std::min(greedy_ns[t], timings.greedy.step_ns[t]);
      cuckoo_ns[t] = std::min(cuckoo_ns[t], timings.cuckoo.step_ns[t]);
      greedy_cpu_ns[t] =
          std::min(greedy_cpu_ns[t], timings.greedy.step_cpu_ns[t]);
      cuckoo_cpu_ns[t] =
          std::min(cuckoo_cpu_ns[t], timings.cuckoo.step_cpu_ns[t]);
    }
    if (best.passes++ == 0 || timings.total_ns() < best.pass.total_ns()) {
      best.pass = std::move(timings);
    }
  } while (now_ns() < deadline);
  for (std::size_t t = 0; t < kHorizon; ++t) {
    best.step_ns.push_back(greedy_ns[t] + cuckoo_ns[t]);
    best.step_cpu_ns.push_back(greedy_cpu_ns[t] + cuckoo_cpu_ns[t]);
  }
  return best;
}

}  // namespace

Report run_sim(std::uint64_t seed, double seconds, bool trace) {
  const std::vector<int> cpus = cpus_fastest_first();
  Report report;
  report.info["shape"] =
      "m=16384 |S|=m; greedy d=4 g=4 q=log m+1; delayed-cuckoo g=16; "
      "core::simulate " + std::to_string(kHorizon) + " steps";

  // A warm-up pass, not measured, fixes the outcome every pass must repeat.
  PassTimings warmup;
  const Outcome outcome = run_pass(seed, warmup, report);

  // Every pass sets the simulation up afresh; setup_s is their median.
  std::vector<double> setups;
  const double steal_start = host_steal_ms();
  const BestTimings best = replay(seed, seconds, outcome, cpus, report, setups);
  report.metrics["host.steal_ms"] = host_steal_ms() - steal_start;
  const std::uint64_t passes = best.passes;
  std::vector<double> steps = best.step_ns;
  // Every simulated request is routed by both policies, and each routing
  // counts as one request.
  const PassTimings& fastest = best.pass;
  const double requests =
      static_cast<double>(fastest.greedy.requests + fastest.cuckoo.requests);
  report.metrics["p50_us"] = exact_quantile(steps, 0.5) / 1000.0;
  report.metrics["p90_us"] = exact_quantile(steps, 0.9) / 1000.0;
  report.metrics["served_share"] =
      1.0 - static_cast<double>(outcome.rejected) /
                static_cast<double>(outcome.submitted);
  report.metrics["cpu_us_per_req"] =
      std::accumulate(best.step_cpu_ns.begin(), best.step_cpu_ns.end(), 0.0) /
      1000.0 / requests;
  report.metrics["setup_s"] = exact_quantile(setups, 0.5);
  report.metrics["peak_rss_mb"] = peak_rss_mb();
  report.metrics["loadgen.p99_us"] = exact_quantile(steps, 0.99) / 1000.0;
  report.metrics["loadgen.p999_us"] = exact_quantile(steps, 0.999) / 1000.0;
  report.metrics["loadgen.fail_share"] =
      static_cast<double>(outcome.rejected) /
      static_cast<double>(outcome.submitted);
  report.metrics["core.max_latency_steps"] =
      static_cast<double>(outcome.max_latency);
  report.metrics["core.max_backlog"] = static_cast<double>(outcome.max_backlog);
  report.attempted = outcome.submitted * passes;
  report.failed = outcome.rejected * passes;
  report.counts["passes"] = passes;
  report.counts["steps_per_pass"] = kHorizon;
  report.counts["rejected_per_pass"] = outcome.rejected;

  // The parts of the fastest pass, per simulated request of each policy.
  const auto per_req = [](std::uint64_t ns, const RunTimings& run) {
    return static_cast<double>(ns) / static_cast<double>(run.requests);
  };
  report.metrics["workloads.fill_step_ns_per_req"] =
      static_cast<double>(fastest.greedy.fill_ns + fastest.cuckoo.fill_ns) /
      requests;
  report.metrics["policies.greedy_step_ns_per_req"] =
      per_req(fastest.greedy.balancer_step_ns, fastest.greedy);
  report.metrics["policies.cuckoo_step_ns_per_req"] =
      per_req(fastest.cuckoo.balancer_step_ns, fastest.cuckoo);
  report.metrics["sim.greedy_mreq_s"] =
      1e3 / per_req(fastest.greedy.simulate_ns, fastest.greedy);
  report.metrics["sim.cuckoo_mreq_s"] =
      1e3 / per_req(fastest.cuckoo.simulate_ns, fastest.cuckoo);

  if (trace) {
    // Lemma 4.2's offline assignment on the repeated set, timed alone.
    const workloads::RepeatedSetWorkload workload = repeated_set(seed);
    const core::Placement placement(kServers, 2, kPolicySeed);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> choices;
    for (const core::ChunkId x : workload.chunk_set()) {
      const core::ChoiceList c = placement.choices(x);
      choices.emplace_back(c[0], c[1]);
    }
    report.metrics["cuckoo.assign_offline_ns_per_req"] =
        ns_per_op(choices.size(), [&] {
          const cuckoo::OfflineAssignment a =
              cuckoo::assign_offline(choices, kServers);
          return static_cast<std::uint64_t>(a.stash_used + a.success);
        });
  }
  return report;
}

}  // namespace perfbench
