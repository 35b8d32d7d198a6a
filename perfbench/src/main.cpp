// rlb_perfbench: one run of one benchmark workload, reported as a single
// JSON line on stdout (run.py turns it into the benchmark's result).
//
//   rlb_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: direct-fresh, direct-reappear, router-fresh (open-loop
// serving over loopback) and sim-repeated (the simulator).  See
// perfbench/README.md for what each measures and why.
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "host.hpp"
#include "report.hpp"
#include "serving.hpp"
#include "sim.hpp"

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::stoull(value);
    } else if (flag == "--seconds") {
      seconds = std::stod(value);
    } else if (flag == "--trace") {
      trace = value == "1";
    } else {
      std::cerr << "rlb_perfbench: unknown flag " << flag << "\n";
      return 2;
    }
  }
  if (!(seconds > 0.0)) {
    std::cerr << "rlb_perfbench: --seconds must be positive\n";
    return 2;
  }
  try {
    perfbench::Report report;
    if (perfbench::is_serving_workload(workload)) {
      report = perfbench::run_serving(workload, seed, seconds, trace);
    } else if (workload == "sim-repeated") {
      report = perfbench::run_sim(seed, seconds, trace);
    } else {
      std::cerr << "rlb_perfbench: unknown workload '" << workload << "'\n";
      return 2;
    }
    report.info["workload"] = workload;
    report.info["seed"] = std::to_string(seed);
    report.info["nproc"] = std::to_string(std::thread::hardware_concurrency());
    report.info["loadavg"] = perfbench::host_loadavg();
    perfbench::write_json(std::cout, report);
  } catch (const std::exception& e) {
    std::cerr << "rlb_perfbench: " << e.what() << "\n";
    return 2;
  }
  return 0;
}
