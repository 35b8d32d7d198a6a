// Clocks, process resource usage and host-noise readings for the
// benchmark harness.
#pragma once

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// User + system CPU time of the whole process, in nanoseconds.
inline std::uint64_t process_cpu_ns() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto to_ns = [](const timeval& tv) {
    return static_cast<std::uint64_t>(tv.tv_sec) * 1'000'000'000ull +
           static_cast<std::uint64_t>(tv.tv_usec) * 1000ull;
  };
  return to_ns(usage.ru_utime) + to_ns(usage.ru_stime);
}

/// CPU time of the calling thread, in nanoseconds.
inline std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// The process's peak resident set size in MiB (VmHWM).  Unlike
/// getrusage's ru_maxrss, it starts afresh at exec, so the launching
/// process's memory does not leak into it.  0 when unreadable.
inline double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the value is in kB
    }
  }
  return 0.0;
}

/// CPU time stolen by the hypervisor so far, in milliseconds: the "steal"
/// column of /proc/stat's aggregate cpu line, or of CPU `cpu`'s line when
/// `cpu` is not negative.  0 when the file, the line or the column is
/// missing.
inline double host_steal_ms(int cpu = -1) {
  const std::string tag =
      cpu < 0 ? std::string("cpu ") : "cpu" + std::to_string(cpu) + " ";
  std::ifstream in("/proc/stat");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(tag, 0) != 0) continue;
    std::istringstream fields(line.substr(tag.size()));
    std::uint64_t value = 0;
    std::uint64_t steal = 0;
    for (int column = 0; column < 8 && (fields >> value); ++column) {
      if (column == 7) steal = value;
    }
    const long ticks_per_s = sysconf(_SC_CLK_TCK);
    return ticks_per_s > 0 ? static_cast<double>(steal) * 1000.0 /
                                 static_cast<double>(ticks_per_s)
                           : 0.0;
  }
  return 0.0;
}

/// The first line of /proc/loadavg ("" when unreadable).
inline std::string host_loadavg() {
  std::ifstream in("/proc/loadavg");
  std::string line;
  std::getline(in, line);
  return line;
}

/// Restrict the calling thread to `cpu`.  Threads it creates afterwards
/// inherit the restriction.
inline void pin_calling_thread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

/// The CPUs the process may run on, fastest first.  On a shared host a
/// virtual CPU whose physical core another tenant is busy on runs the same
/// code up to 2x slower, for seconds at a time; each CPU runs a short
/// pointer-chasing probe (best of three) and the least disturbed come
/// first.  Leaves the calling thread pinned to the fastest.
inline std::vector<int> cpus_fastest_first() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof allowed, &allowed);
  // One random cycle through 1 MiB (Sattolo's shuffle).
  std::vector<std::uint32_t> next(1u << 18);
  std::iota(next.begin(), next.end(), 0u);
  std::uint64_t lcg = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = next.size() - 1; i > 0; --i) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    std::swap(next[i], next[(lcg >> 33) % i]);
  }
  std::vector<std::pair<std::uint64_t, int>> timed;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    pin_calling_thread(cpu);
    std::uint64_t best = ~0ull;
    for (int rep = 0; rep < 3; ++rep) {
      const std::uint64_t start = now_ns();
      std::uint32_t at = 0;
      for (int hop = 0; hop < 200'000; ++hop) at = next[at];
      best = std::min(best, now_ns() - start + (at == ~0u ? 1 : 0));
    }
    timed.emplace_back(best, cpu);
  }
  std::sort(timed.begin(), timed.end());
  std::vector<int> cpus;
  for (const auto& entry : timed) cpus.push_back(entry.second);
  if (cpus.empty()) cpus.push_back(0);
  pin_calling_thread(cpus.front());
  return cpus;
}

}  // namespace perfbench
