// What one benchmark run hands back to run.py: every metric it measured,
// the request counts, the correctness violations it found and the
// provenance of the host it ran on.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct Report {
  /// Every metric measured, end-to-end and per-layer alike, by name.
  std::map<std::string, double> metrics;
  /// Requests (or simulated requests) in the measured window, and those
  /// of them that were refused, errored or never answered.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Plain counts shown next to the metrics (sent, answered, ...).
  std::map<std::string, std::uint64_t> counts;
  std::map<std::string, std::string> info;
  std::vector<std::string> violations;

  void check(bool ok, const std::string& what) {
    if (!ok) violations.push_back(what);
  }
};

inline void write_json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out << buf;
    } else {
      out << c;
    }
  }
  out << '"';
}

/// One JSON object on one line.  Non-finite metrics are written as null,
/// which run.py refuses: a percentile that falls among refused requests
/// has no value to report.
inline void write_json(std::ostream& out, const Report& report) {
  out << "{\"attempted\":" << report.attempted
      << ",\"failed\":" << report.failed << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : report.metrics) {
    if (!first) out << ',';
    first = false;
    write_json_string(out, name);
    if (std::isfinite(value)) {
      char buf[40];
      std::snprintf(buf, sizeof buf, ":%.17g", value);
      out << buf;
    } else {
      out << ":null";
    }
  }
  out << "},\"counts\":{";
  first = true;
  for (const auto& [name, value] : report.counts) {
    if (!first) out << ',';
    first = false;
    write_json_string(out, name);
    out << ':' << value;
  }
  out << "},\"info\":{";
  first = true;
  for (const auto& [name, value] : report.info) {
    if (!first) out << ',';
    first = false;
    write_json_string(out, name);
    out << ':';
    write_json_string(out, value);
  }
  out << "},\"violations\":[";
  first = true;
  for (const std::string& v : report.violations) {
    if (!first) out << ',';
    first = false;
    write_json_string(out, v);
  }
  out << "]}\n";
}

}  // namespace perfbench
