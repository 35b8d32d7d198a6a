// Trace capture and replay.
//
// Records the exact step-by-step batches emitted by any workload so that a
// run can be replayed bit-for-bit against a different policy — the fair
// head-to-head comparison mode used by the policy-matrix experiment (every
// policy sees the identical oblivious request sequence).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/workload.hpp"

namespace rlb::workloads {

/// An in-memory recorded request trace.
class Trace {
 public:
  Trace() = default;

  /// Record `steps` steps from `source` (consumes that many steps of it).
  static Trace record(core::Workload& source, std::size_t steps);

  void append_step(std::vector<core::ChunkId> batch);

  /// Text serialization: one line per step, space-separated chunk ids
  /// (blank line = empty step).  Round-trips exactly through load().
  void save(std::ostream& os) const;
  void save_file(const std::string& path) const;
  static Trace load(std::istream& is);
  static Trace load_file(const std::string& path);

  /// Compact binary serialization (little-endian): "RLBT" magic + u32
  /// version header, u64 step count, then per step a u32 batch size
  /// followed by that many u64 chunk ids.  ~8 bytes per request vs ~7-20
  /// text characters, and no parsing on load.  Round-trips exactly through
  /// load_binary(), which reads `is` to its end and throws
  /// std::runtime_error on a bad magic, an unsupported version, a
  /// truncated stream (including a count larger than the bytes left), or
  /// trailing bytes.
  void save_binary(std::ostream& os) const;
  void save_binary_file(const std::string& path) const;
  static Trace load_binary(std::istream& is);
  static Trace load_binary_file(const std::string& path);

  /// Load either format, sniffing the 4-byte magic.
  static Trace load_auto_file(const std::string& path);

  bool operator==(const Trace& other) const {
    return steps_ == other.steps_;
  }

  std::size_t step_count() const noexcept { return steps_.size(); }
  const std::vector<core::ChunkId>& step(std::size_t i) const {
    return steps_[i];
  }
  std::size_t max_batch_size() const noexcept { return max_batch_; }
  std::uint64_t total_requests() const noexcept { return total_; }

 private:
  std::vector<std::vector<core::ChunkId>> steps_;
  std::size_t max_batch_ = 0;
  std::uint64_t total_ = 0;
};

/// Replays a Trace as a Workload; steps beyond the recorded length cycle
/// back to the beginning (so long simulations can reuse short traces).
class TraceWorkload final : public core::Workload {
 public:
  explicit TraceWorkload(const Trace& trace);

  void fill_step(core::Time t, std::vector<core::ChunkId>& out) override;
  std::size_t max_requests_per_step() const override {
    return trace_.max_batch_size();
  }

 private:
  const Trace& trace_;
};

}  // namespace rlb::workloads
