// The STATS_RESP snapshot: what a running rlbd reports about itself.
//
// A snapshot is a pure data object — the engine fills one from its
// shard-local atomics (no global lock, see ServingEngine::snapshot()) and
// the wire layer ships it as one STATS_RESP frame.  The encoding is
// versioned and self-contained: u8 type=4, u32 version, then the fields in
// declaration order, in the byte format of codec/codec.hpp (strings as u16
// length + bytes, vectors as u32 count + entries).  A decoder that sees an
// unknown version
// rejects the payload (clients and daemons ship together; there is no
// cross-version skew to paper over).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "codec/codec.hpp"
#include "net/wire.hpp"

namespace rlb::net {

/// Bump on any layout change.  v2: role + backend_id (cluster mode).
/// v3: per-hop latency histograms (hop_rtt, queue_wait).
/// v4: placement epoch + repair/migration counters (self-healing tier).
/// v5: windowed (trailing ~10 s) histograms + counter deltas and active
///     watchdog alerts (health plane).
inline constexpr std::uint32_t kStatsVersion = 5;

/// Which tier produced a snapshot.
enum class NodeRole : std::uint8_t { kBackend = 0, kRouter = 1 };

const char* to_string(NodeRole role) noexcept;

// Pieces every admin response (STATS_RESP, TRACE_RESP, EVENTS_RESP)
// shares.  Each opens with u8 type + u32 version and names the node that
// answered as u8 role + u32 backend_id; decoders reject a wrong type, a
// version other than the one they speak, and an unknown role.

void encode_admin_version(codec::Writer& w, MsgType type,
                          std::uint32_t version);
/// Reads type + version into `version`; false on a wrong type or version.
bool decode_admin_version(codec::Reader& r, MsgType type, std::uint32_t want,
                          std::uint32_t& version);
void encode_node(codec::Writer& w, NodeRole role, std::uint32_t backend_id);
/// False (and the reader's error flag) on an unknown role.
bool decode_node(codec::Reader& r, NodeRole& role, std::uint32_t& backend_id);

/// The prefix of the two drain responses, TRACE_RESP and EVENTS_RESP:
///   u8 type, u32 version, u8 role, u32 backend_id,
///   u64 steady_ns, u64 wall_ns, u64 dropped
/// Each snapshot type derives from it and appends its own cursor fields
/// and items.
struct DrainEnvelope {
  std::uint32_t version = 0;
  NodeRole role = NodeRole::kBackend;
  std::uint32_t backend_id = 0;
  /// Clock anchor sampled at encode time: the peer's steady clock and wall
  /// clock at one instant, so a scraper can place the peer's steady-clock
  /// timestamps on its own wall clock (see net/admin_drain.hpp).
  std::uint64_t steady_ns = 0;
  std::uint64_t wall_ns = 0;
  /// Items the peer lost before this response (ring overflow).
  std::uint64_t dropped = 0;

  /// How scrapers name the node: "router" or "backend-<id>".
  [[nodiscard]] std::string label() const;
};

void encode_envelope(codec::Writer& w, MsgType type, const DrainEnvelope& env);
/// False on a wrong type, a version other than `version`, an unknown role,
/// or truncation.
bool decode_envelope(codec::Reader& r, MsgType type, std::uint32_t version,
                     DrainEnvelope& env);

/// Number of log2-microsecond latency buckets.  Bucket i counts samples
/// with floor(log2(us)) == i (bucket 0 also takes us <= 1); the last
/// bucket is a catch-all.
inline constexpr std::size_t kLatencyBuckets = 32;

/// A log2-bucketed microsecond histogram (wire-to-response latency, hop
/// RTT, queue wait), merged across shards.
struct LatencyStats {
  std::uint64_t count = 0;
  std::uint64_t sum_us = 0;
  std::uint64_t max_us = 0;
  std::array<std::uint64_t, kLatencyBuckets> buckets{};

  /// Record one sample (single-writer callers: the engine keeps per-shard
  /// atomics instead and merges into this struct at snapshot time).
  void observe_us(std::uint64_t us);

  /// Approximate quantile (0 < q < 1) from the log2 buckets: the upper
  /// edge of the bucket containing the q-th sample.  0 when empty.
  [[nodiscard]] double quantile_us(double q) const;
};

/// Concurrent counterpart of LatencyStats: hot paths record with relaxed
/// atomics (no lock, no cache-line ping-pong beyond the counters
/// themselves) and the scrape path folds the fields into a plain
/// LatencyStats via merge_into().  Relaxed ordering means a snapshot may
/// tear across fields (count updated, sum not yet) — fine for advisory
/// telemetry, never used for control decisions.
struct AtomicLatency {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> sum_us{0};
  std::atomic<std::uint64_t> max_us{0};
  std::array<std::atomic<std::uint64_t>, kLatencyBuckets> buckets{};

  void observe_us(std::uint64_t us) {
    count.fetch_add(1, std::memory_order_relaxed);
    sum_us.fetch_add(us, std::memory_order_relaxed);
    std::uint64_t prev = max_us.load(std::memory_order_relaxed);
    while (us > prev &&
           !max_us.compare_exchange_weak(prev, us, std::memory_order_relaxed)) {
    }
    std::size_t bucket =
        us <= 1 ? 0 : static_cast<std::size_t>(std::bit_width(us) - 1);
    if (bucket >= kLatencyBuckets) bucket = kLatencyBuckets - 1;
    buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  }

  /// Accumulate this histogram into `out` (relaxed loads; max_us merges
  /// as a max so several AtomicLatency sources can fold into one row).
  void merge_into(LatencyStats& out) const {
    out.count += count.load(std::memory_order_relaxed);
    out.sum_us += sum_us.load(std::memory_order_relaxed);
    const std::uint64_t m = max_us.load(std::memory_order_relaxed);
    if (m > out.max_us) out.max_us = m;
    for (std::size_t i = 0; i < kLatencyBuckets; ++i) {
      out.buckets[i] += buckets[i].load(std::memory_order_relaxed);
    }
  }
};

/// One worker shard's counters.  Counters are cumulative since engine
/// start; *_depth / inflight / backlog / servers_down are gauges sampled
/// at scrape time.
struct ShardStats {
  std::uint32_t shard = 0;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_all_down = 0;
  std::uint64_t rejected_admission = 0;  ///< waiting-room overflow
  std::uint64_t rejected_drop = 0;       ///< queue dumps / drain flushes
  std::uint64_t errors = 0;              ///< kError responses (drain)
  std::uint64_t ticks = 0;
  std::uint64_t batches = 0;         ///< ticks that served a non-empty batch
  std::uint64_t batched_chunks = 0;  ///< sum of micro-batch sizes
  std::uint64_t max_batch = 0;
  std::uint64_t inbound_depth = 0;
  std::uint64_t waiting_depth = 0;
  std::uint64_t inflight = 0;
  std::uint64_t backlog = 0;
  std::uint64_t servers_down = 0;
  std::uint64_t step_ns = 0;  ///< cumulative balancer step() time

  [[nodiscard]] std::uint64_t rejected_total() const {
    return rejected_queue_full + rejected_all_down + rejected_admission +
           rejected_drop;
  }
};

/// Self-healing repair state (v4).  A router fills the coordinator-side
/// fields (migrations_done/failed/inflight, chunks_pending, bytes_sent);
/// a backend fills the agent-side fields (migrations_in/out and their
/// byte totals).  The counterpart fields stay zero for each role.
struct RepairStats {
  std::uint64_t migrations_done = 0;      ///< committed into an epoch
  std::uint64_t migrations_failed = 0;    ///< acked failure / timed out
  std::uint64_t migrations_inflight = 0;  ///< gauge: currently streaming
  std::uint64_t chunks_pending = 0;       ///< gauge: queued, not yet done
  std::uint64_t bytes_sent = 0;           ///< repair bytes moved so far
  std::uint64_t migrations_in = 0;        ///< slices received + verified
  std::uint64_t migrations_out = 0;       ///< MIGRATE orders streamed out
  std::uint64_t migration_bytes_in = 0;
  std::uint64_t migration_bytes_out = 0;
};

/// One level of the Def 3.2 envelope as observed at scrape time.
struct SafeSetLevelStats {
  std::uint32_t level = 0;    ///< j
  std::uint64_t observed = 0; ///< servers with backlog > j
  double bound = 0.0;         ///< m / 2^j
  double ratio = 0.0;         ///< observed / bound
};

/// The full snapshot carried by one STATS_RESP frame.
struct StatsSnapshot {
  std::uint32_t version = kStatsVersion;
  std::uint64_t uptime_ms = 0;

  /// Cluster identity: which tier answered, and (for backends) the
  /// operator-assigned id (`rlbd --backend-id`).  A router's snapshot
  /// carries one ShardStats row per backend instead, with `shard` = the
  /// backend id (see docs/CLUSTER.md for the row mapping).
  NodeRole role = NodeRole::kBackend;
  std::uint32_t backend_id = 0;

  // Engine configuration (static for the daemon's lifetime).
  std::string policy;
  std::uint32_t servers = 0;
  std::uint32_t replication = 0;
  std::uint32_t processing_rate = 0;
  std::uint32_t queue_capacity = 0;
  std::uint32_t shard_count = 0;

  std::vector<ShardStats> shards;
  LatencyStats latency;

  // Per-hop latency decomposition (v3).  On a backend, `queue_wait` is the
  // submit-to-drain-tick wait inside the MPSC queue + waiting room; on a
  // router, `hop_rtt` is the forward-to-response round trip per upstream
  // hop (retries sample once per attempt).  The counterpart histogram is
  // empty for each role.
  LatencyStats hop_rtt;
  LatencyStats queue_wait;

  // Safe-set invariant monitor (Def 3.2 over the merged backlog vector).
  std::vector<SafeSetLevelStats> safe_set;
  double safe_worst_ratio = 0.0;
  std::uint32_t safe_violated_level = 0;  ///< 0 when safe

  // Self-healing tier (v4): the node's current placement epoch (0 until a
  // repair cutover commits; backends learn theirs from the heartbeat
  // piggyback) and the repair/migration counters for its role.
  std::uint64_t placement_epoch = 0;
  RepairStats repair;

  // Health plane (v5): the same histograms again, but as deltas over the
  // trailing window (obs::WindowedAggregator, ~10 x 1 s), so an incident's
  // p99 spike shows up within a scrape interval instead of drowning in
  // lifetime samples.  window_span_ms is the wall time the deltas cover
  // (0 = no windowed data); win_submitted/completed/rejected are counter
  // deltas over the same span, i.e. rate gauges after dividing by it.
  std::uint64_t window_span_ms = 0;
  std::uint64_t win_submitted = 0;
  std::uint64_t win_completed = 0;
  std::uint64_t win_rejected = 0;
  LatencyStats win_latency;
  LatencyStats win_hop_rtt;
  LatencyStats win_queue_wait;

  // Active watchdog alerts (obs::HealthWatchdog rule names), rendered as
  // rlb_alert_active{rule=...} gauges in the Prometheus exposition.
  std::vector<std::string> active_alerts;

  /// Sum of all shard rows (shard id meaningless in the result).
  [[nodiscard]] ShardStats totals() const;
};

/// Serialize `snapshot` as a STATS_RESP payload (type byte included, no
/// frame length prefix) appended to `out`.
void encode_stats_payload(const StatsSnapshot& snapshot,
                          std::vector<std::uint8_t>& out);

/// Parse a STATS_RESP payload.  Returns false on a malformed body or a
/// version other than kStatsVersion; `out` is unspecified on failure.
bool decode_stats_payload(const std::uint8_t* data, std::size_t size,
                          StatsSnapshot& out);

/// Read just the version word of a STATS_RESP payload, without parsing
/// the body.  True when the payload is a STATS_RESP with room for the
/// version; lets a scraper distinguish "peer speaks snapshot v<N>" from
/// "malformed bytes" when decode_stats_payload rejects (rlb_stat
/// --cluster renders a version-mismatch row instead of 'unreachable').
bool peek_stats_version(const std::uint8_t* data, std::size_t size,
                        std::uint32_t& version);

/// Prometheus text exposition (one `# TYPE` line per family, `{shard=...}`
/// and `{level=...}` labels, log2 latency buckets as a cumulative
/// histogram).
std::string render_prometheus(const StatsSnapshot& snapshot);

/// One-line JSON object (for --safe-set-log streams and bench output).
std::string render_json(const StatsSnapshot& snapshot);

}  // namespace rlb::net
