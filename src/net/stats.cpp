#include "net/stats.hpp"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "net/wire.hpp"

namespace rlb::net {

namespace {

/// Bytes one encoded ShardStats row takes (u32 shard + 17 u64 counters).
constexpr std::size_t kShardRowBytes = 4 + 17 * 8;

void encode_shard(codec::Writer& w, const ShardStats& s) {
  w.u32(s.shard);
  for (const std::uint64_t v :
       {s.submitted, s.completed, s.rejected_queue_full, s.rejected_all_down,
        s.rejected_admission, s.rejected_drop, s.errors, s.ticks, s.batches,
        s.batched_chunks, s.max_batch, s.inbound_depth, s.waiting_depth,
        s.inflight, s.backlog, s.servers_down, s.step_ns}) {
    w.u64(v);
  }
}

void decode_shard(codec::Reader& r, ShardStats& s) {
  s.shard = r.u32();
  for (std::uint64_t* v :
       {&s.submitted, &s.completed, &s.rejected_queue_full,
        &s.rejected_all_down, &s.rejected_admission, &s.rejected_drop,
        &s.errors, &s.ticks, &s.batches, &s.batched_chunks, &s.max_batch,
        &s.inbound_depth, &s.waiting_depth, &s.inflight, &s.backlog,
        &s.servers_down, &s.step_ns}) {
    *v = r.u64();
  }
}

void encode_latency(codec::Writer& w, const LatencyStats& h) {
  w.u64(h.count);
  w.u64(h.sum_us);
  w.u64(h.max_us);
  for (const std::uint64_t b : h.buckets) w.u64(b);
}

void decode_latency(codec::Reader& r, LatencyStats& h) {
  h.count = r.u64();
  h.sum_us = r.u64();
  h.max_us = r.u64();
  for (std::uint64_t& b : h.buckets) b = r.u64();
}

void encode_repair(codec::Writer& w, const RepairStats& s) {
  for (const std::uint64_t v :
       {s.migrations_done, s.migrations_failed, s.migrations_inflight,
        s.chunks_pending, s.bytes_sent, s.migrations_in, s.migrations_out,
        s.migration_bytes_in, s.migration_bytes_out}) {
    w.u64(v);
  }
}

void decode_repair(codec::Reader& r, RepairStats& s) {
  for (std::uint64_t* v :
       {&s.migrations_done, &s.migrations_failed, &s.migrations_inflight,
        &s.chunks_pending, &s.bytes_sent, &s.migrations_in,
        &s.migrations_out, &s.migration_bytes_in, &s.migration_bytes_out}) {
    *v = r.u64();
  }
}

}  // namespace

const char* to_string(NodeRole role) noexcept {
  switch (role) {
    case NodeRole::kBackend:
      return "backend";
    case NodeRole::kRouter:
      return "router";
  }
  return "unknown";
}

void LatencyStats::observe_us(std::uint64_t us) {
  ++count;
  sum_us += us;
  if (us > max_us) max_us = us;
  const std::size_t bucket =
      us <= 1 ? 0
              : std::min<std::size_t>(
                    static_cast<std::size_t>(std::bit_width(us)) - 1,
                    kLatencyBuckets - 1);
  ++buckets[bucket];
}

double LatencyStats::quantile_us(double q) const {
  if (count == 0 || q <= 0.0) return 0.0;
  if (q >= 1.0) return static_cast<double>(max_us);
  const double rank = q * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (static_cast<double>(seen) >= rank) {
      // Upper edge of bucket i: samples in [2^i, 2^(i+1)).
      const unsigned shift = static_cast<unsigned>(i + 1 > 62 ? 62 : i + 1);
      return static_cast<double>(1ULL << shift);
    }
  }
  return static_cast<double>(max_us);
}

ShardStats StatsSnapshot::totals() const {
  ShardStats t;
  for (const ShardStats& s : shards) {
    t.submitted += s.submitted;
    t.completed += s.completed;
    t.rejected_queue_full += s.rejected_queue_full;
    t.rejected_all_down += s.rejected_all_down;
    t.rejected_admission += s.rejected_admission;
    t.rejected_drop += s.rejected_drop;
    t.errors += s.errors;
    t.ticks += s.ticks;
    t.batches += s.batches;
    t.batched_chunks += s.batched_chunks;
    t.max_batch = s.max_batch > t.max_batch ? s.max_batch : t.max_batch;
    t.inbound_depth += s.inbound_depth;
    t.waiting_depth += s.waiting_depth;
    t.inflight += s.inflight;
    t.backlog += s.backlog;
    t.servers_down += s.servers_down;
    t.step_ns += s.step_ns;
  }
  return t;
}

void encode_admin_version(codec::Writer& w, MsgType type,
                          std::uint32_t version) {
  w.u8(static_cast<std::uint8_t>(type));
  w.u32(version);
}

bool decode_admin_version(codec::Reader& r, MsgType type, std::uint32_t want,
                          std::uint32_t& version) {
  if (r.u8() != static_cast<std::uint8_t>(type)) return false;
  version = r.u32();
  return r.ok() && version == want;
}

void encode_node(codec::Writer& w, NodeRole role, std::uint32_t backend_id) {
  w.u8(static_cast<std::uint8_t>(role));
  w.u32(backend_id);
}

bool decode_node(codec::Reader& r, NodeRole& role, std::uint32_t& backend_id) {
  const std::uint8_t byte = r.u8();
  if (byte > static_cast<std::uint8_t>(NodeRole::kRouter)) r.fail();
  role = static_cast<NodeRole>(byte);
  backend_id = r.u32();
  return r.ok();
}

std::string DrainEnvelope::label() const {
  return role == NodeRole::kRouter ? "router"
                                   : "backend-" + std::to_string(backend_id);
}

void encode_envelope(codec::Writer& w, MsgType type,
                     const DrainEnvelope& env) {
  encode_admin_version(w, type, env.version);
  encode_node(w, env.role, env.backend_id);
  w.u64(env.steady_ns);
  w.u64(env.wall_ns);
  w.u64(env.dropped);
}

bool decode_envelope(codec::Reader& r, MsgType type, std::uint32_t version,
                     DrainEnvelope& env) {
  if (!decode_admin_version(r, type, version, env.version) ||
      !decode_node(r, env.role, env.backend_id)) {
    return false;
  }
  env.steady_ns = r.u64();
  env.wall_ns = r.u64();
  env.dropped = r.u64();
  return r.ok();
}

void encode_stats_payload(const StatsSnapshot& snapshot,
                          std::vector<std::uint8_t>& out) {
  codec::Writer w(out);
  encode_admin_version(w, MsgType::kStatsResponse, snapshot.version);
  w.u64(snapshot.uptime_ms);
  encode_node(w, snapshot.role, snapshot.backend_id);
  w.str16(snapshot.policy);
  w.u32(snapshot.servers);
  w.u32(snapshot.replication);
  w.u32(snapshot.processing_rate);
  w.u32(snapshot.queue_capacity);
  w.u32(snapshot.shard_count);

  w.u32(static_cast<std::uint32_t>(snapshot.shards.size()));
  for (const ShardStats& s : snapshot.shards) encode_shard(w, s);

  // v3: per-hop decomposition histograms, same layout as `latency`.
  encode_latency(w, snapshot.latency);
  encode_latency(w, snapshot.hop_rtt);
  encode_latency(w, snapshot.queue_wait);

  w.u32(static_cast<std::uint32_t>(snapshot.safe_set.size()));
  for (const SafeSetLevelStats& level : snapshot.safe_set) {
    w.u32(level.level);
    w.u64(level.observed);
    w.f64(level.bound);
    w.f64(level.ratio);
  }
  w.f64(snapshot.safe_worst_ratio);
  w.u32(snapshot.safe_violated_level);

  // v4: placement epoch + repair counters.
  w.u64(snapshot.placement_epoch);
  encode_repair(w, snapshot.repair);

  // v5: windowed deltas + active alerts (health plane).
  w.u64(snapshot.window_span_ms);
  w.u64(snapshot.win_submitted);
  w.u64(snapshot.win_completed);
  w.u64(snapshot.win_rejected);
  encode_latency(w, snapshot.win_latency);
  encode_latency(w, snapshot.win_hop_rtt);
  encode_latency(w, snapshot.win_queue_wait);
  w.u32(static_cast<std::uint32_t>(snapshot.active_alerts.size()));
  for (const std::string& alert : snapshot.active_alerts) w.str16(alert);
}

bool decode_stats_payload(const std::uint8_t* data, std::size_t size,
                          StatsSnapshot& out) {
  codec::Reader r(data, size);
  if (!decode_admin_version(r, MsgType::kStatsResponse, kStatsVersion,
                            out.version)) {
    return false;
  }
  out.uptime_ms = r.u64();
  if (!decode_node(r, out.role, out.backend_id)) return false;
  out.policy = r.str16();
  out.servers = r.u32();
  out.replication = r.u32();
  out.processing_rate = r.u32();
  out.queue_capacity = r.u32();
  out.shard_count = r.u32();

  const std::uint32_t shard_rows = r.u32();
  if (!r.fits(shard_rows, kShardRowBytes)) return false;
  out.shards.assign(shard_rows, ShardStats{});
  for (ShardStats& s : out.shards) decode_shard(r, s);

  decode_latency(r, out.latency);
  decode_latency(r, out.hop_rtt);
  decode_latency(r, out.queue_wait);

  // u32 level + u64 observed + f64 bound + f64 ratio.
  const std::uint32_t levels = r.u32();
  if (!r.fits(levels, 28)) return false;
  out.safe_set.assign(levels, SafeSetLevelStats{});
  for (SafeSetLevelStats& level : out.safe_set) {
    level.level = r.u32();
    level.observed = r.u64();
    level.bound = r.f64();
    level.ratio = r.f64();
  }
  out.safe_worst_ratio = r.f64();
  out.safe_violated_level = r.u32();

  out.placement_epoch = r.u64();
  decode_repair(r, out.repair);

  out.window_span_ms = r.u64();
  out.win_submitted = r.u64();
  out.win_completed = r.u64();
  out.win_rejected = r.u64();
  decode_latency(r, out.win_latency);
  decode_latency(r, out.win_hop_rtt);
  decode_latency(r, out.win_queue_wait);

  // Each alert is at least its u16 length.
  const std::uint32_t alerts = r.u32();
  if (!r.fits(alerts, 2)) return false;
  out.active_alerts.assign(alerts, std::string());
  for (std::string& alert : out.active_alerts) alert = r.str16();
  return r.done();
}

bool peek_stats_version(const std::uint8_t* data, std::size_t size,
                        std::uint32_t& version) {
  codec::Reader r(data, size);
  if (r.u8() != static_cast<std::uint8_t>(MsgType::kStatsResponse)) {
    return false;
  }
  version = r.u32();
  return r.ok();
}

namespace {

void append_fmt(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void append_fmt(std::string& out, const char* fmt, ...) {
  char buffer[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  if (n > 0) out.append(buffer, static_cast<std::size_t>(n));
}

void prom_shard_counter(std::string& out, const StatsSnapshot& snapshot,
                        const char* name, const char* help,
                        std::uint64_t ShardStats::* field,
                        const char* type = "counter") {
  append_fmt(out, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, type);
  for (const ShardStats& s : snapshot.shards) {
    append_fmt(out, "%s{shard=\"%" PRIu32 "\"} %" PRIu64 "\n", name, s.shard,
               s.*field);
  }
}

void prom_histogram(std::string& out, const char* name, const char* help,
                    const LatencyStats& h) {
  append_fmt(out, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    cumulative += h.buckets[i];
    const unsigned shift = static_cast<unsigned>(i + 1 > 62 ? 62 : i + 1);
    append_fmt(out, "%s_bucket{le=\"%" PRIu64 "\"} %" PRIu64 "\n", name,
               static_cast<std::uint64_t>(1ULL << shift), cumulative);
  }
  append_fmt(out, "%s_bucket{le=\"+Inf\"} %" PRIu64 "\n", name, h.count);
  append_fmt(out, "%s_sum %" PRIu64 "\n", name, h.sum_us);
  append_fmt(out, "%s_count %" PRIu64 "\n", name, h.count);
}

}  // namespace

std::string render_prometheus(const StatsSnapshot& snapshot) {
  std::string out;
  out.reserve(4096);
  out += "# HELP rlb_up Daemon liveness.\n# TYPE rlb_up gauge\nrlb_up 1\n";
  out += "# TYPE rlb_uptime_ms gauge\n";
  append_fmt(out, "rlb_uptime_ms %" PRIu64 "\n", snapshot.uptime_ms);
  append_fmt(out,
             "rlb_engine_info{policy=\"%s\",role=\"%s\",backend_id=\"%" PRIu32
             "\",servers=\"%" PRIu32
             "\",replication=\"%" PRIu32 "\",rate=\"%" PRIu32
             "\",queue_capacity=\"%" PRIu32 "\",shards=\"%" PRIu32 "\"} 1\n",
             snapshot.policy.c_str(), to_string(snapshot.role),
             snapshot.backend_id, snapshot.servers, snapshot.replication,
             snapshot.processing_rate, snapshot.queue_capacity,
             snapshot.shard_count);

  prom_shard_counter(out, snapshot, "rlb_engine_submitted_total",
                     "Requests accepted into a shard's inbound queue.",
                     &ShardStats::submitted);
  prom_shard_counter(out, snapshot, "rlb_engine_completed_total",
                     "Requests served.", &ShardStats::completed);
  prom_shard_counter(out, snapshot, "rlb_engine_rejected_queue_full_total",
                     "Rejections: bounded server queue full (q-bound rule).",
                     &ShardStats::rejected_queue_full);
  prom_shard_counter(out, snapshot, "rlb_engine_rejected_all_down_total",
                     "Rejections: every replica of the chunk was down.",
                     &ShardStats::rejected_all_down);
  prom_shard_counter(out, snapshot, "rlb_engine_rejected_admission_total",
                     "Rejections: shard waiting room overflow.",
                     &ShardStats::rejected_admission);
  prom_shard_counter(out, snapshot, "rlb_engine_rejected_drop_total",
                     "Rejections: dropped in a queue dump or drain flush.",
                     &ShardStats::rejected_drop);
  prom_shard_counter(out, snapshot, "rlb_engine_errors_total",
                     "Requests answered kError (e.g. shutdown drain).",
                     &ShardStats::errors);
  prom_shard_counter(out, snapshot, "rlb_engine_ticks_total",
                     "Worker loop iterations.", &ShardStats::ticks);
  prom_shard_counter(out, snapshot, "rlb_engine_batches_total",
                     "Ticks that stepped a non-empty micro-batch.",
                     &ShardStats::batches);
  prom_shard_counter(out, snapshot, "rlb_engine_batched_chunks_total",
                     "Distinct chunks stepped, summed over batches.",
                     &ShardStats::batched_chunks);
  prom_shard_counter(out, snapshot, "rlb_engine_step_ns_total",
                     "Nanoseconds spent inside balancer step().",
                     &ShardStats::step_ns);
  prom_shard_counter(out, snapshot, "rlb_engine_inbound_depth",
                     "Requests queued ahead of the shard worker.",
                     &ShardStats::inbound_depth, "gauge");
  prom_shard_counter(out, snapshot, "rlb_engine_waiting_depth",
                     "Waiting-room occupancy.", &ShardStats::waiting_depth,
                     "gauge");
  prom_shard_counter(out, snapshot, "rlb_engine_inflight",
                     "Requests inside the balancer (queued on servers).",
                     &ShardStats::inflight, "gauge");
  prom_shard_counter(out, snapshot, "rlb_engine_backlog",
                     "Sum of server backlogs in the shard.",
                     &ShardStats::backlog, "gauge");
  prom_shard_counter(out, snapshot, "rlb_engine_servers_down",
                     "Servers currently marked down.",
                     &ShardStats::servers_down, "gauge");

  prom_histogram(out, "rlb_engine_latency_us",
                 "Wire-to-response latency (microseconds).",
                 snapshot.latency);
  prom_histogram(out, "rlb_router_hop_rtt_us",
                 "Router-side upstream hop round trip (microseconds), one "
                 "sample per forward attempt.",
                 snapshot.hop_rtt);
  prom_histogram(out, "rlb_engine_queue_wait_us",
                 "Submit-to-drain-tick wait inside the engine's inbound "
                 "queue + waiting room (microseconds).",
                 snapshot.queue_wait);

  out +=
      "# HELP rlb_safe_set_observed Servers with backlog > j (Def 3.2).\n"
      "# TYPE rlb_safe_set_observed gauge\n";
  for (const SafeSetLevelStats& level : snapshot.safe_set) {
    append_fmt(out, "rlb_safe_set_observed{level=\"%" PRIu32 "\"} %" PRIu64
               "\n",
               level.level, level.observed);
  }
  out += "# TYPE rlb_safe_set_bound gauge\n";
  for (const SafeSetLevelStats& level : snapshot.safe_set) {
    append_fmt(out, "rlb_safe_set_bound{level=\"%" PRIu32 "\"} %g\n",
               level.level, level.bound);
  }
  out += "# TYPE rlb_safe_set_ratio gauge\n";
  for (const SafeSetLevelStats& level : snapshot.safe_set) {
    append_fmt(out, "rlb_safe_set_ratio{level=\"%" PRIu32 "\"} %g\n",
               level.level, level.ratio);
  }
  out +=
      "# HELP rlb_safe_set_worst_ratio Max over j of observed/(m/2^j); <= 1 "
      "iff the backlog distribution is safe.\n"
      "# TYPE rlb_safe_set_worst_ratio gauge\n";
  append_fmt(out, "rlb_safe_set_worst_ratio %g\n", snapshot.safe_worst_ratio);
  out += "# TYPE rlb_safe_set_violated_level gauge\n";
  append_fmt(out, "rlb_safe_set_violated_level %" PRIu32 "\n",
             snapshot.safe_violated_level);

  out +=
      "# HELP rlb_placement_epoch Current placement epoch (0 = no repair "
      "cutover yet).\n# TYPE rlb_placement_epoch gauge\n";
  append_fmt(out, "rlb_placement_epoch %" PRIu64 "\n",
             snapshot.placement_epoch);
  out += "# TYPE rlb_repair_migrations_done_total counter\n";
  append_fmt(out, "rlb_repair_migrations_done_total %" PRIu64 "\n",
             snapshot.repair.migrations_done);
  out += "# TYPE rlb_repair_migrations_failed_total counter\n";
  append_fmt(out, "rlb_repair_migrations_failed_total %" PRIu64 "\n",
             snapshot.repair.migrations_failed);
  out += "# TYPE rlb_repair_migrations_inflight gauge\n";
  append_fmt(out, "rlb_repair_migrations_inflight %" PRIu64 "\n",
             snapshot.repair.migrations_inflight);
  out += "# TYPE rlb_repair_chunks_pending gauge\n";
  append_fmt(out, "rlb_repair_chunks_pending %" PRIu64 "\n",
             snapshot.repair.chunks_pending);
  out += "# TYPE rlb_repair_bytes_sent_total counter\n";
  append_fmt(out, "rlb_repair_bytes_sent_total %" PRIu64 "\n",
             snapshot.repair.bytes_sent);
  out += "# TYPE rlb_migrations_in_total counter\n";
  append_fmt(out, "rlb_migrations_in_total %" PRIu64 "\n",
             snapshot.repair.migrations_in);
  out += "# TYPE rlb_migrations_out_total counter\n";
  append_fmt(out, "rlb_migrations_out_total %" PRIu64 "\n",
             snapshot.repair.migrations_out);
  out += "# TYPE rlb_migration_bytes_in_total counter\n";
  append_fmt(out, "rlb_migration_bytes_in_total %" PRIu64 "\n",
             snapshot.repair.migration_bytes_in);
  out += "# TYPE rlb_migration_bytes_out_total counter\n";
  append_fmt(out, "rlb_migration_bytes_out_total %" PRIu64 "\n",
             snapshot.repair.migration_bytes_out);

  out +=
      "# HELP rlb_win_span_ms Wall time covered by the windowed deltas "
      "below (0 = no windowed data).\n# TYPE rlb_win_span_ms gauge\n";
  append_fmt(out, "rlb_win_span_ms %" PRIu64 "\n", snapshot.window_span_ms);
  out += "# TYPE rlb_win_submitted gauge\n";
  append_fmt(out, "rlb_win_submitted %" PRIu64 "\n", snapshot.win_submitted);
  out += "# TYPE rlb_win_completed gauge\n";
  append_fmt(out, "rlb_win_completed %" PRIu64 "\n", snapshot.win_completed);
  out += "# TYPE rlb_win_rejected gauge\n";
  append_fmt(out, "rlb_win_rejected %" PRIu64 "\n", snapshot.win_rejected);
  prom_histogram(out, "rlb_win_latency_us",
                 "Wire-to-response latency over the trailing window "
                 "(microseconds).",
                 snapshot.win_latency);
  prom_histogram(out, "rlb_win_hop_rtt_us",
                 "Upstream hop round trip over the trailing window "
                 "(microseconds).",
                 snapshot.win_hop_rtt);
  prom_histogram(out, "rlb_win_queue_wait_us",
                 "Queue wait over the trailing window (microseconds).",
                 snapshot.win_queue_wait);

  out +=
      "# HELP rlb_alert_active Watchdog alert currently raised "
      "(absent rule = not firing).\n# TYPE rlb_alert_active gauge\n";
  for (const std::string& alert : snapshot.active_alerts) {
    append_fmt(out, "rlb_alert_active{rule=\"%s\"} 1\n", alert.c_str());
  }
  return out;
}

std::string render_json(const StatsSnapshot& snapshot) {
  const ShardStats t = snapshot.totals();
  std::string out = "{";
  append_fmt(out, "\"uptime_ms\":%" PRIu64 ",", snapshot.uptime_ms);
  append_fmt(out, "\"role\":\"%s\",\"backend_id\":%" PRIu32 ",",
             to_string(snapshot.role), snapshot.backend_id);
  append_fmt(out, "\"policy\":\"%s\",", snapshot.policy.c_str());
  append_fmt(out, "\"servers\":%" PRIu32 ",\"shards\":%" PRIu32 ",",
             snapshot.servers, snapshot.shard_count);
  append_fmt(out,
             "\"submitted\":%" PRIu64 ",\"completed\":%" PRIu64
             ",\"rejected_queue_full\":%" PRIu64
             ",\"rejected_all_down\":%" PRIu64
             ",\"rejected_admission\":%" PRIu64 ",\"rejected_drop\":%" PRIu64
             ",\"errors\":%" PRIu64 ",",
             t.submitted, t.completed, t.rejected_queue_full,
             t.rejected_all_down, t.rejected_admission, t.rejected_drop,
             t.errors);
  append_fmt(out,
             "\"inbound_depth\":%" PRIu64 ",\"waiting_depth\":%" PRIu64
             ",\"inflight\":%" PRIu64 ",\"backlog\":%" PRIu64
             ",\"servers_down\":%" PRIu64 ",",
             t.inbound_depth, t.waiting_depth, t.inflight, t.backlog,
             t.servers_down);
  append_fmt(out,
             "\"latency_p50_us\":%g,\"latency_p99_us\":%g,"
             "\"latency_max_us\":%" PRIu64 ",",
             snapshot.latency.quantile_us(0.5),
             snapshot.latency.quantile_us(0.99), snapshot.latency.max_us);
  append_fmt(out,
             "\"hop_rtt_count\":%" PRIu64
             ",\"hop_rtt_p50_us\":%g,\"hop_rtt_p99_us\":%g,"
             "\"hop_rtt_max_us\":%" PRIu64 ",",
             snapshot.hop_rtt.count, snapshot.hop_rtt.quantile_us(0.5),
             snapshot.hop_rtt.quantile_us(0.99), snapshot.hop_rtt.max_us);
  append_fmt(out,
             "\"queue_wait_count\":%" PRIu64
             ",\"queue_wait_p50_us\":%g,\"queue_wait_p99_us\":%g,"
             "\"queue_wait_max_us\":%" PRIu64 ",",
             snapshot.queue_wait.count, snapshot.queue_wait.quantile_us(0.5),
             snapshot.queue_wait.quantile_us(0.99),
             snapshot.queue_wait.max_us);
  out += "\"safe_set\":[";
  for (std::size_t i = 0; i < snapshot.safe_set.size(); ++i) {
    const SafeSetLevelStats& level = snapshot.safe_set[i];
    append_fmt(out,
               "%s{\"level\":%" PRIu32 ",\"observed\":%" PRIu64
               ",\"bound\":%g,\"ratio\":%g}",
               i == 0 ? "" : ",", level.level, level.observed, level.bound,
               level.ratio);
  }
  out += "],";
  append_fmt(out, "\"safe_worst_ratio\":%g,\"safe_violated_level\":%" PRIu32
             ",",
             snapshot.safe_worst_ratio, snapshot.safe_violated_level);
  append_fmt(out,
             "\"placement_epoch\":%" PRIu64
             ",\"repair\":{\"migrations_done\":%" PRIu64
             ",\"migrations_failed\":%" PRIu64
             ",\"migrations_inflight\":%" PRIu64
             ",\"chunks_pending\":%" PRIu64 ",\"bytes_sent\":%" PRIu64
             ",\"migrations_in\":%" PRIu64 ",\"migrations_out\":%" PRIu64
             ",\"migration_bytes_in\":%" PRIu64
             ",\"migration_bytes_out\":%" PRIu64 "}",
             snapshot.placement_epoch, snapshot.repair.migrations_done,
             snapshot.repair.migrations_failed,
             snapshot.repair.migrations_inflight,
             snapshot.repair.chunks_pending, snapshot.repair.bytes_sent,
             snapshot.repair.migrations_in, snapshot.repair.migrations_out,
             snapshot.repair.migration_bytes_in,
             snapshot.repair.migration_bytes_out);
  append_fmt(out,
             ",\"window\":{\"span_ms\":%" PRIu64 ",\"submitted\":%" PRIu64
             ",\"completed\":%" PRIu64 ",\"rejected\":%" PRIu64
             ",\"latency_p50_us\":%g,\"latency_p99_us\":%g"
             ",\"hop_rtt_p99_us\":%g,\"queue_wait_p99_us\":%g}",
             snapshot.window_span_ms, snapshot.win_submitted,
             snapshot.win_completed, snapshot.win_rejected,
             snapshot.win_latency.quantile_us(0.5),
             snapshot.win_latency.quantile_us(0.99),
             snapshot.win_hop_rtt.quantile_us(0.99),
             snapshot.win_queue_wait.quantile_us(0.99));
  out += ",\"alerts\":[";
  for (std::size_t i = 0; i < snapshot.active_alerts.size(); ++i) {
    append_fmt(out, "%s\"%s\"", i == 0 ? "" : ",",
               snapshot.active_alerts[i].c_str());
  }
  out += "]}";
  return out;
}

}  // namespace rlb::net
