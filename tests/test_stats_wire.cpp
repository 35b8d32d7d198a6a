// Unit tests for the STATS wire channel (net/stats.hpp + the kStats /
// kStatsResponse opcodes in net/wire.hpp): snapshot codec round-trip,
// malformed-payload and version-mismatch rejection, frame classification,
// and the Prometheus / JSON renderings.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/stats.hpp"
#include "net/wire.hpp"

namespace rlb::net {
namespace {

/// A snapshot with every field populated, so the round-trip test covers
/// the full layout (including the vectors and the histogram array).
StatsSnapshot make_full_snapshot() {
  StatsSnapshot snapshot;
  snapshot.uptime_ms = 123456;
  snapshot.role = NodeRole::kRouter;
  snapshot.backend_id = 7;
  snapshot.policy = "greedy";
  snapshot.servers = 64;
  snapshot.replication = 4;
  snapshot.processing_rate = 4;
  snapshot.queue_capacity = 7;
  snapshot.shard_count = 2;
  for (std::uint32_t i = 0; i < 2; ++i) {
    ShardStats shard;
    shard.shard = i;
    shard.submitted = 1000 + i;
    shard.completed = 900 + i;
    shard.rejected_queue_full = 40;
    shard.rejected_all_down = 5;
    shard.rejected_admission = 30;
    shard.rejected_drop = 25 + i;
    shard.errors = i;
    shard.ticks = 5000;
    shard.batches = 4000;
    shard.batched_chunks = 12000;
    shard.max_batch = 32;
    shard.inbound_depth = 3;
    shard.waiting_depth = 2;
    shard.inflight = 1;
    shard.backlog = 17;
    shard.servers_down = i;
    shard.step_ns = 987654321;
    snapshot.shards.push_back(shard);
  }
  snapshot.latency.count = 1000;
  snapshot.latency.sum_us = 500000;
  snapshot.latency.max_us = 9000;
  for (std::size_t i = 0; i < kLatencyBuckets; ++i) {
    snapshot.latency.buckets[i] = i * 10;
  }
  // v3 per-hop histograms: distinct values per field so a swapped decode
  // (hop_rtt read into queue_wait or vice versa) fails the round trip.
  snapshot.hop_rtt.count = 77;
  snapshot.hop_rtt.sum_us = 35000;
  snapshot.hop_rtt.max_us = 4200;
  snapshot.hop_rtt.buckets[5] = 77;
  snapshot.queue_wait.count = 333;
  snapshot.queue_wait.sum_us = 9999;
  snapshot.queue_wait.max_us = 512;
  snapshot.queue_wait.buckets[3] = 333;
  snapshot.safe_set.push_back({1, 30, 32.0, 0.9375});
  snapshot.safe_set.push_back({2, 20, 16.0, 1.25});
  snapshot.safe_worst_ratio = 1.25;
  snapshot.safe_violated_level = 2;
  // v4 repair tier: distinct values per field so any decode transposition
  // fails the round trip.
  snapshot.placement_epoch = 11;
  snapshot.repair.migrations_done = 21;
  snapshot.repair.migrations_failed = 2;
  snapshot.repair.migrations_inflight = 1;
  snapshot.repair.chunks_pending = 5;
  snapshot.repair.bytes_sent = 86016;
  snapshot.repair.migrations_in = 13;
  snapshot.repair.migrations_out = 8;
  snapshot.repair.migration_bytes_in = 53248;
  snapshot.repair.migration_bytes_out = 32768;
  // v5 health plane: windowed deltas + alerts, distinct values per
  // histogram so a transposed decode fails the round trip.
  snapshot.window_span_ms = 9500;
  snapshot.win_submitted = 4200;
  snapshot.win_completed = 4100;
  snapshot.win_rejected = 100;
  snapshot.win_latency.count = 41;
  snapshot.win_latency.sum_us = 8200;
  snapshot.win_latency.max_us = 900;
  snapshot.win_latency.buckets[4] = 41;
  snapshot.win_hop_rtt.count = 7;
  snapshot.win_hop_rtt.sum_us = 1400;
  snapshot.win_hop_rtt.max_us = 300;
  snapshot.win_hop_rtt.buckets[6] = 7;
  snapshot.win_queue_wait.count = 19;
  snapshot.win_queue_wait.sum_us = 380;
  snapshot.win_queue_wait.max_us = 40;
  snapshot.win_queue_wait.buckets[2] = 19;
  snapshot.active_alerts = {"safe_set", "p99_jump"};
  return snapshot;
}

TEST(StatsCodec, RoundTripPreservesEveryField) {
  const StatsSnapshot original = make_full_snapshot();
  std::vector<std::uint8_t> payload;
  encode_stats_payload(original, payload);
  ASSERT_FALSE(payload.empty());
  EXPECT_EQ(payload[0], static_cast<std::uint8_t>(MsgType::kStatsResponse));

  StatsSnapshot decoded;
  ASSERT_TRUE(decode_stats_payload(payload.data(), payload.size(), decoded));
  EXPECT_EQ(decoded.version, kStatsVersion);
  EXPECT_EQ(decoded.uptime_ms, original.uptime_ms);
  EXPECT_EQ(decoded.role, original.role);
  EXPECT_EQ(decoded.backend_id, original.backend_id);
  EXPECT_EQ(decoded.policy, original.policy);
  EXPECT_EQ(decoded.servers, original.servers);
  EXPECT_EQ(decoded.replication, original.replication);
  EXPECT_EQ(decoded.processing_rate, original.processing_rate);
  EXPECT_EQ(decoded.queue_capacity, original.queue_capacity);
  EXPECT_EQ(decoded.shard_count, original.shard_count);
  ASSERT_EQ(decoded.shards.size(), original.shards.size());
  for (std::size_t i = 0; i < original.shards.size(); ++i) {
    const ShardStats& a = original.shards[i];
    const ShardStats& b = decoded.shards[i];
    EXPECT_EQ(b.shard, a.shard);
    EXPECT_EQ(b.submitted, a.submitted);
    EXPECT_EQ(b.completed, a.completed);
    EXPECT_EQ(b.rejected_queue_full, a.rejected_queue_full);
    EXPECT_EQ(b.rejected_all_down, a.rejected_all_down);
    EXPECT_EQ(b.rejected_admission, a.rejected_admission);
    EXPECT_EQ(b.rejected_drop, a.rejected_drop);
    EXPECT_EQ(b.errors, a.errors);
    EXPECT_EQ(b.ticks, a.ticks);
    EXPECT_EQ(b.batches, a.batches);
    EXPECT_EQ(b.batched_chunks, a.batched_chunks);
    EXPECT_EQ(b.max_batch, a.max_batch);
    EXPECT_EQ(b.inbound_depth, a.inbound_depth);
    EXPECT_EQ(b.waiting_depth, a.waiting_depth);
    EXPECT_EQ(b.inflight, a.inflight);
    EXPECT_EQ(b.backlog, a.backlog);
    EXPECT_EQ(b.servers_down, a.servers_down);
    EXPECT_EQ(b.step_ns, a.step_ns);
  }
  EXPECT_EQ(decoded.latency.count, original.latency.count);
  EXPECT_EQ(decoded.latency.sum_us, original.latency.sum_us);
  EXPECT_EQ(decoded.latency.max_us, original.latency.max_us);
  EXPECT_EQ(decoded.latency.buckets, original.latency.buckets);
  EXPECT_EQ(decoded.hop_rtt.count, original.hop_rtt.count);
  EXPECT_EQ(decoded.hop_rtt.sum_us, original.hop_rtt.sum_us);
  EXPECT_EQ(decoded.hop_rtt.max_us, original.hop_rtt.max_us);
  EXPECT_EQ(decoded.hop_rtt.buckets, original.hop_rtt.buckets);
  EXPECT_EQ(decoded.queue_wait.count, original.queue_wait.count);
  EXPECT_EQ(decoded.queue_wait.sum_us, original.queue_wait.sum_us);
  EXPECT_EQ(decoded.queue_wait.max_us, original.queue_wait.max_us);
  EXPECT_EQ(decoded.queue_wait.buckets, original.queue_wait.buckets);
  ASSERT_EQ(decoded.safe_set.size(), original.safe_set.size());
  for (std::size_t i = 0; i < original.safe_set.size(); ++i) {
    EXPECT_EQ(decoded.safe_set[i].level, original.safe_set[i].level);
    EXPECT_EQ(decoded.safe_set[i].observed, original.safe_set[i].observed);
    EXPECT_DOUBLE_EQ(decoded.safe_set[i].bound, original.safe_set[i].bound);
    EXPECT_DOUBLE_EQ(decoded.safe_set[i].ratio, original.safe_set[i].ratio);
  }
  EXPECT_DOUBLE_EQ(decoded.safe_worst_ratio, original.safe_worst_ratio);
  EXPECT_EQ(decoded.safe_violated_level, original.safe_violated_level);
  EXPECT_EQ(decoded.placement_epoch, original.placement_epoch);
  EXPECT_EQ(decoded.repair.migrations_done, original.repair.migrations_done);
  EXPECT_EQ(decoded.repair.migrations_failed,
            original.repair.migrations_failed);
  EXPECT_EQ(decoded.repair.migrations_inflight,
            original.repair.migrations_inflight);
  EXPECT_EQ(decoded.repair.chunks_pending, original.repair.chunks_pending);
  EXPECT_EQ(decoded.repair.bytes_sent, original.repair.bytes_sent);
  EXPECT_EQ(decoded.repair.migrations_in, original.repair.migrations_in);
  EXPECT_EQ(decoded.repair.migrations_out, original.repair.migrations_out);
  EXPECT_EQ(decoded.repair.migration_bytes_in,
            original.repair.migration_bytes_in);
  EXPECT_EQ(decoded.repair.migration_bytes_out,
            original.repair.migration_bytes_out);
  EXPECT_EQ(decoded.window_span_ms, original.window_span_ms);
  EXPECT_EQ(decoded.win_submitted, original.win_submitted);
  EXPECT_EQ(decoded.win_completed, original.win_completed);
  EXPECT_EQ(decoded.win_rejected, original.win_rejected);
  EXPECT_EQ(decoded.win_latency.count, original.win_latency.count);
  EXPECT_EQ(decoded.win_latency.buckets, original.win_latency.buckets);
  EXPECT_EQ(decoded.win_hop_rtt.count, original.win_hop_rtt.count);
  EXPECT_EQ(decoded.win_hop_rtt.buckets, original.win_hop_rtt.buckets);
  EXPECT_EQ(decoded.win_queue_wait.count, original.win_queue_wait.count);
  EXPECT_EQ(decoded.win_queue_wait.buckets, original.win_queue_wait.buckets);
  EXPECT_EQ(decoded.active_alerts, original.active_alerts);
}

TEST(StatsCodec, EmptySnapshotRoundTrips) {
  StatsSnapshot original;  // default-constructed: no shards, no safe set
  std::vector<std::uint8_t> payload;
  encode_stats_payload(original, payload);
  StatsSnapshot decoded;
  ASSERT_TRUE(decode_stats_payload(payload.data(), payload.size(), decoded));
  EXPECT_TRUE(decoded.shards.empty());
  EXPECT_TRUE(decoded.safe_set.empty());
  EXPECT_EQ(decoded.policy, "");
}

TEST(StatsCodec, TruncationAtEveryPrefixIsRejected) {
  std::vector<std::uint8_t> payload;
  encode_stats_payload(make_full_snapshot(), payload);
  StatsSnapshot decoded;
  // Every strict prefix must fail cleanly: either a cursor bounds check
  // or the final exhaustion check catches it.
  for (std::size_t size = 0; size < payload.size(); ++size) {
    EXPECT_FALSE(decode_stats_payload(payload.data(), size, decoded))
        << "prefix of " << size << " bytes decoded";
  }
}

TEST(StatsCodec, TrailingGarbageIsRejected) {
  std::vector<std::uint8_t> payload;
  encode_stats_payload(make_full_snapshot(), payload);
  payload.push_back(0xAB);
  StatsSnapshot decoded;
  EXPECT_FALSE(decode_stats_payload(payload.data(), payload.size(), decoded));
}

TEST(StatsCodec, VersionMismatchIsRejected) {
  std::vector<std::uint8_t> payload;
  encode_stats_payload(make_full_snapshot(), payload);
  // version is the u32 right after the type byte (little-endian)
  payload[1] = static_cast<std::uint8_t>(kStatsVersion + 1);
  StatsSnapshot decoded;
  EXPECT_FALSE(decode_stats_payload(payload.data(), payload.size(), decoded));
}

TEST(StatsCodec, VersionSkewIsRejectedNotMisparsed) {
  // A v5 node scraped by a v4-only decoder (or vice versa) must fail the
  // version check up front — never read v5 bytes as v4 fields.  The codec
  // checks the version word before touching any other field, so ANY other
  // version value is rejected no matter what follows.
  std::vector<std::uint8_t> payload;
  encode_stats_payload(make_full_snapshot(), payload);
  for (const std::uint8_t skewed :
       {static_cast<std::uint8_t>(kStatsVersion - 1),
        static_cast<std::uint8_t>(kStatsVersion + 1)}) {
    std::vector<std::uint8_t> patched = payload;
    patched[1] = skewed;
    StatsSnapshot decoded;
    decoded.placement_epoch = 0xDEAD;
    EXPECT_FALSE(
        decode_stats_payload(patched.data(), patched.size(), decoded));
  }
}

TEST(StatsCodec, PeekVersionReadsTheVersionWordOnly) {
  std::vector<std::uint8_t> payload;
  encode_stats_payload(make_full_snapshot(), payload);
  std::uint32_t version = 0;
  ASSERT_TRUE(peek_stats_version(payload.data(), payload.size(), version));
  EXPECT_EQ(version, kStatsVersion);

  // The peek works on a version-skewed (undecodable) payload — that is
  // its whole point: classifying the failure for StatsVersionMismatch.
  payload[1] = 4;
  payload[2] = 0;
  ASSERT_TRUE(peek_stats_version(payload.data(), payload.size(), version));
  EXPECT_EQ(version, 4u);

  // Too-short buffers and non-STATS_RESP type bytes don't peek.
  EXPECT_FALSE(peek_stats_version(payload.data(), 4, version));
  payload[0] = static_cast<std::uint8_t>(MsgType::kResponse);
  EXPECT_FALSE(peek_stats_version(payload.data(), payload.size(), version));
}

TEST(StatsCodec, UnknownRoleByteIsRejected) {
  std::vector<std::uint8_t> payload;
  encode_stats_payload(make_full_snapshot(), payload);
  // Layout: type u8, version u32, uptime u64 -> role byte at offset 13.
  ASSERT_GT(payload.size(), 13u);
  ASSERT_EQ(payload[13], static_cast<std::uint8_t>(NodeRole::kRouter));
  payload[13] = static_cast<std::uint8_t>(NodeRole::kRouter) + 1;
  StatsSnapshot decoded;
  EXPECT_FALSE(decode_stats_payload(payload.data(), payload.size(), decoded));
}

TEST(StatsCodec, WrongTypeByteIsRejected) {
  std::vector<std::uint8_t> payload;
  encode_stats_payload(make_full_snapshot(), payload);
  payload[0] = static_cast<std::uint8_t>(MsgType::kResponse);
  StatsSnapshot decoded;
  EXPECT_FALSE(decode_stats_payload(payload.data(), payload.size(), decoded));
}

TEST(StatsWire, StatsRequestRoundTripsThroughDecodePayload) {
  std::vector<std::uint8_t> frame;
  encode_stats_request(StatsRequestMsg{0xDEADBEEF}, frame);
  // Frame = u32 length prefix + payload.
  ASSERT_EQ(frame.size(), 4 + kStatsPayloadSize);
  RequestMsg request;
  ResponseMsg response;
  StatsRequestMsg stats;
  EXPECT_EQ(decode_payload(frame.data() + 4, frame.size() - 4, request,
                           response, stats),
            Decoded::kStats);
  EXPECT_EQ(stats.flags, 0xDEADBEEFu);
}

TEST(StatsWire, EpochedStatsRequestCarriesEpoch) {
  // A nonzero sender epoch switches to the extended 13-byte payload...
  std::vector<std::uint8_t> frame;
  encode_stats_request(StatsRequestMsg{7, 42}, frame);
  ASSERT_EQ(frame.size(), 4 + kStatsEpochPayloadSize);
  RequestMsg request;
  ResponseMsg response;
  StatsRequestMsg stats;
  EXPECT_EQ(decode_payload(frame.data() + 4, frame.size() - 4, request,
                           response, stats),
            Decoded::kStats);
  EXPECT_EQ(stats.flags, 7u);
  EXPECT_EQ(stats.epoch, 42u);

  // ...while epoch 0 keeps the legacy 5-byte form, so pre-repair peers
  // never see the extension.
  frame.clear();
  encode_stats_request(StatsRequestMsg{7, 0}, frame);
  ASSERT_EQ(frame.size(), 4 + kStatsPayloadSize);
  EXPECT_EQ(decode_payload(frame.data() + 4, frame.size() - 4, request,
                           response, stats),
            Decoded::kStats);
  EXPECT_EQ(stats.epoch, 0u);
}

TEST(StatsWire, StatsRequestWithWrongSizeIsMalformed) {
  std::vector<std::uint8_t> frame;
  encode_stats_request(StatsRequestMsg{1}, frame);
  RequestMsg request;
  ResponseMsg response;
  StatsRequestMsg stats;
  EXPECT_EQ(decode_payload(frame.data() + 4, frame.size() - 4 - 1, request,
                           response, stats),
            Decoded::kMalformed);
}

TEST(StatsWire, ResponseFrameWrapsPayloadAndRejectsOversize) {
  std::vector<std::uint8_t> payload;
  encode_stats_payload(make_full_snapshot(), payload);
  std::vector<std::uint8_t> frame;
  ASSERT_TRUE(encode_admin_response_frame(payload, frame));
  ASSERT_EQ(frame.size(), payload.size() + 4);

  // The framed payload classifies as kStatsResponse...
  RequestMsg request;
  ResponseMsg response;
  StatsRequestMsg stats;
  EXPECT_EQ(decode_payload(frame.data() + 4, frame.size() - 4, request,
                           response, stats),
            Decoded::kStatsResponse);
  // ...and still decodes to the snapshot.
  StatsSnapshot decoded;
  EXPECT_TRUE(decode_stats_payload(frame.data() + 4, frame.size() - 4,
                                   decoded));

  // A payload over the frame cap must be refused, not truncated.
  std::vector<std::uint8_t> oversize(kMaxFramePayload + 1,
                                     static_cast<std::uint8_t>(
                                         MsgType::kStatsResponse));
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(encode_admin_response_frame(oversize, out));
}

TEST(LatencyStats, QuantilesTrackTheLog2Buckets) {
  LatencyStats latency;
  // 90 samples in bucket 3 (us in (8, 16]), 10 in bucket 10.
  latency.buckets[3] = 90;
  latency.buckets[10] = 10;
  latency.count = 100;
  latency.max_us = 1500;
  EXPECT_DOUBLE_EQ(latency.quantile_us(0.5), 16.0);   // 2^(3+1)
  EXPECT_DOUBLE_EQ(latency.quantile_us(0.99), 2048.0);  // 2^(10+1)
  EXPECT_EQ(LatencyStats{}.quantile_us(0.5), 0.0);
}

TEST(StatsRender, PrometheusExpositionIsWellFormed) {
  const std::string text = render_prometheus(make_full_snapshot());
  EXPECT_NE(text.find("rlb_up 1\n"), std::string::npos);
  EXPECT_NE(text.find("rlb_engine_submitted_total{shard=\"0\"}"),
            std::string::npos);
  EXPECT_NE(text.find("rlb_engine_latency_us_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(text.find("rlb_router_hop_rtt_us_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(text.find("rlb_engine_queue_wait_us_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(text.find("rlb_safe_set_ratio{level=\"2\"}"), std::string::npos);
  EXPECT_NE(text.find("rlb_safe_set_worst_ratio"), std::string::npos);
  EXPECT_NE(text.find("rlb_placement_epoch 11\n"), std::string::npos);
  EXPECT_NE(text.find("rlb_repair_migrations_done_total 21\n"),
            std::string::npos);
  EXPECT_NE(text.find("rlb_repair_chunks_pending 5\n"), std::string::npos);
  EXPECT_NE(text.find("rlb_win_span_ms 9500\n"), std::string::npos);
  EXPECT_NE(text.find("rlb_win_completed 4100\n"), std::string::npos);
  EXPECT_NE(text.find("rlb_win_latency_us_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(text.find("rlb_alert_active{rule=\"safe_set\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("rlb_alert_active{rule=\"p99_jump\"} 1\n"),
            std::string::npos);
  // Every non-comment line splits into `body value` with a numeric value.
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_GT(space, 0u) << line;
    const std::string value = line.substr(space + 1);
    std::size_t pos = 0;
    EXPECT_NO_THROW({
      (void)std::stod(value, &pos);
      EXPECT_EQ(pos, value.size()) << line;
    }) << line;
  }
}

TEST(StatsRender, JsonCarriesTotalsAndSafeSet) {
  const std::string json = render_json(make_full_snapshot());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  // Totals sum the two shard rows (1000 + 1001 submitted).
  EXPECT_NE(json.find("\"submitted\":2001"), std::string::npos);
  EXPECT_NE(json.find("\"hop_rtt_count\":77"), std::string::npos);
  EXPECT_NE(json.find("\"queue_wait_count\":333"), std::string::npos);
  EXPECT_NE(json.find("\"safe_worst_ratio\":1.25"), std::string::npos);
  EXPECT_NE(json.find("\"safe_violated_level\":2"), std::string::npos);
  EXPECT_NE(json.find("\"placement_epoch\":11"), std::string::npos);
  EXPECT_NE(json.find("\"migrations_done\":21"), std::string::npos);
  EXPECT_NE(json.find("\"policy\":\"greedy\""), std::string::npos);
  // v5 additions are strictly additive keys (existing consumers keep
  // parsing): the windowed block and the active-alert list.
  EXPECT_NE(json.find("\"window\":{\"span_ms\":9500"), std::string::npos);
  EXPECT_NE(json.find("\"alerts\":[\"safe_set\",\"p99_jump\"]"),
            std::string::npos);
}

TEST(StatsRender, RoleAndBackendIdAppearInBothRenderings) {
  const StatsSnapshot snapshot = make_full_snapshot();
  const std::string prom = render_prometheus(snapshot);
  EXPECT_NE(prom.find("role=\"router\""), std::string::npos);
  EXPECT_NE(prom.find("backend_id=\"7\""), std::string::npos);
  const std::string json = render_json(snapshot);
  EXPECT_NE(json.find("\"role\":\"router\""), std::string::npos);
  EXPECT_NE(json.find("\"backend_id\":7"), std::string::npos);
}

}  // namespace
}  // namespace rlb::net
