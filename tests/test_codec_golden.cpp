// Golden-byte vectors for every wire and file encoder, plus one
// table-driven truncation/trailing-byte test over every decoder.
//
// Round-trip tests pass whenever an encoder and its decoder change
// together, so they cannot show that the byte format held.  These tests
// pin the exact bytes a fixed input encodes to: REQUEST (v1 and traced),
// RESPONSE, STATS (v1 and epoch) and STATS_RESP, TRACE and TRACE_RESP,
// EVENTS and EVENTS_RESP, MIGRATE / MIGRATE_DATA / MIGRATE_ACK,
// PlacementDelta and RLBT trace files.  A vector that changes is a wire
// break for mixed-version clusters, not a test to update.
//
// The decoded payloads double as the seed corpus for decoder fuzzing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/placement_epoch.hpp"
#include "net/events_wire.hpp"
#include "net/stats.hpp"
#include "net/trace_wire.hpp"
#include "net/wire.hpp"
#include "workloads/trace.hpp"

namespace rlb {
namespace {

std::string hex(const std::vector<std::uint8_t>& bytes) {
  std::string out;
  char buf[3];
  for (const std::uint8_t b : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", b);
    out += buf;
  }
  return out;
}

std::vector<std::uint8_t> payload_of(const std::vector<std::uint8_t>& frame) {
  return std::vector<std::uint8_t>(frame.begin() + 4, frame.end());
}

net::RequestMsg golden_request(bool traced) {
  net::RequestMsg msg;
  msg.request_id = 0x0102030405060708ULL;
  msg.key = 0x1112131415161718ULL;
  if (traced) {
    msg.trace.trace_id = 0x2122232425262728ULL;
    msg.trace.parent_span_id = 0x3132333435363738ULL;
    msg.trace.flags = 0x01;
  }
  return msg;
}

net::ResponseMsg golden_response() {
  net::ResponseMsg msg;
  msg.request_id = 0x0102030405060708ULL;
  msg.status = net::Status::kRejectUpstreamDown;
  msg.server = 0x41424344;
  msg.wait_steps = 0x51525354;
  return msg;
}

net::StatsSnapshot golden_stats() {
  net::StatsSnapshot s;
  s.uptime_ms = 0x0A0B0C0D0E0F1011ULL;
  s.role = net::NodeRole::kRouter;
  s.backend_id = 0x21222324;
  s.policy = "greedy";
  s.servers = 64;
  s.replication = 2;
  s.processing_rate = 4;
  s.queue_capacity = 7;
  s.shard_count = 2;
  for (std::uint32_t i = 0; i < 2; ++i) {
    net::ShardStats row;
    row.shard = i;
    row.submitted = 1000 + i;
    row.completed = 900 + i;
    row.rejected_queue_full = 3;
    row.rejected_all_down = 4;
    row.rejected_admission = 5;
    row.rejected_drop = 6;
    row.errors = 7;
    row.ticks = 8;
    row.batches = 9;
    row.batched_chunks = 10;
    row.max_batch = 11;
    row.inbound_depth = 12;
    row.waiting_depth = 13;
    row.inflight = 14;
    row.backlog = 15;
    row.servers_down = 16;
    row.step_ns = 0x1718191A1B1C1D1EULL;
    s.shards.push_back(row);
  }
  s.latency.observe_us(3);
  s.latency.observe_us(700);
  s.hop_rtt.observe_us(40);
  s.queue_wait.observe_us(1);
  s.safe_set.push_back({1, 5, 32.0, 0.15625});
  s.safe_set.push_back({2, 1, 16.0, 0.0625});
  s.safe_worst_ratio = 0.15625;
  s.safe_violated_level = 0;
  s.placement_epoch = 3;
  s.repair.migrations_done = 1;
  s.repair.migrations_failed = 2;
  s.repair.migrations_inflight = 3;
  s.repair.chunks_pending = 4;
  s.repair.bytes_sent = 5;
  s.repair.migrations_in = 6;
  s.repair.migrations_out = 7;
  s.repair.migration_bytes_in = 8;
  s.repair.migration_bytes_out = 9;
  s.window_span_ms = 10000;
  s.win_submitted = 11;
  s.win_completed = 12;
  s.win_rejected = 13;
  s.win_latency.observe_us(90);
  s.win_hop_rtt.observe_us(2);
  s.win_queue_wait.observe_us(5000);
  s.active_alerts = {"backend_down", "safe_set"};
  return s;
}

net::TraceSnapshot golden_trace() {
  net::TraceSnapshot s;
  s.role = net::NodeRole::kBackend;
  s.backend_id = 7;
  s.steady_ns = 0x0102030405060708ULL;
  s.wall_ns = 0x1112131415161718ULL;
  s.dropped = 2;
  s.remaining = 3;
  obs::Span a;
  a.trace_id = 0xA1;
  a.span_id = 0xA2;
  a.parent_span_id = 0xA3;
  a.start_ns = 1000;
  a.end_ns = 2500;
  a.queue_depth = 4;
  a.name = "engine.request";
  a.shard = 1;
  a.tid = 2;
  a.flags = 1;
  a.cause = 0;
  obs::Span b = a;
  b.span_id = 0xB2;
  b.name = "router.hop";
  b.cause = 4;
  s.spans = {a, b};
  return s;
}

net::EventsSnapshot golden_events() {
  net::EventsSnapshot s;
  s.role = net::NodeRole::kRouter;
  s.backend_id = 0;
  s.steady_ns = 0x0102030405060708ULL;
  s.wall_ns = 0x1112131415161718ULL;
  s.dropped = 1;
  s.next_cursor = 42;
  s.remaining = 5;
  net::EventRecord first;
  first.seq = 41;
  first.steady_ns = 100;
  first.wall_ns = 200;
  first.type = 1;
  first.a0 = 3;
  first.a1 = 4;
  first.detail = "backend 3 down";
  net::EventRecord second = first;
  second.seq = 42;
  second.type = 4;
  second.detail.clear();
  s.events = {first, second};
  return s;
}

net::MigrateMsg golden_migrate() {
  net::MigrateMsg msg;
  msg.migration_id = 0x0102030405060708ULL;
  msg.chunk = 0x1112131415161718ULL;
  msg.epoch = 5;
  msg.target_backend = 0x21222324;
  msg.bytes = 4096;
  msg.target_port = 9001;
  msg.target_host = "127.0.0.1";
  return msg;
}

net::MigrateDataMsg golden_migrate_data() {
  net::MigrateDataMsg msg;
  msg.migration_id = 0x0102030405060708ULL;
  msg.chunk = 0x1112131415161718ULL;
  msg.offset = 32768;
  msg.total_bytes = 32773;
  msg.payload = {0xDE, 0xAD, 0xBE, 0xEF, 0x00};
  msg.checksum = net::migrate_checksum(msg.payload.data(), msg.payload.size());
  msg.last = true;
  return msg;
}

net::MigrateAckMsg golden_migrate_ack() {
  net::MigrateAckMsg msg;
  msg.migration_id = 0x0102030405060708ULL;
  msg.status = 2;
  msg.bytes = 0x1112131415161718ULL;
  return msg;
}

core::PlacementDelta golden_delta() {
  core::PlacementDelta delta;
  delta.epoch = 7;
  delta.remaps.push_back({0x0102030405060708ULL, 3, 9});
  delta.remaps.push_back({42, 0x21222324, 0x31323334});
  return delta;
}

workloads::Trace golden_rlbt() {
  workloads::Trace trace;
  trace.append_step({1, 2});
  trace.append_step({});
  trace.append_step({0xFFFFFFFFFFFFFFFFULL});
  return trace;
}

std::vector<std::uint8_t> rlbt_bytes(const workloads::Trace& trace) {
  std::ostringstream os;
  trace.save_binary(os);
  const std::string s = os.str();
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

template <typename Encode>
std::vector<std::uint8_t> encoded(Encode encode) {
  std::vector<std::uint8_t> out;
  encode(out);
  return out;
}

// ---------------------------------------------------------------------------
// Golden vectors.

TEST(CodecGolden, Request) {
  EXPECT_EQ(hex(encoded([](auto& out) {
              net::encode_request(golden_request(false), out);
            })),
            "11000000"
            "01"
            "0807060504030201"
            "1817161514131211");
}

TEST(CodecGolden, RequestTraced) {
  EXPECT_EQ(hex(encoded([](auto& out) {
              net::encode_request(golden_request(true), out);
            })),
            "22000000"
            "01"
            "0807060504030201"
            "1817161514131211"
            "2827262524232221"
            "3837363534333231"
            "01");
}

TEST(CodecGolden, Response) {
  EXPECT_EQ(hex(encoded([](auto& out) {
              net::encode_response(golden_response(), out);
            })),
            "12000000"
            "02"
            "0807060504030201"
            "03"
            "44434241"
            "54535251");
}

TEST(CodecGolden, StatsRequest) {
  EXPECT_EQ(hex(encoded([](auto& out) {
              net::encode_stats_request({0xA1A2A3A4, 0}, out);
            })),
            "05000000"
            "03"
            "a4a3a2a1");
  EXPECT_EQ(hex(encoded([](auto& out) {
              net::encode_stats_request({0, 0x0102030405060708ULL}, out);
            })),
            "0d000000"
            "03"
            "00000000"
            "0807060504030201");
}

TEST(CodecGolden, StatsResponse) {
  const std::vector<std::uint8_t> payload = encoded([](auto& out) {
    net::encode_stats_payload(golden_stats(), out);
  });
  // Header through the shard-row count, spelled out; the histogram-heavy
  // body is pinned by length and digest.
  EXPECT_EQ(hex(std::vector<std::uint8_t>(payload.begin(),
                                          payload.begin() + 50)),
            "04"
            "05000000"
            "11100f0e0d0c0b0a"
            "01"
            "24232221"
            "0600" "677265656479"
            "40000000"
            "02000000"
            "04000000"
            "07000000"
            "02000000"
            "02000000");
  EXPECT_EQ(payload.size(), 2222u);
  EXPECT_EQ(net::migrate_checksum(payload.data(), payload.size()),
            12379797974669853458ULL);
  // The tail: active alerts as u32 count + u16-length strings.
  EXPECT_EQ(hex(std::vector<std::uint8_t>(payload.end() - 28,
                                          payload.end())),
            "02000000"
            "0c00" "6261636b656e645f646f776e"
            "0800" "736166655f736574");
}

TEST(CodecGolden, TraceRequest) {
  EXPECT_EQ(hex(encoded([](auto& out) {
              net::encode_trace_request({0xA1A2A3A4}, out);
            })),
            "05000000"
            "05"
            "a4a3a2a1");
}

TEST(CodecGolden, TraceResponse) {
  EXPECT_EQ(hex(encoded([](auto& out) {
              net::encode_trace_payload(golden_trace(), out);
            })),
            "06"
            "01000000"
            "00"
            "07000000"
            "0807060504030201"
            "1817161514131211"
            "0200000000000000"
            "0300000000000000"
            "02000000"
            "a100000000000000"
            "a200000000000000"
            "a300000000000000"
            "e803000000000000"
            "c409000000000000"
            "0400000000000000"
            "0e00"
            "656e67696e652e72657175657374"
            "01000000"
            "02000000"
            "01"
            "00"
            "a100000000000000"
            "b200000000000000"
            "a300000000000000"
            "e803000000000000"
            "c409000000000000"
            "0400000000000000"
            "0a00"
            "726f757465722e686f70"
            "01000000"
            "02000000"
            "01"
            "04");
}

TEST(CodecGolden, EventsRequest) {
  EXPECT_EQ(hex(encoded([](auto& out) {
              net::encode_events_request({0xA1A2A3A4, 0x0102030405060708ULL},
                                         out);
            })),
            "0d000000"
            "0a"
            "a4a3a2a1"
            "0807060504030201");
}

TEST(CodecGolden, EventsResponse) {
  EXPECT_EQ(hex(encoded([](auto& out) {
              net::encode_events_payload(golden_events(), out);
            })),
            "0b"
            "01000000"
            "01"
            "00000000"
            "0807060504030201"
            "1817161514131211"
            "0100000000000000"
            "2a00000000000000"
            "0500000000000000"
            "02000000"
            "2900000000000000"
            "6400000000000000"
            "c800000000000000"
            "01"
            "0300000000000000"
            "0400000000000000"
            "0e"
            "6261636b656e64203320646f776e"
            "2a00000000000000"
            "6400000000000000"
            "c800000000000000"
            "04"
            "0300000000000000"
            "0400000000000000"
            "00");
}

TEST(CodecGolden, Migrate) {
  EXPECT_EQ(hex(encoded([](auto& out) {
              ASSERT_TRUE(net::encode_migrate(golden_migrate(), out));
            })),
            "32000000"
            "07"
            "0807060504030201"
            "1817161514131211"
            "0500000000000000"
            "24232221"
            "0010000000000000"
            "2923"
            "0900"
            "3132372e302e302e31");
}

TEST(CodecGolden, MigrateData) {
  EXPECT_EQ(hex(encoded([](auto& out) {
              ASSERT_TRUE(net::encode_migrate_data(golden_migrate_data(), out));
            })),
            "33000000"
            "08"
            "0807060504030201"
            "1817161514131211"
            "0080000000000000"
            "0580000000000000"
            "c94497db979acfe0"
            "01"
            "05000000"
            "deadbeef00");
}

TEST(CodecGolden, MigrateAck) {
  EXPECT_EQ(hex(encoded([](auto& out) {
              net::encode_migrate_ack(golden_migrate_ack(), out);
            })),
            "12000000"
            "09"
            "0807060504030201"
            "02"
            "1817161514131211");
}

TEST(CodecGolden, PlacementDelta) {
  EXPECT_EQ(hex(encoded([](auto& out) {
              core::encode_placement_delta(golden_delta(), out);
            })),
            "0700000000000000"
            "02000000"
            "0807060504030201"
            "03000000"
            "09000000"
            "2a00000000000000"
            "24232221"
            "34333231");
}

TEST(CodecGolden, RlbtTraceFile) {
  EXPECT_EQ(hex(rlbt_bytes(golden_rlbt())),
            "524c4254"
            "01000000"
            "0300000000000000"
            "02000000"
            "0100000000000000"
            "0200000000000000"
            "00000000"
            "01000000"
            "ffffffffffffffff");
}

// ---------------------------------------------------------------------------
// Every decoder rejects every proper prefix and one trailing byte.

struct DecoderCase {
  const char* name;
  std::vector<std::uint8_t> bytes;
  std::function<bool(const std::uint8_t*, std::size_t)> accepts;
  /// Proper prefix lengths that are themselves a complete, valid message
  /// (the v1 form of a size-extended frame).
  std::vector<std::size_t> valid_prefixes = {};
};

bool classifies_as(const std::uint8_t* data, std::size_t size,
                   net::Decoded want) {
  net::RequestMsg request;
  net::ResponseMsg response;
  net::StatsRequestMsg stats;
  net::TraceRequestMsg trace;
  net::EventsRequestMsg events;
  return net::decode_payload(data, size, request, response, stats, trace,
                             events) == want;
}

std::vector<DecoderCase> decoder_cases() {
  std::vector<DecoderCase> cases;
  const auto frame_case = [&](const char* name,
                              const std::vector<std::uint8_t>& frame,
                              net::Decoded want,
                              std::vector<std::size_t> valid_prefixes = {}) {
    cases.push_back({name, payload_of(frame),
                     [want](const std::uint8_t* d, std::size_t n) {
                       return classifies_as(d, n, want);
                     },
                     std::move(valid_prefixes)});
  };
  frame_case("request", encoded([](auto& out) {
               net::encode_request(golden_request(false), out);
             }),
             net::Decoded::kRequest);
  // The traced REQUEST's 17-byte prefix is a complete v1 REQUEST.
  frame_case("request_traced", encoded([](auto& out) {
               net::encode_request(golden_request(true), out);
             }),
             net::Decoded::kRequest, {net::kRequestPayloadSize});
  frame_case("response", encoded([](auto& out) {
               net::encode_response(golden_response(), out);
             }),
             net::Decoded::kResponse);
  frame_case("stats", encoded([](auto& out) {
               net::encode_stats_request({1, 0}, out);
             }),
             net::Decoded::kStats);
  // The epoch STATS's 5-byte prefix is a complete v1 STATS.
  frame_case("stats_epoch", encoded([](auto& out) {
               net::encode_stats_request({1, 9}, out);
             }),
             net::Decoded::kStats, {net::kStatsPayloadSize});
  frame_case("trace", encoded([](auto& out) {
               net::encode_trace_request({1}, out);
             }),
             net::Decoded::kTrace);
  frame_case("events", encoded([](auto& out) {
               net::encode_events_request({1, 2}, out);
             }),
             net::Decoded::kEvents);
  frame_case("migrate_ack_classify", encoded([](auto& out) {
               net::encode_migrate_ack(golden_migrate_ack(), out);
             }),
             net::Decoded::kMigrateAck);

  cases.push_back({"stats_resp", encoded([](auto& out) {
                     net::encode_stats_payload(golden_stats(), out);
                   }),
                   [](const std::uint8_t* d, std::size_t n) {
                     net::StatsSnapshot s;
                     return net::decode_stats_payload(d, n, s);
                   }});
  cases.push_back({"trace_resp", encoded([](auto& out) {
                     net::encode_trace_payload(golden_trace(), out);
                   }),
                   [](const std::uint8_t* d, std::size_t n) {
                     net::TraceSnapshot s;
                     return net::decode_trace_payload(d, n, s);
                   }});
  cases.push_back({"events_resp", encoded([](auto& out) {
                     net::encode_events_payload(golden_events(), out);
                   }),
                   [](const std::uint8_t* d, std::size_t n) {
                     net::EventsSnapshot s;
                     return net::decode_events_payload(d, n, s);
                   }});
  cases.push_back({"migrate", payload_of(encoded([](auto& out) {
                     ASSERT_TRUE(net::encode_migrate(golden_migrate(), out));
                   })),
                   [](const std::uint8_t* d, std::size_t n) {
                     net::MigrateMsg m;
                     return net::decode_migrate(d, n, m);
                   }});
  cases.push_back({"migrate_data", payload_of(encoded([](auto& out) {
                     ASSERT_TRUE(net::encode_migrate_data(
                         golden_migrate_data(), out));
                   })),
                   [](const std::uint8_t* d, std::size_t n) {
                     net::MigrateDataMsg m;
                     return net::decode_migrate_data(d, n, m);
                   }});
  cases.push_back({"migrate_ack", payload_of(encoded([](auto& out) {
                     net::encode_migrate_ack(golden_migrate_ack(), out);
                   })),
                   [](const std::uint8_t* d, std::size_t n) {
                     net::MigrateAckMsg m;
                     return net::decode_migrate_ack(d, n, m);
                   }});
  cases.push_back({"placement_delta", encoded([](auto& out) {
                     core::encode_placement_delta(golden_delta(), out);
                   }),
                   [](const std::uint8_t* d, std::size_t n) {
                     core::PlacementDelta delta;
                     return core::decode_placement_delta(d, n, delta);
                   }});
  cases.push_back({"rlbt", rlbt_bytes(golden_rlbt()),
                   [](const std::uint8_t* d, std::size_t n) {
                     std::istringstream is(
                         std::string(reinterpret_cast<const char*>(d), n));
                     try {
                       (void)workloads::Trace::load_binary(is);
                       return true;
                     } catch (const std::runtime_error&) {
                       return false;
                     }
                   }});
  return cases;
}

TEST(CodecDecoders, AcceptTheirGoldenBytes) {
  for (const DecoderCase& c : decoder_cases()) {
    EXPECT_TRUE(c.accepts(c.bytes.data(), c.bytes.size())) << c.name;
  }
}

TEST(CodecDecoders, RejectEveryProperPrefix) {
  for (const DecoderCase& c : decoder_cases()) {
    for (std::size_t n = 0; n < c.bytes.size(); ++n) {
      const bool valid_form =
          std::find(c.valid_prefixes.begin(), c.valid_prefixes.end(), n) !=
          c.valid_prefixes.end();
      // A heap copy of exactly n bytes, so ASan flags any read past it.
      const std::vector<std::uint8_t> prefix(c.bytes.begin(),
                                             c.bytes.begin() + n);
      EXPECT_EQ(c.accepts(prefix.data(), prefix.size()), valid_form)
          << c.name << " prefix " << n << "/" << c.bytes.size();
    }
  }
}

TEST(CodecDecoders, RejectOneTrailingByte) {
  for (const DecoderCase& c : decoder_cases()) {
    std::vector<std::uint8_t> longer = c.bytes;
    longer.push_back(0);
    EXPECT_FALSE(c.accepts(longer.data(), longer.size())) << c.name;
  }
}

}  // namespace
}  // namespace rlb
