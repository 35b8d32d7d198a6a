// Unit tests for the distributed-tracing plane: the REQUEST trace-context
// extension (v1 frame compatibility both ways), the TRACE / TRACE_RESP
// codec (round trip, truncation at every prefix, poison payloads, version
// mismatch), the SpanRecorder keep policy and drain semantics, and the
// span JSONL round trip rlb_trace consumes.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "net/trace_wire.hpp"
#include "net/wire.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace rlb::net {
namespace {

obs::Span make_span(std::uint64_t n) {
  obs::Span span;
  span.trace_id = 0x1000 + n;
  span.span_id = 0x2000 + n;
  span.parent_span_id = 0x3000 + n;
  span.start_ns = 1'000'000 * n;
  span.end_ns = 1'000'000 * n + 5'000;
  span.queue_depth = n;
  span.name = (n % 2 == 0) ? "engine.request" : "router.hop";
  span.shard = static_cast<std::uint32_t>(n % 8);
  span.tid = static_cast<std::uint32_t>(n % 4);
  span.flags = (n % 3 == 0) ? obs::kSpanSampled : 0;
  span.cause = static_cast<std::uint8_t>(n % 5);
  return span;
}

TraceSnapshot make_full_trace_snapshot() {
  TraceSnapshot snapshot;
  snapshot.role = NodeRole::kRouter;
  snapshot.backend_id = 3;
  snapshot.steady_ns = 55'123'456'789ULL;
  snapshot.wall_ns = 1'700'000'000'123'456'789ULL;
  snapshot.dropped = 17;
  snapshot.remaining = 42;
  for (std::uint64_t n = 1; n <= 5; ++n) snapshot.spans.push_back(make_span(n));
  return snapshot;
}

TEST(TraceCodec, RoundTripPreservesEveryField) {
  const TraceSnapshot original = make_full_trace_snapshot();
  std::vector<std::uint8_t> payload;
  encode_trace_payload(original, payload);
  ASSERT_FALSE(payload.empty());
  EXPECT_EQ(payload[0], static_cast<std::uint8_t>(MsgType::kTraceResponse));

  TraceSnapshot decoded;
  ASSERT_TRUE(decode_trace_payload(payload.data(), payload.size(), decoded));
  EXPECT_EQ(decoded.version, kTraceVersion);
  EXPECT_EQ(decoded.role, original.role);
  EXPECT_EQ(decoded.backend_id, original.backend_id);
  EXPECT_EQ(decoded.steady_ns, original.steady_ns);
  EXPECT_EQ(decoded.wall_ns, original.wall_ns);
  EXPECT_EQ(decoded.dropped, original.dropped);
  EXPECT_EQ(decoded.remaining, original.remaining);
  ASSERT_EQ(decoded.spans.size(), original.spans.size());
  for (std::size_t i = 0; i < original.spans.size(); ++i) {
    const obs::Span& a = original.spans[i];
    const obs::Span& b = decoded.spans[i];
    EXPECT_EQ(b.trace_id, a.trace_id);
    EXPECT_EQ(b.span_id, a.span_id);
    EXPECT_EQ(b.parent_span_id, a.parent_span_id);
    EXPECT_EQ(b.start_ns, a.start_ns);
    EXPECT_EQ(b.end_ns, a.end_ns);
    EXPECT_EQ(b.queue_depth, a.queue_depth);
    EXPECT_STREQ(b.name, a.name);
    EXPECT_EQ(b.shard, a.shard);
    EXPECT_EQ(b.tid, a.tid);
    EXPECT_EQ(b.flags, a.flags);
    EXPECT_EQ(b.cause, a.cause);
  }
}

TEST(TraceCodec, EveryTruncationIsRejected) {
  std::vector<std::uint8_t> payload;
  encode_trace_payload(make_full_trace_snapshot(), payload);
  TraceSnapshot decoded;
  for (std::size_t size = 0; size < payload.size(); ++size) {
    EXPECT_FALSE(decode_trace_payload(payload.data(), size, decoded))
        << "prefix of " << size << " bytes decoded";
  }
}

TEST(TraceCodec, TrailingGarbageIsRejected) {
  std::vector<std::uint8_t> payload;
  encode_trace_payload(make_full_trace_snapshot(), payload);
  payload.push_back(0xAB);
  TraceSnapshot decoded;
  EXPECT_FALSE(decode_trace_payload(payload.data(), payload.size(), decoded));
}

TEST(TraceCodec, WrongVersionOrTypeIsRejected) {
  std::vector<std::uint8_t> payload;
  encode_trace_payload(make_full_trace_snapshot(), payload);
  TraceSnapshot decoded;

  std::vector<std::uint8_t> bad_version = payload;
  bad_version[1] = static_cast<std::uint8_t>(kTraceVersion + 1);
  EXPECT_FALSE(
      decode_trace_payload(bad_version.data(), bad_version.size(), decoded));

  std::vector<std::uint8_t> bad_type = payload;
  bad_type[0] = static_cast<std::uint8_t>(MsgType::kStatsResponse);
  EXPECT_FALSE(decode_trace_payload(bad_type.data(), bad_type.size(), decoded));
}

TEST(TraceCodec, PoisonSpanCountIsRejected) {
  // A snapshot body claiming 2^31 spans must fail cleanly instead of
  // allocating: truncate right after a forged giant count.
  std::vector<std::uint8_t> payload;
  TraceSnapshot empty;
  encode_trace_payload(empty, payload);
  // Layout tail is the u32 span count; forge it.
  ASSERT_GE(payload.size(), 4u);
  payload[payload.size() - 4] = 0xFF;
  payload[payload.size() - 3] = 0xFF;
  payload[payload.size() - 2] = 0xFF;
  payload[payload.size() - 1] = 0x7F;
  TraceSnapshot decoded;
  EXPECT_FALSE(decode_trace_payload(payload.data(), payload.size(), decoded));
}

TEST(TraceCodec, FrameClassification) {
  // TRACE request frames classify as kTrace and fill the flags.
  std::vector<std::uint8_t> frame;
  TraceRequestMsg trace_request;
  trace_request.flags = 0xA5A5;
  encode_trace_request(trace_request, frame);
  ASSERT_EQ(frame.size(), 4 + kTracePayloadSize);
  RequestMsg request;
  ResponseMsg response;
  StatsRequestMsg stats;
  TraceRequestMsg decoded_trace;
  EXPECT_EQ(decode_payload(frame.data() + 4, frame.size() - 4, request,
                           response, stats, decoded_trace),
            Decoded::kTrace);
  EXPECT_EQ(decoded_trace.flags, trace_request.flags);

  // TRACE_RESP frames classify (body parsed by decode_trace_payload).
  std::vector<std::uint8_t> payload;
  encode_trace_payload(make_full_trace_snapshot(), payload);
  std::vector<std::uint8_t> response_frame;
  ASSERT_TRUE(encode_admin_response_frame(payload, response_frame));
  EXPECT_EQ(decode_payload(response_frame.data() + 4,
                           response_frame.size() - 4, request, response, stats,
                           decoded_trace),
            Decoded::kTraceResponse);

  // The 3-arg (STATS-only) form still classifies TRACE without filling.
  EXPECT_EQ(decode_payload(frame.data() + 4, frame.size() - 4, request,
                           response, stats),
            Decoded::kTrace);

  // Oversize TRACE_RESP payloads are refused at framing time.
  std::vector<std::uint8_t> oversize(
      kMaxFramePayload + 1, static_cast<std::uint8_t>(MsgType::kTraceResponse));
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(encode_admin_response_frame(oversize, out));
}

TEST(RequestTraceExtension, PlainRequestStaysV1Sized) {
  // No context -> the classic 17-byte payload, so old peers parse it.
  RequestMsg msg;
  msg.request_id = 77;
  msg.key = 0xDEADBEEF;
  std::vector<std::uint8_t> frame;
  encode_request(msg, frame);
  ASSERT_EQ(frame.size(), 4 + kRequestPayloadSize);

  RequestMsg decoded;
  ResponseMsg response;
  EXPECT_EQ(
      decode_payload(frame.data() + 4, frame.size() - 4, decoded, response),
      Decoded::kRequest);
  EXPECT_EQ(decoded.request_id, msg.request_id);
  EXPECT_EQ(decoded.key, msg.key);
  EXPECT_FALSE(decoded.trace.valid());
}

TEST(RequestTraceExtension, TracedRequestRoundTrips) {
  RequestMsg msg;
  msg.request_id = 99;
  msg.key = 1234;
  msg.trace.trace_id = 0xABCDEF0123456789ULL;
  msg.trace.parent_span_id = 0x1122334455667788ULL;
  msg.trace.flags = obs::kSpanSampled;
  std::vector<std::uint8_t> frame;
  encode_request(msg, frame);
  ASSERT_EQ(frame.size(), 4 + kRequestTracedPayloadSize);

  RequestMsg decoded;
  ResponseMsg response;
  EXPECT_EQ(
      decode_payload(frame.data() + 4, frame.size() - 4, decoded, response),
      Decoded::kRequest);
  EXPECT_EQ(decoded.request_id, msg.request_id);
  EXPECT_EQ(decoded.key, msg.key);
  EXPECT_EQ(decoded.trace.trace_id, msg.trace.trace_id);
  EXPECT_EQ(decoded.trace.parent_span_id, msg.trace.parent_span_id);
  EXPECT_EQ(decoded.trace.flags, msg.trace.flags);
  EXPECT_TRUE(decoded.trace.sampled());

  // A REQUEST with a half-written extension is malformed, not v1.
  RequestMsg scratch;
  EXPECT_EQ(decode_payload(frame.data() + 4, kRequestPayloadSize + 1, scratch,
                           response),
            Decoded::kMalformed);
}

#if !defined(RLB_OBS_DISABLED)

class SpanRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SpanRecorder::instance().clear();
    obs::SpanRecorder::instance().set_slow_budget_ns(0);
    obs::set_span_recording(true);
  }
  void TearDown() override {
    obs::SpanRecorder::instance().clear();
    obs::SpanRecorder::instance().set_slow_budget_ns(0);
    obs::set_span_recording(false);
  }
};

TEST_F(SpanRecorderTest, KeepPolicy) {
  obs::SpanRecorder& recorder = obs::SpanRecorder::instance();

  obs::Span sampled = make_span(1);
  sampled.flags = obs::kSpanSampled;
  sampled.cause = 0;
  recorder.record(sampled);

  obs::Span failed = make_span(2);
  failed.flags = 0;
  failed.cause = static_cast<std::uint8_t>(Status::kReject);
  recorder.record(failed);

  obs::Span fast = make_span(3);
  fast.flags = 0;
  fast.cause = 0;
  recorder.record(fast);  // unsampled, served OK, no slow budget -> dropped

  EXPECT_EQ(recorder.size(), 2u);
  EXPECT_EQ(recorder.filtered(), 1u);

  // With a slow budget, an unsampled OK span over budget is kept.
  recorder.set_slow_budget_ns(1'000);
  obs::Span slow = make_span(4);
  slow.flags = 0;
  slow.cause = 0;
  slow.start_ns = 0;
  slow.end_ns = 2'000;
  recorder.record(slow);
  EXPECT_EQ(recorder.size(), 3u);

  obs::Span under_budget = make_span(5);
  under_budget.flags = 0;
  under_budget.cause = 0;
  under_budget.start_ns = 0;
  under_budget.end_ns = 500;
  recorder.record(under_budget);
  EXPECT_EQ(recorder.size(), 3u);
  EXPECT_EQ(recorder.filtered(), 2u);
}

TEST_F(SpanRecorderTest, DrainRemovesAndChunks) {
  obs::SpanRecorder& recorder = obs::SpanRecorder::instance();
  for (std::uint64_t n = 0; n < 10; ++n) {
    obs::Span span = make_span(n);
    span.flags = obs::kSpanSampled;
    recorder.record(span);
  }
  ASSERT_EQ(recorder.size(), 10u);
  const std::vector<obs::Span> first = recorder.drain(4);
  EXPECT_EQ(first.size(), 4u);
  EXPECT_EQ(recorder.size(), 6u);
  const std::vector<obs::Span> rest = recorder.drain(100);
  EXPECT_EQ(rest.size(), 6u);
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_TRUE(recorder.drain(100).empty());
}

TEST_F(SpanRecorderTest, MakeTraceSnapshotDrainsWithAnchor) {
  obs::SpanRecorder& recorder = obs::SpanRecorder::instance();
  for (std::uint64_t n = 0; n < kMaxSpansPerTraceResponse + 10; ++n) {
    obs::Span span = make_span(n);
    span.flags = obs::kSpanSampled;
    span.cause = 0;
    recorder.record(span);
  }
  const TraceSnapshot first = make_trace_snapshot(NodeRole::kBackend, 9);
  EXPECT_EQ(first.role, NodeRole::kBackend);
  EXPECT_EQ(first.backend_id, 9u);
  EXPECT_EQ(first.spans.size(), kMaxSpansPerTraceResponse);
  EXPECT_EQ(first.remaining, 10u);
  EXPECT_GT(first.wall_ns, 0u);

  const TraceSnapshot second = make_trace_snapshot(NodeRole::kBackend, 9);
  EXPECT_EQ(second.spans.size(), 10u);
  EXPECT_EQ(second.remaining, 0u);

  // A full chunk must still fit one wire frame.
  std::vector<std::uint8_t> payload;
  encode_trace_payload(first, payload);
  EXPECT_LE(payload.size(), kMaxFramePayload);
  std::vector<std::uint8_t> frame;
  EXPECT_TRUE(encode_admin_response_frame(payload, frame));
}

TEST_F(SpanRecorderTest, RecordingSwitchGates) {
  obs::set_span_recording(false);
  EXPECT_FALSE(obs::span_recording_enabled());
  obs::set_span_recording(true);
  EXPECT_TRUE(obs::span_recording_enabled());
}

#endif  // !defined(RLB_OBS_DISABLED)

TEST(SpanJsonl, RoundTripWithAnchor) {
  std::vector<obs::Span> spans;
  for (std::uint64_t n = 1; n <= 4; ++n) spans.push_back(make_span(n));
  std::stringstream buffer;
  obs::write_spans_jsonl(spans, buffer, 123'456'789, 987'654'321);

  std::uint64_t anchor_steady = 0;
  std::uint64_t anchor_wall = 0;
  const std::vector<obs::Span> parsed =
      obs::parse_spans_jsonl(buffer, anchor_steady, anchor_wall);
  EXPECT_EQ(anchor_steady, 123'456'789u);
  EXPECT_EQ(anchor_wall, 987'654'321u);
  ASSERT_EQ(parsed.size(), spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(parsed[i].trace_id, spans[i].trace_id);
    EXPECT_EQ(parsed[i].span_id, spans[i].span_id);
    EXPECT_EQ(parsed[i].parent_span_id, spans[i].parent_span_id);
    EXPECT_EQ(parsed[i].start_ns, spans[i].start_ns);
    EXPECT_EQ(parsed[i].end_ns, spans[i].end_ns);
    EXPECT_EQ(parsed[i].queue_depth, spans[i].queue_depth);
    EXPECT_STREQ(parsed[i].name, spans[i].name);
    EXPECT_EQ(parsed[i].shard, spans[i].shard);
    EXPECT_EQ(parsed[i].tid, spans[i].tid);
    EXPECT_EQ(parsed[i].flags, spans[i].flags);
    EXPECT_EQ(parsed[i].cause, spans[i].cause);
  }
}

TEST(SpanJsonl, GarbageLinesAreSkipped) {
  std::stringstream buffer;
  buffer << "not json at all\n"
         << "{\"trace_id\":1}\n"  // missing required fields
         << "{\"trace_id\":7,\"span_id\":8,\"start_ns\":9,\"name\":\"x\","
            "\"end_ns\":10}\n";
  std::uint64_t anchor_steady = 0;
  std::uint64_t anchor_wall = 0;
  const std::vector<obs::Span> parsed =
      obs::parse_spans_jsonl(buffer, anchor_steady, anchor_wall);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].trace_id, 7u);
  EXPECT_STREQ(parsed[0].name, "x");
}

TEST(TraceContext, ValidityAndIds) {
  obs::TraceContext none;
  EXPECT_FALSE(none.valid());
  EXPECT_FALSE(none.sampled());

  obs::TraceContext ctx;
  ctx.trace_id = obs::next_span_id();
  ctx.flags = obs::kSpanSampled;
  EXPECT_TRUE(ctx.valid());
  EXPECT_TRUE(ctx.sampled());

  // next_span_id never returns 0 and does not repeat over a small window.
  std::uint64_t previous = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t id = obs::next_span_id();
    EXPECT_NE(id, 0u);
    EXPECT_NE(id, previous);
    previous = id;
  }
}

}  // namespace
}  // namespace rlb::net
