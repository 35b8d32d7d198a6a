#include "net/wire.hpp"

#include <cstring>

#include "codec/codec.hpp"

namespace rlb::net {

namespace {

using codec::load_le;
using codec::store_le;

/// Append a frame's length prefix and type byte, sized for a `payload`-
/// byte payload, and return where the body (after the type byte) goes.
std::uint8_t* begin_frame(std::vector<std::uint8_t>& out, MsgType type,
                          std::size_t payload) {
  const std::size_t at = out.size();
  out.resize(at + 4 + payload);
  std::uint8_t* p = out.data() + at;
  store_le(p, static_cast<std::uint32_t>(payload));
  p[4] = static_cast<std::uint8_t>(type);
  return p + 5;
}

}  // namespace

const char* to_string(Status status) noexcept {
  switch (status) {
    case Status::kOk:
      return "ok";
    case Status::kReject:
      return "reject";
    case Status::kError:
      return "error";
    case Status::kRejectUpstreamDown:
      return "reject-upstream-down";
    case Status::kRejectUpstreamTimeout:
      return "reject-upstream-timeout";
  }
  return "unknown";
}

void encode_request(const RequestMsg& msg, std::vector<std::uint8_t>& out) {
  // The trace extension is emitted only when a context is present, so a
  // non-sampled request is byte-identical to the v1 frame (and old peers
  // never see the extended size).
  const bool traced = msg.trace.valid();
  std::uint8_t* p =
      begin_frame(out, MsgType::kRequest,
                  traced ? kRequestTracedPayloadSize : kRequestPayloadSize);
  store_le(p, msg.request_id);
  store_le(p + 8, msg.key);
  if (traced) {
    store_le(p + 16, msg.trace.trace_id);
    store_le(p + 24, msg.trace.parent_span_id);
    p[32] = msg.trace.flags;
  }
}

void encode_response(const ResponseMsg& msg, std::vector<std::uint8_t>& out) {
  std::uint8_t* p = begin_frame(out, MsgType::kResponse, kResponsePayloadSize);
  store_le(p, msg.request_id);
  p[8] = static_cast<std::uint8_t>(msg.status);
  store_le(p + 9, msg.server);
  store_le(p + 13, msg.wait_steps);
}

void encode_stats_request(const StatsRequestMsg& msg,
                          std::vector<std::uint8_t>& out) {
  // Same optional-extension-by-size idiom as the REQUEST trace context:
  // epoch 0 (no repair commits yet, or a pre-repair sender) encodes the
  // 5-byte v1 frame, so the extension costs zero bytes until the first
  // placement cutover.
  const bool epoched = msg.epoch != 0;
  std::uint8_t* p =
      begin_frame(out, MsgType::kStats,
                  epoched ? kStatsEpochPayloadSize : kStatsPayloadSize);
  store_le(p, msg.flags);
  if (epoched) store_le(p + 4, msg.epoch);
}

void encode_trace_request(const TraceRequestMsg& msg,
                          std::vector<std::uint8_t>& out) {
  store_le(begin_frame(out, MsgType::kTrace, kTracePayloadSize), msg.flags);
}

void encode_events_request(const EventsRequestMsg& msg,
                           std::vector<std::uint8_t>& out) {
  std::uint8_t* p = begin_frame(out, MsgType::kEvents, kEventsPayloadSize);
  store_le(p, msg.flags);
  store_le(p + 4, msg.cursor);
}

bool encode_migrate(const MigrateMsg& msg, std::vector<std::uint8_t>& out) {
  const std::size_t payload = kMigrateHeaderSize + msg.target_host.size();
  if (msg.target_host.size() > 0xffff || payload > kMaxFramePayload) {
    return false;
  }
  codec::Writer w(out);
  w.u32(static_cast<std::uint32_t>(payload));
  w.u8(static_cast<std::uint8_t>(MsgType::kMigrate));
  w.u64(msg.migration_id);
  w.u64(msg.chunk);
  w.u64(msg.epoch);
  w.u32(msg.target_backend);
  w.u64(msg.bytes);
  w.u16(msg.target_port);
  w.str16(msg.target_host);
  return true;
}

bool encode_migrate_data(const MigrateDataMsg& msg,
                         std::vector<std::uint8_t>& out) {
  if (msg.payload.size() > kMaxMigrateSlice) return false;
  const std::size_t payload = kMigrateDataHeaderSize + msg.payload.size();
  codec::Writer w(out);
  w.u32(static_cast<std::uint32_t>(payload));
  w.u8(static_cast<std::uint8_t>(MsgType::kMigrateData));
  w.u64(msg.migration_id);
  w.u64(msg.chunk);
  w.u64(msg.offset);
  w.u64(msg.total_bytes);
  w.u64(msg.checksum);
  w.u8(msg.last ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(msg.payload.size()));
  w.bytes(msg.payload.data(), msg.payload.size());
  return true;
}

bool encode_admin_response_frame(const std::vector<std::uint8_t>& payload,
                                 std::vector<std::uint8_t>& out) {
  if (payload.empty() || payload.size() > kMaxFramePayload) return false;
  const auto type = static_cast<MsgType>(payload[0]);
  if (type != MsgType::kStatsResponse && type != MsgType::kTraceResponse &&
      type != MsgType::kEventsResponse) {
    return false;
  }
  std::uint8_t* body = begin_frame(out, type, payload.size());
  std::memcpy(body, payload.data() + 1, payload.size() - 1);
  return true;
}

void encode_migrate_ack(const MigrateAckMsg& msg,
                        std::vector<std::uint8_t>& out) {
  std::uint8_t* p =
      begin_frame(out, MsgType::kMigrateAck, kMigrateAckPayloadSize);
  store_le(p, msg.migration_id);
  p[8] = msg.status;
  store_le(p + 9, msg.bytes);
}

bool decode_migrate(const std::uint8_t* data, std::size_t size,
                    MigrateMsg& out) {
  codec::Reader r(data, size);
  if (r.u8() != static_cast<std::uint8_t>(MsgType::kMigrate)) return false;
  out.migration_id = r.u64();
  out.chunk = r.u64();
  out.epoch = r.u64();
  out.target_backend = r.u32();
  out.bytes = r.u64();
  out.target_port = r.u16();
  out.target_host = r.str16();
  return r.done();
}

bool decode_migrate_data(const std::uint8_t* data, std::size_t size,
                         MigrateDataMsg& out) {
  codec::Reader r(data, size);
  if (r.u8() != static_cast<std::uint8_t>(MsgType::kMigrateData)) {
    return false;
  }
  out.migration_id = r.u64();
  out.chunk = r.u64();
  out.offset = r.u64();
  out.total_bytes = r.u64();
  out.checksum = r.u64();
  const std::uint8_t last = r.u8();
  if (last > 1) return false;
  out.last = last == 1;
  const std::uint32_t payload_len = r.u32();
  if (payload_len > kMaxMigrateSlice) return false;
  const std::uint8_t* payload = r.bytes(payload_len);
  if (!r.done()) return false;
  out.payload.assign(payload, payload + payload_len);
  return true;
}

bool decode_migrate_ack(const std::uint8_t* data, std::size_t size,
                        MigrateAckMsg& out) {
  codec::Reader r(data, size);
  if (r.u8() != static_cast<std::uint8_t>(MsgType::kMigrateAck)) return false;
  out.migration_id = r.u64();
  out.status = r.u8();
  out.bytes = r.u64();
  return r.done();
}

std::uint64_t migrate_checksum(const std::uint8_t* data,
                               std::size_t size) noexcept {
  // FNV-1a, 64-bit.
  std::uint64_t hash = 14695981039346656037ULL;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

Decoded decode_payload(const std::uint8_t* data, std::size_t size,
                       RequestMsg& request, ResponseMsg& response,
                       StatsRequestMsg& stats, TraceRequestMsg& trace,
                       EventsRequestMsg& events) {
  if (size == 0) return Decoded::kMalformed;
  switch (static_cast<MsgType>(data[0])) {
    case MsgType::kRequest:
      // Two valid sizes: the v1 frame, and v1 + the trace-context
      // extension.  Anything else (including a partial extension) is
      // malformed.
      if (size != kRequestPayloadSize && size != kRequestTracedPayloadSize) {
        return Decoded::kMalformed;
      }
      request.request_id = load_le<std::uint64_t>(data + 1);
      request.key = load_le<std::uint64_t>(data + 9);
      if (size == kRequestTracedPayloadSize) {
        request.trace.trace_id = load_le<std::uint64_t>(data + 17);
        request.trace.parent_span_id = load_le<std::uint64_t>(data + 25);
        request.trace.flags = data[33];
      } else {
        request.trace = obs::TraceContext{};
      }
      return Decoded::kRequest;
    case MsgType::kResponse: {
      if (size != kResponsePayloadSize) return Decoded::kMalformed;
      response.request_id = load_le<std::uint64_t>(data + 1);
      const std::uint8_t status = data[9];
      if (status > static_cast<std::uint8_t>(Status::kRejectUpstreamTimeout)) {
        return Decoded::kMalformed;
      }
      response.status = static_cast<Status>(status);
      response.server = load_le<std::uint32_t>(data + 10);
      response.wait_steps = load_le<std::uint32_t>(data + 14);
      return Decoded::kResponse;
    }
    case MsgType::kStats:
      // Two valid sizes: the v1 frame, and v1 + the placement-epoch
      // extension (see encode_stats_request).
      if (size != kStatsPayloadSize && size != kStatsEpochPayloadSize) {
        return Decoded::kMalformed;
      }
      stats.flags = load_le<std::uint32_t>(data + 1);
      stats.epoch = size == kStatsEpochPayloadSize
                        ? load_le<std::uint64_t>(data + 5)
                        : 0;
      return Decoded::kStats;
    case MsgType::kStatsResponse:
      // The snapshot body is versioned and parsed by net/stats.hpp; here we
      // only classify, requiring room for the version word that follows the
      // type byte.
      if (size < 5) return Decoded::kMalformed;
      return Decoded::kStatsResponse;
    case MsgType::kTrace:
      if (size != kTracePayloadSize) return Decoded::kMalformed;
      trace.flags = load_le<std::uint32_t>(data + 1);
      return Decoded::kTrace;
    case MsgType::kTraceResponse:
      // Versioned span blob parsed by net/trace_wire.hpp; classify only,
      // requiring room for the version word.
      if (size < 5) return Decoded::kMalformed;
      return Decoded::kTraceResponse;
    case MsgType::kMigrate:
      // Repair-plane bodies allocate (host string, payload vector), so
      // they are classified here and parsed on demand by decode_migrate*.
      if (size < kMigrateHeaderSize) return Decoded::kMalformed;
      return Decoded::kMigrate;
    case MsgType::kMigrateData:
      if (size < kMigrateDataHeaderSize) return Decoded::kMalformed;
      return Decoded::kMigrateData;
    case MsgType::kMigrateAck:
      if (size != kMigrateAckPayloadSize) return Decoded::kMalformed;
      return Decoded::kMigrateAck;
    case MsgType::kEvents:
      if (size != kEventsPayloadSize) return Decoded::kMalformed;
      events.flags = load_le<std::uint32_t>(data + 1);
      events.cursor = load_le<std::uint64_t>(data + 5);
      return Decoded::kEvents;
    case MsgType::kEventsResponse:
      // Versioned event batch parsed by net/events_wire.hpp; classify
      // only, requiring room for the version word.
      if (size < 5) return Decoded::kMalformed;
      return Decoded::kEventsResponse;
  }
  return Decoded::kMalformed;
}

Decoded decode_payload(const std::uint8_t* data, std::size_t size,
                       RequestMsg& request, ResponseMsg& response,
                       StatsRequestMsg& stats, TraceRequestMsg& trace) {
  EventsRequestMsg scratch;
  return decode_payload(data, size, request, response, stats, trace, scratch);
}

Decoded decode_payload(const std::uint8_t* data, std::size_t size,
                       RequestMsg& request, ResponseMsg& response,
                       StatsRequestMsg& stats) {
  TraceRequestMsg trace_scratch;
  EventsRequestMsg events_scratch;
  return decode_payload(data, size, request, response, stats, trace_scratch,
                        events_scratch);
}

Decoded decode_payload(const std::uint8_t* data, std::size_t size,
                       RequestMsg& request, ResponseMsg& response) {
  StatsRequestMsg stats_scratch;
  TraceRequestMsg trace_scratch;
  EventsRequestMsg events_scratch;
  return decode_payload(data, size, request, response, stats_scratch,
                        trace_scratch, events_scratch);
}

void FrameDecoder::poison() noexcept {
  // Sticky.  The buffered bytes become unreachable (buffered() reads zero,
  // every accessor short-circuits) but are not shrunk here: a FrameView
  // returned from the same call may still point into the buffer, so the
  // storage is only reclaimed by reset() when the connection slot is
  // recycled.
  error_ = true;
}

void FrameDecoder::reset() noexcept {
  buffer_.clear();
  offset_ = 0;
  error_ = false;
}

bool FrameDecoder::feed(const std::uint8_t* data, std::size_t size) {
  if (error_) return false;
  if (offset_ != 0 && offset_ == buffer_.size()) {
    // Fully drained: rewind with no copy, keeping the warmed-up capacity.
    buffer_.clear();
    offset_ = 0;
  } else if (offset_ > 4096 && offset_ * 2 > buffer_.size()) {
    // Compact once the consumed prefix dominates — amortized O(1) per
    // byte.  memmove within the same storage keeps capacity, so the
    // steady state appends into reserved space with no allocation.
    const std::size_t live = buffer_.size() - offset_;
    std::memmove(buffer_.data(), buffer_.data() + offset_, live);
    buffer_.resize(live);
    offset_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + size);
  // Validate eagerly so a poisoned stream is detected at feed time, not
  // only when the caller drains frames.
  if (buffer_.size() - offset_ >= 4) {
    const auto length = load_le<std::uint32_t>(buffer_.data() + offset_);
    if (length == 0 || length > kMaxFramePayload) {
      poison();
      return false;
    }
  }
  return true;
}

bool FrameDecoder::next_view(FrameView& out) {
  if (error_) return false;
  const std::size_t available = buffer_.size() - offset_;
  if (available < 4) return false;
  const auto length = load_le<std::uint32_t>(buffer_.data() + offset_);
  if (length == 0 || length > kMaxFramePayload) {
    poison();
    return false;
  }
  if (available < 4 + static_cast<std::size_t>(length)) return false;
  out.data = buffer_.data() + offset_ + 4;
  out.size = length;
  offset_ += 4 + static_cast<std::size_t>(length);
  if (buffer_.size() - offset_ >= 4) {
    // Eager validation of the next frame header (see feed()).  poison()
    // leaves the storage alone, so the view we are about to return stays
    // valid even when the byte right behind it trips the error.
    const auto next_length =
        load_le<std::uint32_t>(buffer_.data() + offset_);
    if (next_length == 0 || next_length > kMaxFramePayload) poison();
  }
  return true;
}

bool FrameDecoder::next(std::vector<std::uint8_t>& out) {
  FrameView view;
  if (!next_view(view)) return false;
  out.assign(view.data, view.data + view.size);
  return true;
}

}  // namespace rlb::net
