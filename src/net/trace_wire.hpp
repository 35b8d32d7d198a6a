// The TRACE_RESP span blob: draining a daemon's span flight recorder over
// the wire.
//
// A TRACE request (net/wire.hpp, u8 type=5) asks the daemon for buffered
// spans; the answer is one TRACE_RESP frame carrying a TraceSnapshot: the
// drain envelope (net/stats.hpp: u8 type=6, u32 version, role, backend_id,
// clock anchor, dropped), then u64 remaining, u32 span count and the spans,
// in the byte format of codec/codec.hpp (span names as u16 length +
// bytes).  Decoders require exact payload consumption.
//
// Responses DRAIN: each answered TRACE removes the returned spans from the
// recorder, and at most kMaxSpansPerTraceResponse travel per frame (the
// frame payload cap is 64 KiB), so a scraper loops until an empty response
// comes back.
//
// Clock anchor: span timestamps are steady-clock ns since *their* process
// started, which is meaningless across processes.  Every snapshot therefore
// carries a (steady_ns, wall_ns) pair sampled at encode time; a merger maps
// span time onto the shared wall clock as
//   wall(span_ts) = wall_ns - (steady_ns - span_ts)
// and can correct residual skew with its own scrape RTT (rlb_trace does
// RTT/2 midpoint correction, the same scheme the router's heartbeats use
// for their RTT estimate).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/stats.hpp"
#include "obs/span.hpp"

namespace rlb::net {

/// Bump on any layout change.
inline constexpr std::uint32_t kTraceVersion = 1;

/// Ceiling on spans per TRACE_RESP frame, sized so a full response stays
/// under kMaxFramePayload even with long span names.
inline constexpr std::size_t kMaxSpansPerTraceResponse = 400;

/// One TRACE_RESP frame's worth of spans, after the drain envelope
/// (net/stats.hpp; `dropped` counts ring evictions).
struct TraceSnapshot : DrainEnvelope {
  TraceSnapshot() { version = kTraceVersion; }
  /// Spans still buffered after this drain (non-zero => scrape again).
  std::uint64_t remaining = 0;
  std::vector<obs::Span> spans;
};

/// Serialize `snapshot` as a TRACE_RESP payload (type byte included, no
/// frame length prefix) appended to `out`.  Encodes at most
/// kMaxSpansPerTraceResponse spans; callers chunk (make_trace_snapshot
/// already does).
void encode_trace_payload(const TraceSnapshot& snapshot,
                          std::vector<std::uint8_t>& out);

/// Parse a TRACE_RESP payload.  Returns false on a malformed body or a
/// version other than kTraceVersion; `out` is unspecified on failure.
/// Span names are interned for the process lifetime.
bool decode_trace_payload(const std::uint8_t* data, std::size_t size,
                          TraceSnapshot& out);

/// Build one response chunk: drain up to kMaxSpansPerTraceResponse spans
/// from the process-global SpanRecorder and stamp role/id/clock anchor.
/// Under RLB_OBS_DISABLED the span list is always empty (the recorder is
/// compiled out) but the anchor is still valid.
TraceSnapshot make_trace_snapshot(NodeRole role, std::uint32_t backend_id);

}  // namespace rlb::net
