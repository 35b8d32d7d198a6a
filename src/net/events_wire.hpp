// The EVENTS_RESP event batch: reading a daemon's control-plane journal
// over the wire.
//
// An EVENTS request (net/wire.hpp, u8 type=10) carries the scraper's
// cursor — the highest journal sequence it has already seen — and the
// answer is one EVENTS_RESP frame with the events after it: the drain
// envelope (net/stats.hpp: u8 type=11, u32 version, role, backend_id,
// clock anchor, dropped), then u64 next_cursor, u64 remaining, u32 event
// count and the events, in the byte format of codec/codec.hpp (detail
// strings as u8 length + bytes).  Decoders require exact payload
// consumption.
//
// Unlike TRACE, reads do NOT drain: the journal ring keeps the last N
// events and any number of scrapers resume independently by cursor
// (rlb_stat --events --follow holds one cursor per endpoint).  When the
// ring wraps past a cursor the response reports the lost span in
// `dropped` — overflow is explicit, never silent.  At most
// kMaxEventsPerResponse events travel per frame; `remaining` > 0 tells
// the scraper to immediately ask again from `next_cursor`.
//
// Clock anchor: the same (steady_ns, wall_ns) pair as TRACE_RESP, so a
// merger aligns event timestamps from several processes onto one wall
// clock with the RTT-midpoint correction rlb_trace uses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/stats.hpp"

namespace rlb::net {

/// Bump on any layout change.
inline constexpr std::uint32_t kEventsVersion = 1;

/// Ceiling on events per EVENTS_RESP frame: 512 x ~75 bytes stays well
/// under the 64 KiB frame payload cap.
inline constexpr std::size_t kMaxEventsPerResponse = 512;

/// One journal entry on the wire (see obs/journal.hpp JournalEvent).
struct EventRecord {
  std::uint64_t seq = 0;
  std::uint64_t steady_ns = 0;
  std::uint64_t wall_ns = 0;
  std::uint8_t type = 0;  ///< obs::JournalType value
  std::uint64_t a0 = 0;
  std::uint64_t a1 = 0;
  std::string detail;
};

/// One EVENTS_RESP frame's worth of journal events, after the drain
/// envelope (net/stats.hpp).  `dropped` counts events that wrapped out of
/// the ring between the request's cursor and the oldest event returned
/// (0 = gapless resume).
struct EventsSnapshot : DrainEnvelope {
  EventsSnapshot() { version = kEventsVersion; }
  /// Cursor for the next request (seq of the last event returned, or the
  /// request cursor when the batch is empty).
  std::uint64_t next_cursor = 0;
  /// Events still in the ring beyond this batch (non-zero => ask again).
  std::uint64_t remaining = 0;
  std::vector<EventRecord> events;
};

/// Serialize `snapshot` as an EVENTS_RESP payload (type byte included, no
/// frame length prefix) appended to `out`.  Encodes at most
/// kMaxEventsPerResponse events; callers chunk (make_events_snapshot
/// already does).
void encode_events_payload(const EventsSnapshot& snapshot,
                           std::vector<std::uint8_t>& out);

/// Parse an EVENTS_RESP payload.  Returns false on a malformed body or a
/// version other than kEventsVersion; `out` is unspecified on failure.
bool decode_events_payload(const std::uint8_t* data, std::size_t size,
                           EventsSnapshot& out);

/// Build one response batch from the process-global journal: events after
/// `cursor`, capped at kMaxEventsPerResponse, with role/id/clock anchor
/// stamped.  Under RLB_OBS_DISABLED the event list is always empty (the
/// journal is compiled to a no-op) but the anchor is still valid.
EventsSnapshot make_events_snapshot(NodeRole role, std::uint32_t backend_id,
                                    std::uint64_t cursor);

}  // namespace rlb::net
