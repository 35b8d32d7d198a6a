#include "net/events_wire.hpp"

#include <algorithm>

#include "net/wire.hpp"
#include "obs/journal.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace rlb::net {

void encode_events_payload(const EventsSnapshot& snapshot,
                           std::vector<std::uint8_t>& out) {
  codec::Writer w(out);
  encode_envelope(w, MsgType::kEventsResponse, snapshot);
  w.u64(snapshot.next_cursor);
  w.u64(snapshot.remaining);
  const std::size_t count =
      std::min(snapshot.events.size(), kMaxEventsPerResponse);
  w.u32(static_cast<std::uint32_t>(count));
  for (std::size_t i = 0; i < count; ++i) {
    const EventRecord& e = snapshot.events[i];
    w.u64(e.seq);
    w.u64(e.steady_ns);
    w.u64(e.wall_ns);
    w.u8(e.type);
    w.u64(e.a0);
    w.u64(e.a1);
    w.str8(e.detail);
  }
}

bool decode_events_payload(const std::uint8_t* data, std::size_t size,
                           EventsSnapshot& out) {
  codec::Reader r(data, size);
  if (!decode_envelope(r, MsgType::kEventsResponse, kEventsVersion, out)) {
    return false;
  }
  out.next_cursor = r.u64();
  out.remaining = r.u64();
  const std::uint32_t count = r.u32();
  if (count > kMaxEventsPerResponse) return false;
  out.events.assign(count, EventRecord{});
  for (EventRecord& e : out.events) {
    e.seq = r.u64();
    e.steady_ns = r.u64();
    e.wall_ns = r.u64();
    e.type = r.u8();
    e.a0 = r.u64();
    e.a1 = r.u64();
    e.detail = r.str8();
  }
  return r.done();
}

EventsSnapshot make_events_snapshot(NodeRole role, std::uint32_t backend_id,
                                    std::uint64_t cursor) {
  EventsSnapshot snapshot;
  snapshot.role = role;
  snapshot.backend_id = backend_id;
  // The anchor is stamped whether or not any events exist: a scraper can
  // always clock-align this node.
  snapshot.steady_ns = obs::now_ns();
  snapshot.wall_ns = obs::wall_now_ns();
  snapshot.next_cursor = cursor;
#if !defined(RLB_OBS_DISABLED)
  std::vector<obs::JournalEvent> events;
  const obs::JournalReadResult read =
      obs::Journal::instance().read_from(cursor, kMaxEventsPerResponse,
                                         events);
  snapshot.dropped = read.dropped;
  snapshot.next_cursor = read.next_cursor;
  snapshot.remaining = read.remaining;
  snapshot.events.reserve(events.size());
  for (const obs::JournalEvent& e : events) {
    EventRecord record;
    record.seq = e.seq;
    record.steady_ns = e.steady_ns;
    record.wall_ns = e.wall_ns;
    record.type = static_cast<std::uint8_t>(e.type);
    record.a0 = e.a0;
    record.a1 = e.a1;
    record.detail.assign(e.detail_view());
    snapshot.events.push_back(std::move(record));
  }
#endif
  return snapshot;
}

}  // namespace rlb::net
