// Draining a daemon's admin channels chunk by chunk: the TRACE span
// recorder (net/trace_wire.hpp) and the EVENTS journal
// (net/events_wire.hpp), with every chunk's timestamps placed on the
// local wall clock.  rlb_trace and `rlb_stat --events` scrape through
// here and keep only their rendering.
//
// Both drains run one loop: connect, repeat the request until the peer
// reports nothing remaining, and stop early on a chunk that makes no
// progress (no items, or an EVENTS cursor that did not advance).  Without
// that guard a peer answering remaining > 0 with nothing new would spin
// the scraper forever: the receive timeout never fires while answers
// keep arriving.
//
// Clock alignment: each response carries the peer's (steady_ns, wall_ns)
// anchor, stamped while answering.  Locally that instant is best
// estimated as the request's RTT midpoint, so a peer timestamp `ts` on
// its steady clock maps onto the local wall clock as
//   local_wall(ts) = ts + (midpoint - steady_ns)
// which cancels the peer's own wall-clock skew entirely.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "net/events_wire.hpp"
#include "net/trace_wire.hpp"

namespace rlb::net {

/// The offset local_wall(ts) - ts for a response whose anchor reads
/// `peer_steady_ns`, requested at local wall time `sent_wall_ns` and
/// answered at `recv_wall_ns`.
[[nodiscard]] std::int64_t wall_offset_ns(
    std::uint64_t sent_wall_ns, std::uint64_t recv_wall_ns,
    std::uint64_t peer_steady_ns) noexcept;

/// Called once per answered chunk with the chunk's clock offset.
template <typename Snapshot>
using DrainFn =
    std::function<void(Snapshot& chunk, std::int64_t wall_offset_ns)>;

/// TRACE `host:port` until its span recorder is empty.  Throws on a failed
/// connect, an I/O or protocol error, a 2 s read timeout, or the peer
/// closing mid-drain.
void drain_trace(const std::string& host, std::uint16_t port,
                 const DrainFn<TraceSnapshot>& on_chunk);

/// EVENTS `host:port` from `cursor` until the journal has nothing after
/// it; returns the cursor to resume from.  Throws like drain_trace().
std::uint64_t drain_events(const std::string& host, std::uint16_t port,
                           std::uint64_t cursor,
                           const DrainFn<EventsSnapshot>& on_chunk);

}  // namespace rlb::net
