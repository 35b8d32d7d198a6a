#include "net/admin_drain.hpp"

#include <stdexcept>

#include "net/client.hpp"
#include "obs/span.hpp"

namespace rlb::net {

namespace {

constexpr std::uint64_t kDrainRecvTimeoutMs = 2000;

// The two channels differ only in how a chunk is requested and read, and
// in what counts as their cursor.  A TRACE drain has no cursor on the
// wire; counting drained spans gives it one, so "the cursor advanced"
// means "items arrived" for both.

void request(Client& client, const TraceSnapshot&, std::uint64_t) {
  client.send_trace_request();
}

void request(Client& client, const EventsSnapshot&, std::uint64_t cursor) {
  client.send_events_request(cursor);
}

bool read(Client& client, TraceSnapshot& chunk) {
  return client.read_trace_response(chunk);
}

bool read(Client& client, EventsSnapshot& chunk) {
  return client.read_events_response(chunk);
}

bool empty(const TraceSnapshot& chunk) { return chunk.spans.empty(); }
bool empty(const EventsSnapshot& chunk) { return chunk.events.empty(); }

std::uint64_t next_cursor(const TraceSnapshot& chunk, std::uint64_t cursor) {
  return cursor + chunk.spans.size();
}

std::uint64_t next_cursor(const EventsSnapshot& chunk, std::uint64_t) {
  return chunk.next_cursor;
}

template <typename Snapshot>
std::uint64_t drain(const std::string& host, std::uint16_t port,
                    std::uint64_t cursor, const DrainFn<Snapshot>& on_chunk) {
  Client client;
  client.connect(host, port);
  client.set_recv_timeout_ms(kDrainRecvTimeoutMs);
  for (;;) {
    Snapshot chunk;
    const std::uint64_t sent_wall = obs::wall_now_ns();
    request(client, chunk, cursor);
    client.flush();
    if (!read(client, chunk)) {
      throw std::runtime_error("connection closed");
    }
    const std::uint64_t recv_wall = obs::wall_now_ns();
    const std::uint64_t next = next_cursor(chunk, cursor);
    const bool progressed = !empty(chunk) && next > cursor;
    const bool more = chunk.remaining > 0;
    on_chunk(chunk, wall_offset_ns(sent_wall, recv_wall, chunk.steady_ns));
    cursor = next;
    if (!more || !progressed) return cursor;
  }
}

}  // namespace

std::int64_t wall_offset_ns(std::uint64_t sent_wall_ns,
                            std::uint64_t recv_wall_ns,
                            std::uint64_t peer_steady_ns) noexcept {
  const std::int64_t midpoint =
      static_cast<std::int64_t>(sent_wall_ns) +
      static_cast<std::int64_t>(recv_wall_ns - sent_wall_ns) / 2;
  return midpoint - static_cast<std::int64_t>(peer_steady_ns);
}

void drain_trace(const std::string& host, std::uint16_t port,
                 const DrainFn<TraceSnapshot>& on_chunk) {
  drain<TraceSnapshot>(host, port, 0, on_chunk);
}

std::uint64_t drain_events(const std::string& host, std::uint16_t port,
                           std::uint64_t cursor,
                           const DrainFn<EventsSnapshot>& on_chunk) {
  return drain<EventsSnapshot>(host, port, cursor, on_chunk);
}

}  // namespace rlb::net
