// Tests for the shared admin drain loop (net/admin_drain.hpp): the
// RTT-midpoint clock offset, multi-chunk drains following `remaining`, and
// the no-progress guard that keeps a misbehaving peer from spinning a
// scraper forever.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "net/admin_drain.hpp"
#include "net/server.hpp"

namespace rlb::net {
namespace {

/// Past this many requests the canned peers below stop misbehaving, so a
/// scraper without the no-progress guard fails the test instead of
/// hanging it.
constexpr std::uint64_t kSpinLimit = 50;

TEST(AdminDrain, WallOffsetIsTheRttMidpointMinusThePeerSteadyClock) {
  // Sent at 1000, answered at 3000: the anchor instant is 2000 locally.
  EXPECT_EQ(wall_offset_ns(1000, 3000, 500), 1500);
  EXPECT_EQ(wall_offset_ns(1000, 3000, 2000), 0);
  // A peer whose steady clock reads ahead of our wall clock.
  EXPECT_EQ(wall_offset_ns(1000, 1000, 5000), -4000);
}

TEST(AdminDrain, EventsFollowRemainingAcrossChunks) {
  NetServer server(ServerConfig{}, /*on_request=*/nullptr);
  server.set_events_handler(
      [&server](std::uint64_t token, const EventsRequestMsg& msg) {
        // Three events per chunk up to seq 9, then nothing remains.
        EventsSnapshot snap;
        snap.steady_ns = 1;
        for (std::uint64_t seq = msg.cursor + 1;
             seq <= msg.cursor + 3 && seq <= 9; ++seq) {
          EventRecord e;
          e.seq = seq;
          snap.events.push_back(e);
        }
        snap.next_cursor = msg.cursor + snap.events.size();
        snap.remaining = 9 - snap.next_cursor;
        server.send_events(token, snap);
      });
  server.start();

  std::vector<std::uint64_t> seqs;
  std::size_t chunks = 0;
  const std::uint64_t cursor = drain_events(
      "127.0.0.1", server.port(), /*cursor=*/0,
      [&](EventsSnapshot& chunk, std::int64_t) {
        ++chunks;
        for (const EventRecord& e : chunk.events) seqs.push_back(e.seq);
      });
  server.stop();
  EXPECT_EQ(cursor, 9u);
  EXPECT_EQ(chunks, 3u);
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(AdminDrain, EventsStopWhenTheCursorDoesNotAdvance) {
  // The peer keeps claiming more events but never returns any and never
  // moves the cursor.  Each answer arrives well inside the receive
  // timeout, so only the no-progress guard can end the drain.
  NetServer server(ServerConfig{}, /*on_request=*/nullptr);
  std::atomic<std::uint64_t> requests{0};
  server.set_events_handler(
      [&](std::uint64_t token, const EventsRequestMsg& msg) {
        EventsSnapshot snap;
        snap.next_cursor = msg.cursor;
        snap.remaining = ++requests < kSpinLimit ? 1 : 0;
        server.send_events(token, snap);
      });
  server.start();
  const std::uint64_t cursor =
      drain_events("127.0.0.1", server.port(), /*cursor=*/17,
                   [](EventsSnapshot&, std::int64_t) {});
  server.stop();
  EXPECT_EQ(requests.load(), 1u);
  EXPECT_EQ(cursor, 17u);
}

TEST(AdminDrain, EventsStopWhenEventsRepeatWithoutAdvancing) {
  // Events keep coming, but the cursor stays put: the same batch again.
  NetServer server(ServerConfig{}, /*on_request=*/nullptr);
  std::atomic<std::uint64_t> requests{0};
  server.set_events_handler(
      [&](std::uint64_t token, const EventsRequestMsg& msg) {
        EventsSnapshot snap;
        EventRecord e;
        e.seq = msg.cursor;
        snap.events.push_back(e);
        snap.next_cursor = msg.cursor;
        snap.remaining = ++requests < kSpinLimit ? 1 : 0;
        server.send_events(token, snap);
      });
  server.start();
  drain_events("127.0.0.1", server.port(), /*cursor=*/5,
               [](EventsSnapshot&, std::int64_t) {});
  server.stop();
  EXPECT_EQ(requests.load(), 1u);
}

TEST(AdminDrain, TraceStopsOnAnEmptyChunk) {
  NetServer server(ServerConfig{}, /*on_request=*/nullptr);
  std::atomic<std::uint64_t> requests{0};
  server.set_trace_handler([&](std::uint64_t token, const TraceRequestMsg&) {
    TraceSnapshot snap;
    snap.remaining = ++requests < kSpinLimit ? 1 : 0;
    server.send_trace(token, snap);
  });
  server.start();
  std::size_t chunks = 0;
  drain_trace("127.0.0.1", server.port(),
              [&](TraceSnapshot&, std::int64_t) { ++chunks; });
  server.stop();
  EXPECT_EQ(requests.load(), 1u);
  EXPECT_EQ(chunks, 1u);
}

}  // namespace
}  // namespace rlb::net
