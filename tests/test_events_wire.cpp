// EVENTS wire-format tests: EVENTS_RESP payload round-trip, rejection of
// truncated / version-skewed / oversized / trailing-garbage payloads,
// make_events_snapshot cursor semantics against the process journal, the
// end-to-end NetServer/Client EVENTS exchange, and the client-side
// StatsVersionMismatch raised against a peer speaking a different
// snapshot version.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/events_wire.hpp"
#include "net/server.hpp"
#include "net/stats.hpp"
#include "net/wire.hpp"
#include "obs/journal.hpp"

namespace rlb::net {
namespace {

EventsSnapshot make_full_snapshot() {
  EventsSnapshot snap;
  snap.role = NodeRole::kRouter;
  snap.backend_id = 42;
  snap.steady_ns = 111'222'333;
  snap.wall_ns = 1'700'000'000'000'000'000ull;
  snap.dropped = 12;
  snap.next_cursor = 20;
  snap.remaining = 3;
  EventRecord down;
  down.seq = 18;
  down.steady_ns = 100;
  down.wall_ns = 200;
  down.type = 2;  // MEMBER_DOWN
  down.a0 = 4;
  down.a1 = 1;
  snap.events.push_back(down);
  EventRecord alert;
  alert.seq = 19;
  alert.steady_ns = 150;
  alert.wall_ns = 250;
  alert.type = 12;  // ALERT_RAISED
  alert.a0 = 0;
  alert.a1 = 1;
  alert.detail = "backend_down";
  snap.events.push_back(alert);
  EventRecord epoch;
  epoch.seq = 20;
  epoch.type = 4;  // EPOCH_COMMIT
  epoch.a0 = 7;
  epoch.a1 = 64;
  snap.events.push_back(epoch);
  return snap;
}

TEST(EventsCodec, RoundTripPreservesEverything) {
  const EventsSnapshot original = make_full_snapshot();
  std::vector<std::uint8_t> payload;
  encode_events_payload(original, payload);

  EventsSnapshot decoded;
  ASSERT_TRUE(decode_events_payload(payload.data(), payload.size(), decoded));
  EXPECT_EQ(decoded.version, kEventsVersion);
  EXPECT_EQ(decoded.role, NodeRole::kRouter);
  EXPECT_EQ(decoded.backend_id, 42u);
  EXPECT_EQ(decoded.steady_ns, original.steady_ns);
  EXPECT_EQ(decoded.wall_ns, original.wall_ns);
  EXPECT_EQ(decoded.dropped, 12u);
  EXPECT_EQ(decoded.next_cursor, 20u);
  EXPECT_EQ(decoded.remaining, 3u);
  ASSERT_EQ(decoded.events.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(decoded.events[i].seq, original.events[i].seq);
    EXPECT_EQ(decoded.events[i].steady_ns, original.events[i].steady_ns);
    EXPECT_EQ(decoded.events[i].wall_ns, original.events[i].wall_ns);
    EXPECT_EQ(decoded.events[i].type, original.events[i].type);
    EXPECT_EQ(decoded.events[i].a0, original.events[i].a0);
    EXPECT_EQ(decoded.events[i].a1, original.events[i].a1);
    EXPECT_EQ(decoded.events[i].detail, original.events[i].detail);
  }
}

TEST(EventsCodec, TruncationAtEveryPrefixIsRejected) {
  std::vector<std::uint8_t> payload;
  encode_events_payload(make_full_snapshot(), payload);
  EventsSnapshot out;
  for (std::size_t size = 0; size < payload.size(); ++size) {
    EXPECT_FALSE(decode_events_payload(payload.data(), size, out))
        << "prefix of " << size << " bytes must not decode";
  }
}

TEST(EventsCodec, TrailingGarbageIsRejected) {
  std::vector<std::uint8_t> payload;
  encode_events_payload(make_full_snapshot(), payload);
  payload.push_back(0);
  EventsSnapshot out;
  EXPECT_FALSE(decode_events_payload(payload.data(), payload.size(), out));
}

TEST(EventsCodec, VersionSkewIsRejected) {
  std::vector<std::uint8_t> payload;
  encode_events_payload(make_full_snapshot(), payload);
  EventsSnapshot out;
  payload[1] = static_cast<std::uint8_t>(kEventsVersion + 1);  // LE low byte
  EXPECT_FALSE(decode_events_payload(payload.data(), payload.size(), out));
  payload[1] = static_cast<std::uint8_t>(kEventsVersion - 1);
  EXPECT_FALSE(decode_events_payload(payload.data(), payload.size(), out));
}

TEST(EventsCodec, BogusRoleAndOversizedCountAreRejected) {
  EventsSnapshot empty;
  std::vector<std::uint8_t> payload;
  encode_events_payload(empty, payload);
  // Layout: type(1) version(4) role(1) id(4) steady(8) wall(8) dropped(8)
  // next_cursor(8) remaining(8) count(4).
  EventsSnapshot out;
  std::vector<std::uint8_t> bad_role = payload;
  bad_role[5] = 7;
  EXPECT_FALSE(decode_events_payload(bad_role.data(), bad_role.size(), out));

  std::vector<std::uint8_t> bad_count = payload;
  const std::uint32_t count =
      static_cast<std::uint32_t>(kMaxEventsPerResponse + 1);
  for (int i = 0; i < 4; ++i) {
    bad_count[50 + i] = static_cast<std::uint8_t>(count >> (8 * i));
  }
  EXPECT_FALSE(
      decode_events_payload(bad_count.data(), bad_count.size(), out));
}

TEST(EventsCodec, EncoderCapsTheBatchAtTheFrameCeiling) {
  EventsSnapshot snap;
  for (std::size_t i = 0; i < kMaxEventsPerResponse + 10; ++i) {
    EventRecord e;
    e.seq = i + 1;
    snap.events.push_back(e);
  }
  std::vector<std::uint8_t> payload;
  encode_events_payload(snap, payload);
  EventsSnapshot out;
  ASSERT_TRUE(decode_events_payload(payload.data(), payload.size(), out));
  EXPECT_EQ(out.events.size(), kMaxEventsPerResponse);
}

#if !defined(RLB_OBS_DISABLED)
TEST(EventsSnapshotBuilder, ResumesFromTheCursorAndStampsTheAnchor) {
  obs::Journal& journal = obs::Journal::instance();
  const std::uint64_t cursor = journal.next_seq() - 1;  // skip older tests
  journal.append(obs::JournalType::kMemberDown, 4, 0);
  journal.append(obs::JournalType::kMigrateDone, 17, 2);
  journal.append(obs::JournalType::kEpochCommit, 9, 3, "repair");

  EventsSnapshot snap =
      make_events_snapshot(NodeRole::kBackend, 6, cursor);
  EXPECT_EQ(snap.role, NodeRole::kBackend);
  EXPECT_EQ(snap.backend_id, 6u);
  EXPECT_GT(snap.steady_ns, 0u);
  EXPECT_GT(snap.wall_ns, 0u);
  EXPECT_EQ(snap.dropped, 0u);
  EXPECT_EQ(snap.remaining, 0u);
  ASSERT_EQ(snap.events.size(), 3u);
  EXPECT_EQ(snap.events[0].type,
            static_cast<std::uint8_t>(obs::JournalType::kMemberDown));
  EXPECT_EQ(snap.events[0].seq, cursor + 1);
  EXPECT_EQ(snap.events[2].detail, "repair");
  EXPECT_EQ(snap.next_cursor, cursor + 3);

  // Resuming from the returned cursor finds nothing new and holds still.
  const EventsSnapshot again =
      make_events_snapshot(NodeRole::kBackend, 6, snap.next_cursor);
  EXPECT_TRUE(again.events.empty());
  EXPECT_EQ(again.next_cursor, snap.next_cursor);
  EXPECT_GT(again.steady_ns, 0u);  // anchor present even with no events
}
#endif

TEST(EventsEndToEnd, ClientDrainsAServersCannedBatch) {
  ServerConfig config;  // ephemeral loopback port
  NetServer server(config, /*on_request=*/nullptr);
  std::atomic<std::uint64_t> seen_cursor{~0ull};
  server.set_events_handler(
      [&server, &seen_cursor](std::uint64_t conn_token,
                              const EventsRequestMsg& msg) {
        seen_cursor.store(msg.cursor);
        EventsSnapshot snap = make_full_snapshot();
        snap.next_cursor = msg.cursor + snap.events.size();
        server.send_events(conn_token, snap);
      });
  server.start();

  Client client;
  client.connect("127.0.0.1", server.port());
  client.send_events_request(/*cursor=*/7);
  client.flush();
  EventsSnapshot snap;
  ASSERT_TRUE(client.read_events_response(snap));
  EXPECT_EQ(seen_cursor.load(), 7u);
  EXPECT_EQ(snap.role, NodeRole::kRouter);
  ASSERT_EQ(snap.events.size(), 3u);
  EXPECT_EQ(snap.events[1].detail, "backend_down");
  EXPECT_EQ(snap.next_cursor, 10u);
  client.close();
  server.stop();
}

// A one-shot canned-response listener: accepts a single connection, reads
// (and discards) whatever the client sent, writes `frame`, and closes.
class CannedServer {
 public:
  explicit CannedServer(std::vector<std::uint8_t> frame)
      : frame_(std::move(frame)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 1), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                            &len),
              0);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      std::uint8_t scratch[256];
      (void)::recv(fd, scratch, sizeof(scratch), 0);
      (void)::send(fd, frame_.data(), frame_.size(), MSG_NOSIGNAL);
      ::close(fd);
    });
  }

  ~CannedServer() {
    thread_.join();
    ::close(listen_fd_);
  }

  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  std::vector<std::uint8_t> frame_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

TEST(ClientVersionSkew, StatsMismatchThrowsWithThePeersVersion) {
  // A future/old daemon answering STATS with a different snapshot version
  // must surface as StatsVersionMismatch carrying that version — not as a
  // garbled snapshot or a generic framing error.
  StatsSnapshot snap;
  snap.role = NodeRole::kBackend;
  std::vector<std::uint8_t> payload;
  encode_stats_payload(snap, payload);
  payload[1] = static_cast<std::uint8_t>(kStatsVersion + 3);  // LE low byte
  std::vector<std::uint8_t> frame;
  ASSERT_TRUE(encode_admin_response_frame(payload, frame));

  CannedServer peer(frame);
  Client client;
  client.connect("127.0.0.1", peer.port());
  client.send_stats_request();
  client.flush();
  StatsSnapshot out;
  try {
    client.read_stats_response(out);
    FAIL() << "expected StatsVersionMismatch";
  } catch (const StatsVersionMismatch& e) {
    EXPECT_EQ(e.peer_version(), kStatsVersion + 3);
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
  client.close();
}

}  // namespace
}  // namespace rlb::net
