#include "serving.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/membership.hpp"
#include "cluster/router.hpp"
#include "core/placement_epoch.hpp"
#include "engine/engine.hpp"
#include "host.hpp"
#include "latency.hpp"
#include "micro.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "stats/histogram.hpp"
#include "stats/rng.hpp"
#include "workloads/fresh_uniform.hpp"
#include "workloads/repeated_set.hpp"

namespace perfbench {
namespace {

using namespace rlb;

// Offered rate.  The generator runs on one CPU and every thread of the
// system under test on another, so cross-CPU wake-ups follow one fixed
// path instead of wandering between placements whose latencies differ by
// half.  A stall of the generator's or the system's CPU arrives at the
// backend as one burst of every request due meanwhile, and the E22
// backend's waiting room (2 shards x 8 x 32 = 512; the 1-shard backend
// behind the router has 8 x 64 = 512) refuses what does not fit.  At 5k
// rps only a stall of over 100 ms overflows it.  Stalls of 5-20 ms are
// common on a shared host, and one long enough to refuse 70 requests at
// 20k rps (~30 ms) was seen; this rate keeps served_share at 1 run after
// run.  Every serving workload runs at it, so router-fresh minus
// direct-fresh is the router hop.
constexpr double kRate = 5000.0;
constexpr double kWarmupSeconds = 1.0;
constexpr double kDrainSeconds = 2.0;
constexpr double kWindowSeconds = 0.5;
/// Bring-ups timed for setup_s, before the run (the last one serves it)
/// and again after it.
constexpr int kSetups = 200;
constexpr std::uint64_t kEngineSeed = 7;
constexpr std::uint64_t kRouterSeed = 1;
constexpr std::uint64_t kRouterChunks = 1u << 16;
constexpr std::size_t kServers = 64;

struct Shape {
  bool router = false;
  bool reappear = false;
  std::size_t shards = 2;
};

Shape shape_of(const std::string& workload) {
  if (workload == "direct-fresh") return {false, false, 2};
  if (workload == "direct-reappear") return {false, true, 2};
  if (workload == "router-fresh") return {true, false, 1};
  throw std::invalid_argument("unknown serving workload " + workload);
}

// Per-request timestamps the traced run takes at the backend's edges:
// batch-handler entry and engine response callback.  Requests are indexed
// by their position in the drive; behind the router the backend sees
// router-assigned hop ids, so the index comes from the (fresh, sequential)
// key and the hop id is mapped back to it for the callback.
struct Tap {
  Tap(std::size_t n, bool by_key, std::uint64_t key_base)
      : size(n),
        by_key(by_key),
        key_base(key_base),
        handler_ns(new std::atomic<std::uint64_t>[n]),
        callback_ns(new std::atomic<std::uint64_t>[n]) {
    for (std::size_t i = 0; i < n; ++i) {
      handler_ns[i].store(0, std::memory_order_relaxed);
      callback_ns[i].store(0, std::memory_order_relaxed);
    }
  }

  /// Index of a request arriving at the handler; `size` when unknown.
  std::size_t on_handler(std::uint64_t request_id, std::uint64_t key) {
    const std::uint64_t index = by_key ? key - key_base : request_id;
    if (index >= size) return size;
    if (by_key) {
      std::lock_guard lock(hop_mu);
      hop_to_index[request_id] = index;
    }
    return static_cast<std::size_t>(index);
  }

  std::size_t on_callback(std::uint64_t request_id) {
    if (!by_key) return request_id < size ? request_id : size;
    std::lock_guard lock(hop_mu);
    const auto it = hop_to_index.find(request_id);
    if (it == hop_to_index.end()) return size;
    const std::size_t index = it->second;
    hop_to_index.erase(it);
    return index;
  }

  const std::size_t size;
  const bool by_key;
  const std::uint64_t key_base;
  std::unique_ptr<std::atomic<std::uint64_t>[]> handler_ns;
  std::unique_ptr<std::atomic<std::uint64_t>[]> callback_ns;
  std::mutex hop_mu;
  std::unordered_map<std::uint64_t, std::size_t> hop_to_index;
  std::atomic<std::uint64_t> handler_calls{0};
  std::atomic<std::uint64_t> handler_requests{0};
  std::atomic<std::uint64_t> submit_ns{0};
};

/// An rlbd-shaped backend: NetServer + ServingEngine wired as rlbd wires
/// them (batched submit, STATS for the router's heartbeats).
class Backend {
 public:
  explicit Backend(const engine::EngineConfig& config) {
    server_ = std::make_unique<net::NetServer>(
        net::ServerConfig{},
        [this](std::uint64_t token, const net::RequestMsg& request) {
          const net::ServerRequest one{token, request};
          on_batch(&one, 1);
        });
    server_->set_request_batch_handler(
        [this](const net::ServerRequest* batch, std::size_t count) {
          on_batch(batch, count);
        });
    server_->set_stats_handler(
        [this](std::uint64_t token, const net::StatsRequestMsg&) {
          server_->send_stats(token, engine_->snapshot());
        });
    engine_ = std::make_unique<engine::ServingEngine>(
        config, [this](const engine::EngineResponse& r) { on_response(r); });
    engine_->start();
    server_->start();
  }

  ~Backend() { stop(); }
  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  /// Drain the engine (answering everything in flight), then the server.
  void stop() {
    engine_->stop();
    server_->stop();
  }

  void set_tap(Tap* tap) { tap_.store(tap, std::memory_order_release); }
  std::uint16_t port() const { return server_->port(); }
  const engine::ServingEngine& engine() const { return *engine_; }
  net::ServerStats server_stats() const { return server_->stats(); }

 private:
  void on_batch(const net::ServerRequest* batch, std::size_t count) {
    Tap* tap = tap_.load(std::memory_order_acquire);
    const std::uint64_t entry_ns = tap != nullptr ? now_ns() : 0;
    items_.clear();
    rejected_.clear();
    for (std::size_t i = 0; i < count; ++i) {
      items_.push_back({batch[i].conn_token, batch[i].msg.request_id,
                        batch[i].msg.key, batch[i].msg.trace});
      if (tap != nullptr) {
        const std::size_t index =
            tap->on_handler(batch[i].msg.request_id, batch[i].msg.key);
        if (index < tap->size) {
          tap->handler_ns[index].store(entry_ns, std::memory_order_release);
        }
      }
    }
    const std::uint64_t submit_start = tap != nullptr ? now_ns() : 0;
    engine_->submit_batch(items_.data(), count, rejected_);
    if (tap != nullptr) {
      tap->submit_ns.fetch_add(now_ns() - submit_start,
                               std::memory_order_relaxed);
      tap->handler_calls.fetch_add(1, std::memory_order_relaxed);
      tap->handler_requests.fetch_add(count, std::memory_order_relaxed);
    }
    for (const std::size_t i : rejected_) {
      net::ResponseMsg msg;
      msg.request_id = batch[i].msg.request_id;
      msg.status = net::Status::kError;
      server_->send_response(batch[i].conn_token, msg);
    }
  }

  void on_response(const engine::EngineResponse& r) {
    if (Tap* tap = tap_.load(std::memory_order_acquire)) {
      const std::size_t index = tap->on_callback(r.request_id);
      if (index < tap->size) {
        tap->callback_ns[index].store(now_ns(), std::memory_order_release);
      }
    }
    net::ResponseMsg msg;
    msg.request_id = r.request_id;
    msg.status = static_cast<net::Status>(r.status);
    msg.server = static_cast<std::uint32_t>(r.server);
    msg.wait_steps = r.wait_steps;
    server_->send_response(r.conn_token, msg);
  }

  std::unique_ptr<net::NetServer> server_;
  std::unique_ptr<engine::ServingEngine> engine_;
  std::atomic<Tap*> tap_{nullptr};
  // Reused by on_batch, which only the server's event-loop thread runs.
  std::vector<engine::ServingEngine::SubmitItem> items_;
  std::vector<std::size_t> rejected_;
};

engine::EngineConfig engine_config(const Shape& shape) {
  engine::EngineConfig config;
  config.policy = "greedy";
  config.servers = kServers;
  config.replication = 2;
  config.processing_rate = 4;
  config.shards = shape.shards;
  config.seed = kEngineSeed;
  return config;
}

/// The system under test: a backend, and in front of it a router when the
/// workload goes through one.
struct Sut {
  std::unique_ptr<Backend> backend;
  std::unique_ptr<cluster::Router> router;

  std::uint16_t port() const {
    return router ? router->port() : backend->port();
  }
};

/// Poll `done` until it holds; throw `what` after 10 s.
template <class Done>
void wait_until(Done&& done, const char* what) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) {
      throw std::runtime_error(what);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

/// Bring the system under test up, until it has answered: the backend is
/// started and, behind a router, the router's first heartbeat to it has
/// come back.  setup_s times this.
std::unique_ptr<Sut> bring_up(const Shape& shape) {
  auto sut = std::make_unique<Sut>();
  sut->backend = std::make_unique<Backend>(engine_config(shape));
  if (!shape.router) return sut;
  cluster::RouterConfig config;
  config.backends.push_back({"127.0.0.1", sut->backend->port()});
  config.replication = 1;
  config.chunks = kRouterChunks;
  config.seed = kRouterSeed;
  sut->router = std::make_unique<cluster::Router>(config);
  sut->router->start();
  const cluster::Membership& membership = sut->router->membership();
  wait_until([&] { return membership.view(0).heartbeats_ok > 0; },
             "the router never heard its backend's heartbeat");
  return sut;
}

/// Wait until the router routes to its backend.  Membership only trusts a
/// backend after `probation_successes` more heartbeats, a wait of whole
/// heartbeat intervals that says nothing about the code, so setup_s
/// leaves it out.
void wait_until_routable(const Sut& sut) {
  if (!sut.router) return;
  const cluster::Membership& membership = sut.router->membership();
  wait_until([&] { return membership.live_count() == 1; },
             "the router never saw its backend live");
}

/// Keys from the workload's public generator, flattened step by step the
/// way rlb_loadgen's KeyStream does.
class KeyStream {
 public:
  KeyStream(const Shape& shape, std::uint64_t seed) {
    if (shape.reappear) {
      // The paper's adversary: the same |S| = m chunks every step.
      source_ = std::make_unique<workloads::RepeatedSetWorkload>(
          kServers, 1ull << 40, stats::derive_seed(seed, 0x5e7));
    } else {
      // Never-seen keys from a seed-chosen base; the engine's key hash
      // spreads them uniformly over its chunks.
      source_ = std::make_unique<workloads::FreshUniformWorkload>(
          64, stats::derive_seed(seed, 0xf7e5) >> 16);
    }
  }

  std::uint64_t next() {
    const std::uint64_t key = peek();
    ++cursor_;
    ++delivered_;
    return key;
  }

  std::uint64_t peek() {
    while (cursor_ >= batch_.size()) {
      const std::uint64_t start = now_ns();
      source_->fill_step(t_++, batch_);
      fill_ns_ += now_ns() - start;
      cursor_ = 0;
    }
    return batch_[cursor_];
  }

  /// Time spent in the generator's fill_step() per key delivered, in ns.
  double fill_ns_per_key() const {
    return delivered_ ? static_cast<double>(fill_ns_) /
                            static_cast<double>(delivered_)
                      : 0.0;
  }

 private:
  std::unique_ptr<core::Workload> source_;
  std::vector<core::ChunkId> batch_;
  std::size_t cursor_ = 0;
  core::Time t_ = 0;
  std::uint64_t fill_ns_ = 0;
  std::uint64_t delivered_ = 0;
};

enum : std::uint8_t { kPending = 0, kOk = 1, kRefused = 2, kErrored = 3 };

struct DriveResult {
  /// Measured window: OK latencies from the intended send time; refused,
  /// errored and unanswered requests count as beyond every limit.
  LatencyHistogram latency;
  /// The same samples split by intended send time into kWindowSeconds
  /// windows.
  std::vector<LatencyHistogram> windows;
  /// Process CPU time at each window boundary (windows.size() + 1 marks).
  std::vector<std::uint64_t> cpu_marks;
  /// Time stolen from the generator's and the system's CPUs by each
  /// window boundary, in milliseconds.
  std::vector<double> steal_marks;
  /// How late the generator sent each burst, measured window only.
  LatencyHistogram lateness;
  stats::CountingHistogram wait_steps{1u << 16};
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t refused = 0;
  std::uint64_t errors = 0;
  std::uint64_t unanswered = 0;
  /// Whole drive, warm-up included (for the cross-checks with the
  /// backend's own counters).
  std::uint64_t total_sent = 0;
  std::uint64_t total_ok = 0;
  std::uint64_t total_refused = 0;
  std::uint64_t total_errors = 0;
  /// RESPONSE frames decoded, matched or not.
  std::uint64_t total_responses = 0;
  double steal_ms = 0.0;
  std::uint64_t t0_ns = 0;
  double period_ns = 0.0;
  std::vector<std::uint8_t> status;
  std::vector<std::uint64_t> recv_ns;
  std::vector<std::string> violations;

  LatencyHistogram& window_of(std::uint64_t i, std::size_t warm) {
    const auto w = static_cast<std::size_t>(
        static_cast<double>(i - warm) * period_ns / (kWindowSeconds * 1e9));
    return windows[std::min(w, windows.size() - 1)];
  }

  std::uint64_t intended(std::uint64_t i) const {
    return t0_ns + static_cast<std::uint64_t>(static_cast<double>(i) * period_ns);
  }
};

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("connect() to the system under test failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// Open-loop drive: request i is due at t0 + i / rate whether or not
/// earlier ones were answered.  Requests [0, warm) warm the system up and
/// are not measured.  One thread sends and receives over one connection,
/// sleeping in ppoll() until the next request is due or a response lands.
/// `cpus` are the CPUs the generator and the system run on.
DriveResult drive(std::uint16_t port, KeyStream& keys, std::size_t total,
                  std::size_t warm, double rate, const std::vector<int>& cpus,
                  bool keep_recv_times) {
  DriveResult r;
  const auto mark_window = [&] {
    r.cpu_marks.push_back(process_cpu_ns());
    double stolen = 0.0;
    for (const int cpu : cpus) stolen += host_steal_ms(cpu);
    r.steal_marks.push_back(stolen);
  };
  r.status.assign(total, kPending);
  if (keep_recv_times) r.recv_ns.assign(total, 0);
  r.period_ns = 1e9 / rate;
  r.windows.resize(std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(total - warm) / rate /
                                  kWindowSeconds)));
  prctl(PR_SET_TIMERSLACK, 1000UL);  // wake within ~1 us of the due time
  const int fd = connect_loopback(port);

  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
  std::vector<std::uint8_t> in(64 * 1024);
  net::FrameDecoder decoder;
  net::RequestMsg request;
  net::ResponseMsg response;
  std::size_t next = 0;
  std::size_t answered = 0;
  bool window_open = false;
  double steal_start = 0.0;
  bool peer_closed = false;

  r.t0_ns = now_ns() + 1'000'000;
  std::uint64_t drain_deadline = 0;
  while (true) {
    std::uint64_t now = now_ns();
    if (window_open && r.cpu_marks.size() < r.windows.size() &&
        now >= r.intended(warm) + static_cast<std::uint64_t>(
                   static_cast<double>(r.cpu_marks.size()) * kWindowSeconds * 1e9)) {
      mark_window();
    }
    if (next < total && now >= r.intended(next)) {
      const std::size_t due = std::min<std::size_t>(
          total, static_cast<std::size_t>(
                     static_cast<double>(now - r.t0_ns) / r.period_ns) + 1);
      if (!window_open && due > warm) {
        window_open = true;
        steal_start = host_steal_ms();
        mark_window();
      }
      if (next >= warm) r.lateness.add(now - r.intended(next));
      for (; next < due; ++next) {
        request.request_id = next;
        request.key = keys.next();
        net::encode_request(request, out);
      }
      if (next == total) {
        drain_deadline = now + static_cast<std::uint64_t>(kDrainSeconds * 1e9);
      }
    }
    while (out_off < out.size()) {
      const ssize_t n = ::send(fd, out.data() + out_off, out.size() - out_off,
                               MSG_NOSIGNAL);
      if (n > 0) {
        out_off += static_cast<std::size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && errno == EAGAIN) {
        break;
      } else {
        r.violations.push_back("send to the system under test failed");
        peer_closed = true;
        break;
      }
    }
    if (out_off == out.size()) {
      out.clear();
      out_off = 0;
    }
    while (!peer_closed) {
      const ssize_t n = ::recv(fd, in.data(), in.size(), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) break;  // EAGAIN: nothing more to read now
      if (n == 0) {
        peer_closed = true;
        break;
      }
      const std::uint64_t recv_ns = now_ns();
      if (!decoder.feed(in.data(), static_cast<std::size_t>(n))) {
        r.violations.push_back("response stream broke framing");
        peer_closed = true;
        break;
      }
      net::FrameView view;
      while (decoder.next_view(view)) {
        if (net::decode_payload(view.data, view.size, request, response) !=
            net::Decoded::kResponse) {
          r.violations.push_back("a frame from the system is not a RESPONSE");
          continue;
        }
        ++r.total_responses;
        const std::uint64_t id = response.request_id;
        if (id >= next || r.status[id] != kPending) {
          r.violations.push_back("response id " + std::to_string(id) +
                                 " matches no outstanding request");
          continue;
        }
        ++answered;
        const bool measured = id >= warm;
        if (response.status == net::Status::kOk) {
          r.status[id] = kOk;
          ++r.total_ok;
          if (measured) {
            ++r.ok;
            r.latency.add(recv_ns - r.intended(id));
            r.window_of(id, warm).add(recv_ns - r.intended(id));
            r.wait_steps.add(response.wait_steps);
          }
        } else {
          const bool refused = net::is_reject(response.status);
          r.status[id] = refused ? kRefused : kErrored;
          ++(refused ? r.total_refused : r.total_errors);
          if (measured) {
            ++(refused ? r.refused : r.errors);
            r.latency.add_beyond();
            r.window_of(id, warm).add_beyond();
          }
        }
        if (keep_recv_times) r.recv_ns[id] = recv_ns;
      }
    }
    if (peer_closed) {
      r.violations.push_back("the system under test closed the connection");
      break;
    }
    now = now_ns();
    if (next == total && (answered == total || now >= drain_deadline)) break;
    const std::uint64_t wake =
        next < total ? r.intended(next) : drain_deadline;
    if (wake > now || out_off < out.size()) {
      pollfd pfd{fd, static_cast<short>(POLLIN | (out.empty() ? 0 : POLLOUT)),
                 0};
      const std::uint64_t wait = wake > now ? wake - now : 0;
      const timespec ts{static_cast<time_t>(wait / 1'000'000'000ull),
                        static_cast<long>(wait % 1'000'000'000ull)};
      ::ppoll(&pfd, 1, &ts, nullptr);
    }
  }
  mark_window();
  r.steal_ms = host_steal_ms() - steal_start;
  ::close(fd);

  r.total_sent = next;
  r.sent = next > warm ? next - warm : 0;
  for (std::size_t i = warm; i < next; ++i) {
    if (r.status[i] == kPending) {
      ++r.unanswered;
      r.window_of(i, warm).add_beyond();
    }
  }
  r.latency.add_beyond(r.unanswered);
  return r;
}

double us(double ns) { return ns / 1000.0; }

/// The windows in which the hypervisor stole no time from the generator's
/// or the system's CPU; all windows when there is none.  The program
/// cannot cause steal, so leaving these windows out hides no slowdown of
/// its own.
std::vector<std::size_t> calm_windows(const DriveResult& d) {
  std::vector<std::size_t> calm;
  for (std::size_t w = 0; w < d.windows.size(); ++w) {
    if (w + 1 < d.steal_marks.size() &&
        d.steal_marks[w + 1] == d.steal_marks[w]) {
      calm.push_back(w);
    }
  }
  if (calm.empty()) {
    for (std::size_t w = 0; w < d.windows.size(); ++w) calm.push_back(w);
  }
  return calm;
}

/// The median over the drive's calm windows of each window's q-quantile
/// latency, in microseconds.  A host stall spoils the windows it falls in,
/// not the run's figure.
double windowed_us(const DriveResult& d, double q) {
  std::vector<double> per_window;
  for (const std::size_t w : calm_windows(d)) {
    per_window.push_back(d.windows[w].quantile(q));
  }
  return us(exact_quantile(per_window, 0.5));
}

/// Per calm window, process CPU over answered-OK requests, in
/// microseconds.
std::vector<double> window_cpu_us(const DriveResult& d) {
  std::vector<double> out;
  for (const std::size_t w : calm_windows(d)) {
    if (w + 1 >= d.cpu_marks.size()) continue;
    const std::uint64_t ok = d.windows[w].finite_count();
    if (ok == 0) continue;
    out.push_back(us(static_cast<double>(d.cpu_marks[w + 1] - d.cpu_marks[w])) /
                  static_cast<double>(ok));
  }
  return out;
}

/// Engine counters summed over shards.
net::ShardStats engine_totals(const Backend& backend) {
  return backend.engine().snapshot().totals();
}

/// The end-to-end metrics of one measured drive.
void report_end_to_end(const DriveResult& d, Report& report) {
  report.metrics["p50_us"] = windowed_us(d, 0.50);
  report.metrics["p90_us"] = windowed_us(d, 0.90);
  report.metrics["served_share"] =
      d.sent ? static_cast<double>(d.ok) / static_cast<double>(d.sent) : 0.0;
  std::vector<double> cpu = window_cpu_us(d);
  report.metrics["cpu_us_per_req"] = exact_quantile(cpu, 0.5);
}

/// Latency-leg histograms of one traced drive.
struct Legs {
  LatencyHistogram inbound;    // intended send -> backend handler entry
  LatencyHistogram residence;  // handler entry -> engine response callback
  LatencyHistogram outbound;   // response callback -> client decode
  std::uint64_t unmatched = 0;
};

Legs legs_of(const DriveResult& d, const Tap& tap, std::size_t warm) {
  Legs legs;
  for (std::size_t i = warm; i < d.status.size() && i < tap.size; ++i) {
    if (d.status[i] != kOk) continue;
    const std::uint64_t handler =
        tap.handler_ns[i].load(std::memory_order_acquire);
    const std::uint64_t callback =
        tap.callback_ns[i].load(std::memory_order_acquire);
    const std::uint64_t intended = d.intended(i);
    if (handler == 0 || callback < handler || d.recv_ns[i] < callback ||
        handler < intended) {
      ++legs.unmatched;
      continue;
    }
    legs.inbound.add(handler - intended);
    legs.residence.add(callback - handler);
    legs.outbound.add(d.recv_ns[i] - callback);
  }
  return legs;
}

/// Time the public functions the request path calls, outside the live
/// run: request encoding, response-frame decoding, and (behind the
/// router) placement lookup and backend pick.
void report_micro(const Shape& shape, const std::vector<std::uint64_t>& keys,
                  Report& report) {
  const std::size_t n = keys.size();
  std::vector<std::uint8_t> buffer;
  buffer.reserve(n * (4 + net::kRequestPayloadSize));
  report.metrics["net.encode_request_ns"] = ns_per_op(n, [&] {
    buffer.clear();
    net::RequestMsg msg;
    for (std::size_t i = 0; i < n; ++i) {
      msg.request_id = i;
      msg.key = keys[i];
      net::encode_request(msg, buffer);
    }
    return buffer.size();
  });

  std::vector<std::uint8_t> frames;
  for (std::size_t i = 0; i < n; ++i) {
    net::ResponseMsg msg;
    msg.request_id = i;
    msg.server = static_cast<std::uint32_t>(keys[i] % kServers);
    msg.wait_steps = static_cast<std::uint32_t>(i % 7);
    net::encode_response(msg, frames);
  }
  report.metrics["net.frame_decode_ns"] = ns_per_op(n, [&] {
    net::FrameDecoder decoder;
    net::FrameView view;
    net::RequestMsg request;
    net::ResponseMsg response;
    std::uint64_t sum = 0;
    constexpr std::size_t kRead = 64 * 1024;
    for (std::size_t off = 0; off < frames.size(); off += kRead) {
      decoder.feed(frames.data() + off, std::min(kRead, frames.size() - off));
      while (decoder.next_view(view)) {
        net::decode_payload(view.data, view.size, request, response);
        sum += response.request_id;
      }
    }
    return sum;
  });

  if (!shape.router) return;
  // The router-fresh shape: one backend, one candidate per chunk.
  const core::EpochedPlacement placement(1, 1, kRouterSeed);
  std::vector<core::ChoiceList> choices(n);
  report.metrics["core.placement_choices_ns"] = ns_per_op(n, [&] {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      choices[i] = placement.choices(keys[i] % kRouterChunks);
      sum += choices[i][0];
    }
    return sum;
  });
  cluster::Membership membership(1, cluster::MembershipConfig{});
  for (unsigned i = 0; i < 4; ++i) {
    membership.record_success(0, cluster::HeartbeatSample{});
  }
  report.metrics["cluster.pick_ns"] = ns_per_op(n, [&] {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += static_cast<std::uint64_t>(
          membership.pick(choices[i].begin(), choices[i].size()) + 1);
    }
    return sum;
  });
}

/// The engine's duplicate deferral on the paper's adversary.  In the live
/// run requests arrive about one per engine tick, so a tick never holds a
/// chunk twice and deferral does not run.  Here bursts of two steps of the
/// repeated set go straight into a fresh engine through submit_batch(),
/// each answered in full before the next: every tick holds each chunk
/// twice and defers one copy to a later tick.
void report_deferral(const Shape& shape, std::uint64_t seed, Report& report) {
  constexpr std::size_t kBurst = 2 * kServers;
  constexpr int kBursts = 2000;
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> waited{0};
  engine::ServingEngine engine(
      engine_config(shape), [&](const engine::EngineResponse& r) {
        if (r.wait_steps > 0) waited.fetch_add(1, std::memory_order_relaxed);
        answered.fetch_add(1, std::memory_order_release);
      });
  engine.start();
  KeyStream keys(shape, seed);
  std::vector<engine::ServingEngine::SubmitItem> items(kBurst);
  std::vector<std::size_t> refused;
  std::vector<double> burst_ns;
  std::uint64_t submitted = 0;
  for (int b = 0; b < kBursts; ++b) {
    for (engine::ServingEngine::SubmitItem& item : items) {
      item.request_id = submitted++;
      item.key = keys.next();
    }
    const std::uint64_t start = now_ns();
    engine.submit_batch(items.data(), items.size(), refused);
    while (answered.load(std::memory_order_acquire) + refused.size() <
           submitted) {
      std::this_thread::yield();
    }
    burst_ns.push_back(static_cast<double>(now_ns() - start));
  }
  const net::ShardStats totals = engine.snapshot().totals();
  engine.stop();
  report.check(refused.empty() && totals.rejected_total() == 0,
               "deferral bursts: the engine refused requests");
  report.metrics["engine.burst_us_p50"] = us(exact_quantile(burst_ns, 0.5));
  report.metrics["engine.burst_batch_mean"] =
      totals.batches ? static_cast<double>(totals.batched_chunks) /
                           static_cast<double>(totals.batches)
                     : 0.0;
  report.metrics["engine.burst_waited_share"] =
      static_cast<double>(waited.load()) / static_cast<double>(submitted);
}

}  // namespace

bool is_serving_workload(const std::string& workload) {
  return workload == "direct-fresh" || workload == "direct-reappear" ||
         workload == "router-fresh";
}

Report run_serving(const std::string& workload, std::uint64_t seed,
                   double seconds, bool trace) {
  const Shape shape = shape_of(workload);
  Report report;
  report.info["rate_rps"] = std::to_string(static_cast<long>(kRate));
  report.info["shape"] =
      std::string(shape.router ? "router-1 -> " : "") +
      "greedy m=64 d=2 g=4 shards=" + std::to_string(shape.shards);

  // The generator gets the least disturbed CPU and the system the next;
  // every thread the system starts inherits the CPU its creator runs on.
  const std::vector<int> cpus = cpus_fastest_first();
  const int generator_cpu = cpus.front();
  const int system_cpu = cpus.size() > 1 ? cpus[1] : cpus.front();
  report.info["cpus"] = "generator " + std::to_string(generator_cpu) +
                        ", system " + std::to_string(system_cpu);
  pin_calling_thread(system_cpu);
  std::vector<double> setups;
  std::unique_ptr<Sut> sut;
  for (int i = 0; i < kSetups; ++i) {
    sut.reset();
    const std::uint64_t start = now_ns();
    sut = bring_up(shape);
    setups.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }
  wait_until_routable(*sut);

  pin_calling_thread(generator_cpu);
  KeyStream stream(shape, seed);
  const auto warm = static_cast<std::size_t>(kWarmupSeconds * kRate);
  const auto phase_requests = [&](double phase_seconds) {
    return warm + static_cast<std::size_t>(
                      std::max(1.0, phase_seconds * kRate));
  };

  std::uint64_t sent_total = 0;
  std::uint64_t ok_total = 0;
  std::uint64_t refused_total = 0;
  std::uint64_t responses_total = 0;
  bool all_answered = true;
  const auto account = [&](const DriveResult& d) {
    sent_total += d.total_sent;
    ok_total += d.total_ok;
    refused_total += d.total_refused;
    responses_total += d.total_responses;
    all_answered = all_answered && d.total_sent == d.total_ok +
                                                       d.total_refused +
                                                       d.total_errors;
    for (const std::string& v : d.violations) report.violations.push_back(v);
  };

  const DriveResult plain =
      drive(sut->port(), stream, phase_requests(trace ? seconds / 2 : seconds),
            warm, kRate, {generator_cpu, system_cpu}, false);
  account(plain);
  report_end_to_end(plain, report);
  report.metrics["peak_rss_mb"] = peak_rss_mb();
  report.attempted = plain.sent;
  report.failed = plain.refused + plain.errors + plain.unanswered;
  report.counts["sent"] = plain.sent;
  report.counts["answered_ok"] = plain.ok;
  report.counts["refused"] = plain.refused;
  report.counts["errored"] = plain.errors;
  report.counts["unanswered"] = plain.unanswered;
  report.counts["windows"] = plain.windows.size();
  report.counts["windows_calm"] = calm_windows(plain).size();
  report.metrics["loadgen.fail_share"] =
      plain.sent ? static_cast<double>(report.failed) /
                       static_cast<double>(plain.sent)
                 : 0.0;
  report.metrics["loadgen.p99_us"] = us(plain.latency.answered_quantile(0.99));
  report.metrics["loadgen.p999_us"] =
      us(plain.latency.answered_quantile(0.999));
  report.metrics["loadgen.late_p99_us"] = us(plain.lateness.quantile(0.99));
  report.metrics["loadgen.late_max_us"] =
      us(static_cast<double>(plain.lateness.max_ns()));
  report.metrics["host.steal_ms"] = plain.steal_ms;
  report.metrics["workloads.fill_step_ns_per_req"] = stream.fill_ns_per_key();
  report.metrics["engine.wait_steps_max"] =
      static_cast<double>(plain.wait_steps.max_observed());

  if (trace) {
    // Behind the router the backend sees hop ids, so a request's index
    // comes from its key: fresh keys are consecutive.
    const std::size_t traced_total = phase_requests(seconds / 2);
    Tap tap(traced_total, shape.router, shape.router ? stream.peek() : 0);
    const net::ShardStats before = engine_totals(*sut->backend);
    sut->backend->set_tap(&tap);
    const DriveResult traced =
        drive(sut->port(), stream, traced_total, warm, kRate,
              {generator_cpu, system_cpu}, true);
    sut->backend->set_tap(nullptr);
    const net::ShardStats after = engine_totals(*sut->backend);
    account(traced);

    const Legs legs = legs_of(traced, tap, warm);
    const double p50 = traced.latency.quantile(0.5);
    report.metrics["trace.overhead_p50_us"] =
        windowed_us(traced, 0.5) - windowed_us(plain, 0.5);
    const double in50 = legs.inbound.quantile(0.5);
    const double res50 = legs.residence.quantile(0.5);
    const double out50 = legs.outbound.quantile(0.5);
    report.metrics["trace.leg_sum_share"] =
        leg_sum_share({in50, res50, out50}, p50);
    report.check(legs.unmatched == 0,
                 "traced requests without timestamps at the backend's edges");
    const std::string in = shape.router ? "cluster.forward_us" : "net.inbound_us";
    const std::string out = shape.router ? "cluster.relay_us" : "net.outbound_us";
    report.metrics[in + "_p50"] = us(in50);
    report.metrics[in + "_p90"] = us(legs.inbound.quantile(0.9));
    report.metrics[out + "_p50"] = us(out50);
    report.metrics[out + "_p90"] = us(legs.outbound.quantile(0.9));
    report.metrics["engine.residence_us_p50"] = us(res50);
    report.metrics["engine.residence_us_p90"] = us(legs.residence.quantile(0.9));

    const double calls = static_cast<double>(tap.handler_calls.load());
    const double reqs = static_cast<double>(tap.handler_requests.load());
    report.metrics["net.reqs_per_handler_call"] = calls > 0 ? reqs / calls : 0.0;
    report.metrics["engine.submit_batch_ns_per_req"] =
        reqs > 0 ? static_cast<double>(tap.submit_ns.load()) / reqs : 0.0;

    const double submitted =
        static_cast<double>(after.submitted - before.submitted);
    const double batched =
        static_cast<double>(after.batched_chunks - before.batched_chunks);
    const double batches = static_cast<double>(after.batches - before.batches);
    report.metrics["engine.ticks_per_req"] =
        submitted > 0 ? static_cast<double>(after.ticks - before.ticks) / submitted
                      : 0.0;
    report.metrics["engine.batch_mean"] = batches > 0 ? batched / batches : 0.0;
    report.metrics["engine.step_ns_per_req"] =
        batched > 0 ? static_cast<double>(after.step_ns - before.step_ns) / batched
                    : 0.0;
    report.metrics["engine.reject_admission"] = static_cast<double>(
        after.rejected_admission - before.rejected_admission);
    report.metrics["engine.reject_queue_full"] = static_cast<double>(
        after.rejected_queue_full - before.rejected_queue_full);
    report.metrics["engine.wait_steps_p50"] =
        static_cast<double>(traced.wait_steps.quantile(0.5));
    report.metrics["engine.wait_steps_p99"] =
        static_cast<double>(traced.wait_steps.quantile(0.99));
    report.metrics["engine.wait_steps_max"] =
        static_cast<double>(traced.wait_steps.max_observed());
    report.metrics["host.steal_ms"] = plain.steal_ms + traced.steal_ms;
    std::vector<std::uint64_t> sample(1u << 16);
    for (std::uint64_t& key : sample) key = stream.next();
    report_micro(shape, sample, report);
    if (shape.reappear) report_deferral(shape, seed, report);
  }

  // Conservation across every layer, once everything is drained.
  std::optional<cluster::RouterStats> router_stats;
  if (sut->router) {
    sut->router->stop();
    router_stats = sut->router->stats();
  }
  sut->backend->stop();
  const net::ShardStats engine = engine_totals(*sut->backend);
  const net::ServerStats server = sut->backend->server_stats();
  report.check(engine.submitted == engine.completed + engine.rejected_total(),
               "engine: submitted != completed + rejected after drain");
  report.check(server.protocol_errors == 0, "backend saw protocol errors");
  if (router_stats) {
    const cluster::RouterStats& rs = *router_stats;
    report.check(rs.received == rs.relayed_ok + rs.relayed_reject +
                                    rs.relayed_error +
                                    rs.rejected_upstream_down +
                                    rs.rejected_upstream_timeout,
                 "router: received != relayed + rejected upstream");
    report.check(rs.received == sent_total,
                 "router: received != requests sent");
    report.check(engine.submitted == rs.forwarded,
                 "engine: submitted != router forwarded");
    const std::uint64_t answers = rs.relayed_ok + rs.relayed_reject +
                                  rs.relayed_error + rs.rejected_upstream_down +
                                  rs.rejected_upstream_timeout;
    report.check(all_answered ? responses_total == answers
                              : responses_total <= answers,
                 "client: responses received != answers the router sent");
    if (all_answered) {
      report.check(rs.relayed_ok == ok_total, "router: relayed_ok != client OK");
    }
    report.metrics["cluster.retries"] = static_cast<double>(rs.retries);
    report.metrics["cluster.timeouts"] = static_cast<double>(rs.timeouts);
    report.metrics["cluster.late_responses"] =
        static_cast<double>(rs.late_responses);
  } else {
    report.check(engine.submitted == sent_total,
                 "engine: submitted != requests sent");
    report.check(server.requests_decoded == sent_total,
                 "server: requests decoded != requests sent");
    report.check(all_answered ? responses_total == server.responses_sent
                              : responses_total <= server.responses_sent,
                 "client: responses received != responses the server sent");
    if (all_answered) {
      report.check(engine.completed == ok_total,
                   "engine: completed != client OK responses");
      report.check(engine.rejected_total() == refused_total,
                   "engine: rejected != client refusals");
    }
  }
  report.counts["sent_all_phases"] = sent_total;

  sut.reset();
  pin_calling_thread(system_cpu);
  for (int i = 0; i < kSetups; ++i) {
    const std::uint64_t start = now_ns();
    sut = bring_up(shape);
    setups.push_back(static_cast<double>(now_ns() - start) / 1e9);
    sut.reset();
  }
  report.metrics["setup_s"] = exact_quantile(setups, 0.5);
  return report;
}

}  // namespace perfbench
