// rlb_stat — poll a running rlbd for its live metrics snapshot.
//
// Opens a dedicated admin connection (STATS frames never share a
// connection with request traffic), sends one STATS frame per poll, and
// renders the STATS_RESP snapshot: an aligned per-shard table plus the
// safe-set monitor by default, Prometheus text with --prom, one JSON line
// with --json, or a continuously refreshed view with --watch (which also
// shows per-interval deltas between scrapes next to lifetime counters).
//
// --events switches to the health plane's control-plane journal: every
// endpoint (the single --host/--port target, or the --cluster list) is
// drained over the EVENTS opcode and the per-process journals are merged
// into one clock-aligned timeline, using the same RTT-midpoint anchor
// correction as rlb_trace.  --follow keeps tailing new events.
#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <iostream>
#include <string>
#include <vector>

#include <unistd.h>

#include "cluster/router.hpp"
#include "net/admin_drain.hpp"
#include "net/client.hpp"
#include "net/stats.hpp"
#include "obs/journal.hpp"
#include "obs/span.hpp"
#include "report/table.hpp"

namespace {

volatile std::sig_atomic_t g_stop_requested = 0;

void handle_signal(int) { g_stop_requested = 1; }

void usage(const char* argv0) {
  std::cerr << "usage: " << argv0 << " [flags]\n"
            << "  --host <addr>     daemon address (default 127.0.0.1)\n"
            << "  --port <p>        daemon port (default 4117)\n"
            << "  --watch [s]       refresh every s seconds (default 1)\n"
            << "  --prom            Prometheus text exposition\n"
            << "  --json            one JSON object per snapshot\n"
            << "  --cluster <host:port,...>\n"
            << "                    fan out: scrape every listed endpoint\n"
            << "                    (router + backends) and merge into one\n"
            << "                    per-node table (or a JSON document)\n"
            << "  --events          drain the control-plane journal (EVENTS)\n"
            << "                    from the target -- or every --cluster\n"
            << "                    endpoint -- into one clock-aligned merged\n"
            << "                    timeline (--json for machine output)\n"
            << "  --follow          with --events: keep tailing new events\n"
            << "                    every --watch interval (default 1s)\n";
}

/// Per-interval deltas between two consecutive --watch scrapes.
struct WatchDelta {
  double seconds = 0.0;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
};

void print_pretty(const rlb::net::StatsSnapshot& snapshot,
                  const WatchDelta* delta = nullptr) {
  using rlb::report::Table;
  const rlb::net::ShardStats totals = snapshot.totals();

  std::cout << rlb::net::to_string(snapshot.role) << " " << snapshot.policy
            << " id=" << snapshot.backend_id << " m=" << snapshot.servers
            << " d=" << snapshot.replication << " g="
            << snapshot.processing_rate << " q=" << snapshot.queue_capacity
            << " shards=" << snapshot.shard_count << " uptime="
            << snapshot.uptime_ms / 1000 << "s\n";

  Table shards({"shard", "submitted", "completed", "rej_q", "rej_down",
                "rej_adm", "rej_drop", "inbound", "waiting", "inflight",
                "backlog", "down", "ticks"});
  for (const rlb::net::ShardStats& s : snapshot.shards) {
    shards.row()
        .cell(static_cast<std::uint64_t>(s.shard))
        .cell(s.submitted)
        .cell(s.completed)
        .cell(s.rejected_queue_full)
        .cell(s.rejected_all_down)
        .cell(s.rejected_admission)
        .cell(s.rejected_drop)
        .cell(s.inbound_depth)
        .cell(s.waiting_depth)
        .cell(s.inflight)
        .cell(s.backlog)
        .cell(s.servers_down)
        .cell(s.ticks);
  }
  shards.row()
      .cell("total")
      .cell(totals.submitted)
      .cell(totals.completed)
      .cell(totals.rejected_queue_full)
      .cell(totals.rejected_all_down)
      .cell(totals.rejected_admission)
      .cell(totals.rejected_drop)
      .cell(totals.inbound_depth)
      .cell(totals.waiting_depth)
      .cell(totals.inflight)
      .cell(totals.backlog)
      .cell(totals.servers_down)
      .cell(totals.ticks);
  shards.print(std::cout);

  std::cout << "latency_us: count=" << snapshot.latency.count
            << " p50=" << snapshot.latency.quantile_us(0.5)
            << " p95=" << snapshot.latency.quantile_us(0.95)
            << " p99=" << snapshot.latency.quantile_us(0.99)
            << " max=" << snapshot.latency.max_us << "\n";

  // Health plane (v5): the trailing-window view.  Windowed quantiles sit
  // next to their lifetime counterparts so an incident's p99 spike is
  // visible even after hours of uptime have diluted the lifetime
  // histogram.
  if (snapshot.window_span_ms > 0) {
    const double span_s =
        static_cast<double>(snapshot.window_span_ms) / 1000.0;
    std::cout << "window (" << span_s << "s): submitted="
              << snapshot.win_submitted << " completed="
              << snapshot.win_completed << " rejected="
              << snapshot.win_rejected << " rps="
              << static_cast<std::uint64_t>(
                     static_cast<double>(snapshot.win_completed) / span_s)
              << "\n";
    if (snapshot.win_latency.count > 0) {
      std::cout << "  win_latency_us: p50="
                << snapshot.win_latency.quantile_us(0.5)
                << " p99=" << snapshot.win_latency.quantile_us(0.99)
                << " (lifetime p50=" << snapshot.latency.quantile_us(0.5)
                << " p99=" << snapshot.latency.quantile_us(0.99) << ")\n";
    }
    if (snapshot.win_hop_rtt.count > 0) {
      std::cout << "  win_hop_rtt_us: p50="
                << snapshot.win_hop_rtt.quantile_us(0.5)
                << " p99=" << snapshot.win_hop_rtt.quantile_us(0.99)
                << " (lifetime p50=" << snapshot.hop_rtt.quantile_us(0.5)
                << " p99=" << snapshot.hop_rtt.quantile_us(0.99) << ")\n";
    }
    if (snapshot.win_queue_wait.count > 0) {
      std::cout << "  win_queue_wait_us: p50="
                << snapshot.win_queue_wait.quantile_us(0.5)
                << " p99=" << snapshot.win_queue_wait.quantile_us(0.99)
                << " (lifetime p50=" << snapshot.queue_wait.quantile_us(0.5)
                << " p99=" << snapshot.queue_wait.quantile_us(0.99) << ")\n";
    }
  }

  // --watch: deltas between this scrape and the previous one.
  if (delta != nullptr && delta->seconds > 0.0) {
    const double rps = static_cast<double>(delta->completed) / delta->seconds;
    const std::uint64_t offered = delta->submitted + delta->rejected;
    const double reject_pct =
        offered > 0 ? 100.0 * static_cast<double>(delta->rejected) /
                          static_cast<double>(offered)
                    : 0.0;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "interval (%.1fs): rps=%.0f submitted=%llu rejected=%llu "
                  "(%.2f%%)",
                  delta->seconds, rps,
                  static_cast<unsigned long long>(delta->submitted),
                  static_cast<unsigned long long>(delta->rejected),
                  reject_pct);
    std::cout << line << "\n";
  }

  if (!snapshot.active_alerts.empty()) {
    std::cout << "ALERTS:";
    for (const std::string& rule : snapshot.active_alerts) {
      std::cout << " " << rule;
    }
    std::cout << "\n";
  }

  // Per-hop decomposition (v3): a router reports upstream RTTs, a backend
  // reports submit->drain-tick queue wait.  The counterpart stays empty.
  if (snapshot.hop_rtt.count > 0) {
    std::cout << "hop_rtt_us: count=" << snapshot.hop_rtt.count
              << " p50=" << snapshot.hop_rtt.quantile_us(0.5)
              << " p95=" << snapshot.hop_rtt.quantile_us(0.95)
              << " p99=" << snapshot.hop_rtt.quantile_us(0.99)
              << " max=" << snapshot.hop_rtt.max_us << "\n";
  }
  if (snapshot.queue_wait.count > 0) {
    std::cout << "queue_wait_us: count=" << snapshot.queue_wait.count
              << " p50=" << snapshot.queue_wait.quantile_us(0.5)
              << " p95=" << snapshot.queue_wait.quantile_us(0.95)
              << " p99=" << snapshot.queue_wait.quantile_us(0.99)
              << " max=" << snapshot.queue_wait.max_us << "\n";
  }

  // Repair plane (v4): epoch + migration counters, shown only once the
  // cluster has actually repaired (or is repairing) something.
  const rlb::net::RepairStats& r = snapshot.repair;
  if (snapshot.placement_epoch != 0 || r.migrations_done != 0 ||
      r.migrations_inflight != 0 || r.chunks_pending != 0 ||
      r.migrations_in != 0 || r.migrations_out != 0) {
    std::cout << "repair: epoch=" << snapshot.placement_epoch;
    if (snapshot.role == rlb::net::NodeRole::kRouter) {
      std::cout << " migrated=" << r.migrations_done
                << " failed=" << r.migrations_failed
                << " inflight=" << r.migrations_inflight
                << " pending=" << r.chunks_pending
                << " bytes_sent=" << r.bytes_sent;
    } else {
      std::cout << " migrations_in=" << r.migrations_in
                << " migrations_out=" << r.migrations_out
                << " bytes_in=" << r.migration_bytes_in
                << " bytes_out=" << r.migration_bytes_out;
    }
    std::cout << "\n";
  }

  std::cout << "safe-set (Def 3.2): worst_ratio=" << snapshot.safe_worst_ratio
            << (snapshot.safe_violated_level
                    ? " VIOLATED at level " +
                          std::to_string(snapshot.safe_violated_level)
                    : " (safe)")
            << "\n";
  if (!snapshot.safe_set.empty()) {
    Table levels({"level_j", "backlog_gt_j", "bound_m_2j", "ratio"});
    for (const rlb::net::SafeSetLevelStats& level : snapshot.safe_set) {
      levels.row()
          .cell(static_cast<std::uint64_t>(level.level))
          .cell(level.observed)
          .cell(level.bound, 2)
          .cell(level.ratio, 3);
    }
    levels.print(std::cout);
  }
}

/// One endpoint's contribution to the --cluster fan-out.
struct ClusterRow {
  rlb::cluster::BackendEndpoint endpoint;
  bool reachable = false;
  /// The node answered with a well-formed snapshot of a different STATS
  /// version (a mid-upgrade daemon): reported as its own row state, not
  /// folded into "unreachable", so a rolling upgrade stays diagnosable.
  bool version_mismatch = false;
  std::uint32_t peer_version = 0;
  rlb::net::StatsSnapshot snapshot;
};

/// Scrape every endpoint once (one dedicated admin connection each).
std::vector<ClusterRow> scrape_cluster(
    const std::vector<rlb::cluster::BackendEndpoint>& endpoints) {
  std::vector<ClusterRow> rows;
  for (const rlb::cluster::BackendEndpoint& endpoint : endpoints) {
    ClusterRow row;
    row.endpoint = endpoint;
    try {
      rlb::net::Client client;
      client.connect(endpoint.host, endpoint.port);
      client.set_recv_timeout_ms(2000);
      client.send_stats_request();
      client.flush();
      row.reachable = client.read_stats_response(row.snapshot);
    } catch (const rlb::net::StatsVersionMismatch& e) {
      row.reachable = true;
      row.version_mismatch = true;
      row.peer_version = e.peer_version();
    } catch (const std::exception&) {
      row.reachable = false;
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

void print_cluster_pretty(const std::vector<ClusterRow>& rows) {
  using rlb::report::Table;
  Table table({"endpoint", "role", "id", "policy", "m", "submitted",
               "completed", "rejected", "errors", "backlog", "down", "epoch",
               "p99_us", "uptime_s"});
  rlb::net::ShardStats backend_totals;
  std::uint64_t backends_seen = 0;
  for (const ClusterRow& row : rows) {
    const std::string where =
        row.endpoint.host + ":" + std::to_string(row.endpoint.port);
    if (!row.reachable) {
      table.row().cell(where).cell("unreachable");
      continue;
    }
    if (row.version_mismatch) {
      table.row().cell(where).cell("version mismatch (v" +
                                   std::to_string(row.peer_version) + ")");
      continue;
    }
    const rlb::net::ShardStats t = row.snapshot.totals();
    table.row()
        .cell(where)
        .cell(rlb::net::to_string(row.snapshot.role))
        .cell(static_cast<std::uint64_t>(row.snapshot.backend_id))
        .cell(row.snapshot.policy)
        .cell(static_cast<std::uint64_t>(row.snapshot.servers))
        .cell(t.submitted)
        .cell(t.completed)
        .cell(t.rejected_total())
        .cell(t.errors)
        .cell(t.backlog)
        .cell(t.servers_down)
        .cell(row.snapshot.placement_epoch)
        .cell(row.snapshot.latency.quantile_us(0.99), 0)
        .cell(row.snapshot.uptime_ms / 1000);
    if (row.snapshot.role == rlb::net::NodeRole::kBackend) {
      ++backends_seen;
      backend_totals.submitted += t.submitted;
      backend_totals.completed += t.completed;
      backend_totals.rejected_queue_full += t.rejected_total();
      backend_totals.errors += t.errors;
      backend_totals.backlog += t.backlog;
      backend_totals.servers_down += t.servers_down;
    }
  }
  if (backends_seen > 0) {
    // Backends only: a router relays what backends serve, so summing the
    // two tiers would double-count completions.
    table.row()
        .cell("backends")
        .cell("total")
        .cell("")
        .cell("")
        .cell("")
        .cell(backend_totals.submitted)
        .cell(backend_totals.completed)
        .cell(backend_totals.rejected_queue_full)
        .cell(backend_totals.errors)
        .cell(backend_totals.backlog)
        .cell(backend_totals.servers_down)
        .cell("")
        .cell("")
        .cell("");
  }
  table.print(std::cout);
}

void print_cluster_json(const std::vector<ClusterRow>& rows) {
  std::cout << "{\"endpoints\":[";
  std::uint64_t backend_completed = 0;
  std::uint64_t backend_rejected = 0;
  std::uint64_t backend_errors = 0;
  bool first = true;
  for (const ClusterRow& row : rows) {
    if (!first) std::cout << ",";
    first = false;
    std::cout << "{\"endpoint\":\"" << row.endpoint.host << ":"
              << row.endpoint.port << "\",\"reachable\":"
              << (row.reachable ? "true" : "false");
    if (row.version_mismatch) {
      std::cout << ",\"version_mismatch\":true,\"peer_version\":"
                << row.peer_version << "}";
      continue;
    }
    if (row.reachable) {
      std::cout << ",\"snapshot\":" << rlb::net::render_json(row.snapshot);
      if (row.snapshot.role == rlb::net::NodeRole::kBackend) {
        const rlb::net::ShardStats t = row.snapshot.totals();
        backend_completed += t.completed;
        backend_rejected += t.rejected_total();
        backend_errors += t.errors;
      }
    }
    std::cout << "}";
  }
  std::cout << "],\"backend_totals\":{\"completed\":" << backend_completed
            << ",\"rejected\":" << backend_rejected
            << ",\"errors\":" << backend_errors << "}}\n";
}

// ---------------------------------------------------------------------------
// --events: merged control-plane timeline.

/// One journal event mapped onto the scraper's wall clock.
struct AlignedEvent {
  std::string source;  ///< "router" / "backend-<id>" / "host:port"
  std::uint64_t wall_ns = 0;
  rlb::net::EventRecord record;
};

/// Per-endpoint drain state for --events [--follow].
struct EventsSource {
  rlb::cluster::BackendEndpoint endpoint;
  std::string label;
  std::uint64_t cursor = 0;
  std::uint64_t dropped = 0;  ///< cumulative ring overflow at this source
  bool reachable = false;
};

/// Drain everything past `src.cursor` from one endpoint, with each event
/// placed on this process's wall clock (net/admin_drain.hpp).
void poll_events(EventsSource& src, std::vector<AlignedEvent>& out) {
  try {
    rlb::net::drain_events(
        src.endpoint.host, src.endpoint.port, src.cursor,
        [&src, &out](rlb::net::EventsSnapshot& chunk,
                     std::int64_t wall_offset_ns) {
          src.label = chunk.label();
          src.reachable = true;
          src.dropped += chunk.dropped;
          src.cursor = chunk.next_cursor;
          for (rlb::net::EventRecord& rec : chunk.events) {
            AlignedEvent ev;
            ev.source = src.label;
            ev.wall_ns = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(rec.steady_ns) + wall_offset_ns);
            ev.record = std::move(rec);
            out.push_back(std::move(ev));
          }
        });
  } catch (const std::exception&) {
    src.reachable = false;
  }
}

/// Oldest-first by aligned wall time; per-source seq breaks ties.
void sort_events(std::vector<AlignedEvent>& events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const AlignedEvent& a, const AlignedEvent& b) {
                     if (a.wall_ns != b.wall_ns) return a.wall_ns < b.wall_ns;
                     return a.record.seq < b.record.seq;
                   });
}

std::string format_wall(std::uint64_t wall_ns) {
  const std::time_t secs = static_cast<std::time_t>(wall_ns / 1000000000ULL);
  const unsigned ms = static_cast<unsigned>((wall_ns / 1000000ULL) % 1000);
  std::tm tm_buf{};
  localtime_r(&secs, &tm_buf);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%02d:%02d:%02d.%03u", tm_buf.tm_hour,
                tm_buf.tm_min, tm_buf.tm_sec, ms);
  return buf;
}

void print_events_pretty(const std::vector<AlignedEvent>& events) {
  for (const AlignedEvent& ev : events) {
    const rlb::net::EventRecord& r = ev.record;
    std::cout << format_wall(ev.wall_ns) << "  ";
    char src[32];
    std::snprintf(src, sizeof(src), "%-11s", ev.source.c_str());
    std::cout << src << " #" << r.seq << " "
              << rlb::obs::to_string(
                     static_cast<rlb::obs::JournalType>(r.type))
              << " a0=" << r.a0 << " a1=" << r.a1;
    if (!r.detail.empty()) std::cout << " " << r.detail;
    std::cout << "\n";
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out.push_back(c);
    }
  }
  return out;
}

void print_event_json(const AlignedEvent& ev) {
  const rlb::net::EventRecord& r = ev.record;
  std::cout << "{\"source\":\"" << json_escape(ev.source) << "\",\"seq\":"
            << r.seq << ",\"wall_ns\":" << ev.wall_ns << ",\"steady_ns\":"
            << r.steady_ns << ",\"type\":\""
            << rlb::obs::to_string(static_cast<rlb::obs::JournalType>(r.type))
            << "\",\"a0\":" << r.a0 << ",\"a1\":" << r.a1 << ",\"detail\":\""
            << json_escape(r.detail) << "\"}";
}

void print_events_json(const std::vector<EventsSource>& sources,
                       const std::vector<AlignedEvent>& events) {
  std::cout << "{\"sources\":[";
  bool first = true;
  for (const EventsSource& src : sources) {
    if (!first) std::cout << ",";
    first = false;
    std::cout << "{\"endpoint\":\"" << src.endpoint.host << ":"
              << src.endpoint.port << "\",\"source\":\""
              << json_escape(src.label) << "\",\"reachable\":"
              << (src.reachable ? "true" : "false")
              << ",\"dropped\":" << src.dropped
              << ",\"next_cursor\":" << src.cursor << "}";
  }
  std::cout << "],\"events\":[";
  first = true;
  for (const AlignedEvent& ev : events) {
    if (!first) std::cout << ",";
    first = false;
    print_event_json(ev);
  }
  std::cout << "]}\n";
}

/// The --events entry point: one merged drain, or a --follow tail loop.
int run_events(const std::vector<rlb::cluster::BackendEndpoint>& endpoints,
               bool json, bool follow, std::uint64_t interval_s) {
  std::vector<EventsSource> sources;
  for (const rlb::cluster::BackendEndpoint& endpoint : endpoints) {
    EventsSource src;
    src.endpoint = endpoint;
    src.label = endpoint.host + ":" + std::to_string(endpoint.port);
    sources.push_back(std::move(src));
  }

  bool any_reachable = false;
  do {
    std::vector<AlignedEvent> events;
    for (EventsSource& src : sources) poll_events(src, events);
    sort_events(events);
    for (const EventsSource& src : sources) {
      any_reachable = any_reachable || src.reachable;
      if (!src.reachable && !json && !follow) {
        std::cerr << "rlb_stat: " << src.endpoint.host << ":"
                  << src.endpoint.port << " unreachable\n";
      }
      if (src.dropped > 0 && !json) {
        std::cerr << "rlb_stat: " << src.label << " dropped " << src.dropped
                  << " events (ring wrapped past the cursor)\n";
      }
    }
    if (json) {
      if (follow) {
        // JSONL in follow mode: one self-contained line per event.
        for (const AlignedEvent& ev : events) {
          print_event_json(ev);
          std::cout << "\n";
        }
      } else {
        print_events_json(sources, events);
      }
    } else {
      print_events_pretty(events);
    }
    std::cout.flush();
    if (follow) {
      for (std::uint64_t s = 0; s < interval_s * 10 && !g_stop_requested;
           ++s) {
        ::usleep(100 * 1000);
      }
    }
  } while (follow && !g_stop_requested);
  return any_reachable ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rlb;

  std::string host = "127.0.0.1";
  std::uint16_t port = 4117;
  bool watch = false;
  bool prom = false;
  bool json = false;
  bool events = false;
  bool follow = false;
  std::uint64_t interval_s = 1;
  std::vector<cluster::BackendEndpoint> cluster_endpoints;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      usage(argv[0]);
      return 0;
    } else if (flag == "--host" && i + 1 < argc) {
      host = argv[++i];
    } else if (flag == "--port" && i + 1 < argc) {
      port = static_cast<std::uint16_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (flag == "--watch") {
      watch = true;
      // Optional numeric operand.
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        interval_s = std::strtoull(argv[++i], nullptr, 10);
        if (interval_s == 0) interval_s = 1;
      }
    } else if (flag == "--prom") {
      prom = true;
    } else if (flag == "--json") {
      json = true;
    } else if (flag == "--events") {
      events = true;
    } else if (flag == "--follow") {
      follow = true;
    } else if (flag == "--cluster" && i + 1 < argc) {
      try {
        cluster_endpoints = cluster::parse_backend_list(argv[++i]);
      } catch (const std::exception& e) {
        std::cerr << "rlb_stat: " << e.what() << "\n";
        return 2;
      }
    } else {
      std::cerr << "rlb_stat: unknown flag '" << flag << "'\n";
      usage(argv[0]);
      return 2;
    }
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  if (events) {
    std::vector<cluster::BackendEndpoint> endpoints = cluster_endpoints;
    if (endpoints.empty()) {
      cluster::BackendEndpoint endpoint;
      endpoint.host = host;
      endpoint.port = port;
      endpoints.push_back(std::move(endpoint));
    }
    return run_events(endpoints, json, follow, interval_s);
  }
  if (follow) {
    std::cerr << "rlb_stat: --follow requires --events\n";
    return 2;
  }

  if (!cluster_endpoints.empty()) {
    if (prom) {
      std::cerr << "rlb_stat: --cluster does not support --prom (scrape each "
                   "endpoint directly)\n";
      return 2;
    }
    do {
      const std::vector<ClusterRow> rows = scrape_cluster(cluster_endpoints);
      if (json) {
        print_cluster_json(rows);
      } else {
        if (watch) std::cout << "\033[H\033[2J";
        print_cluster_pretty(rows);
      }
      std::cout.flush();
      if (watch) {
        for (std::uint64_t s = 0; s < interval_s * 10 && !g_stop_requested;
             ++s) {
          ::usleep(100 * 1000);
        }
      }
    } while (watch && !g_stop_requested);
    return 0;
  }

  net::Client client;
  try {
    client.connect(host, port);
  } catch (const std::exception& e) {
    std::cerr << "rlb_stat: " << e.what() << "\n";
    return 1;
  }

  // --watch keeps the previous scrape's totals so each refresh can show
  // per-interval deltas (rps / reject rate) next to the lifetime counters.
  bool have_prev = false;
  net::ShardStats prev_totals;
  std::uint64_t prev_wall_ns = 0;
  do {
    net::StatsSnapshot snapshot;
    try {
      client.send_stats_request();
      client.flush();
      if (!client.read_stats_response(snapshot)) {
        std::cerr << "rlb_stat: daemon closed the connection\n";
        return 1;
      }
    } catch (const std::exception& e) {
      std::cerr << "rlb_stat: " << e.what() << "\n";
      return 1;
    }
    if (prom) {
      std::cout << net::render_prometheus(snapshot);
    } else if (json) {
      std::cout << net::render_json(snapshot) << "\n";
    } else {
      if (watch) std::cout << "\033[H\033[2J";  // clear screen per refresh
      const net::ShardStats totals = snapshot.totals();
      const std::uint64_t now_wall = obs::wall_now_ns();
      WatchDelta delta;
      bool have_delta = false;
      if (watch && have_prev && now_wall > prev_wall_ns) {
        delta.seconds =
            static_cast<double>(now_wall - prev_wall_ns) / 1e9;
        delta.submitted = totals.submitted - prev_totals.submitted;
        delta.completed = totals.completed - prev_totals.completed;
        delta.rejected =
            totals.rejected_total() - prev_totals.rejected_total();
        have_delta = true;
      }
      prev_totals = totals;
      prev_wall_ns = now_wall;
      have_prev = true;
      print_pretty(snapshot, have_delta ? &delta : nullptr);
    }
    std::cout.flush();
    if (watch) {
      for (std::uint64_t s = 0; s < interval_s * 10 && !g_stop_requested;
           ++s) {
        ::usleep(100 * 1000);
      }
    }
  } while (watch && !g_stop_requested);

  return 0;
}
