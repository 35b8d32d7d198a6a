// rlb_trace — scrape span flight recorders across a cluster and merge them
// into one causal timeline.
//
// Each process in the data path (rlb_loadgen -> rlb_router -> rlbd) records
// spans into its own in-memory flight recorder with timestamps on its own
// steady clock.  This tool makes them one trace:
//
//   1. scrape: poll the TRACE admin opcode on every --endpoints entry
//      (router and backends), looping until each recorder drains
//      (`remaining == 0`); read loadgen root spans from --span-file JSONL.
//   2. align: every TRACE_RESP carries a (steady_ns, wall_ns) clock anchor
//      sampled at encode time; the anchor instant is taken to be our scrape
//      RTT's midpoint, which maps span time onto our wall clock
//      (net/admin_drain.hpp).  Span files carry an anchor line instead and
//      are trusted as-is (no RTT to measure).
//   3. merge: group spans by trace id, reconstruct parent/child trees
//      (client.request -> router.request -> router.hop per attempt ->
//      engine.request), and emit JSONL (--out), a Chrome trace file
//      (--chrome, load in chrome://tracing or Perfetto), and a span-tree
//      summary on stdout.
//
// The final summary line is machine-parseable (cluster_smoke.sh asserts on
// it): traces with >= 2 router.hop spans count as `retried`, traces with
// spans from >= 2 processes count as `cross_process`.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/router.hpp"
#include "net/admin_drain.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace {

using namespace rlb;

void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [flags]\n"
      << "  --endpoints <host:port,...>\n"
      << "                    TRACE-scrape these daemons (router + backends)\n"
      << "  --span-file <path>\n"
      << "                    merge a span JSONL file too (rlb_loadgen\n"
      << "                    --span-file output); repeatable\n"
      << "  --out <path>      write merged spans as JSONL (wall-clock ns)\n"
      << "  --chrome <path>   write a Chrome trace (chrome://tracing,\n"
      << "                    Perfetto)\n"
      << "  --print <n>       print n span trees, retried traces first\n"
      << "                    (default 3; 0 = summary only)\n";
}

/// One process's contribution: spans plus the offset that maps their
/// steady-clock timestamps onto this tool's wall clock.
struct Source {
  std::string label;  // "router", "backend-<id>", "file:<path>"
  std::vector<obs::Span> spans;
  std::int64_t wall_offset_ns = 0;
  std::uint64_t dropped = 0;
  bool anchored = true;
};

/// Drain one daemon's recorder.  Every chunk gets its own anchor/skew
/// estimate (its own Source entry).
bool scrape_endpoint(const cluster::BackendEndpoint& endpoint,
                     std::vector<Source>& out, std::string& error) {
  try {
    net::drain_trace(
        endpoint.host, endpoint.port,
        [&out](net::TraceSnapshot& chunk, std::int64_t wall_offset_ns) {
          if (chunk.spans.empty()) return;
          Source source;
          source.label = chunk.label();
          source.wall_offset_ns = wall_offset_ns;
          source.dropped = chunk.dropped;
          source.spans = std::move(chunk.spans);
          out.push_back(std::move(source));
        });
    return true;
  } catch (const std::exception& e) {
    error = e.what();
    return false;
  }
}

bool load_span_file(const std::string& path, std::vector<Source>& out,
                    std::string& error) {
  std::ifstream is(path);
  if (!is) {
    error = "cannot open";
    return false;
  }
  std::uint64_t anchor_steady = 0;
  std::uint64_t anchor_wall = 0;
  Source source;
  source.spans = obs::parse_spans_jsonl(is, anchor_steady, anchor_wall);
  source.label = "client";
  if (anchor_wall != 0) {
    source.wall_offset_ns = static_cast<std::int64_t>(anchor_wall) -
                            static_cast<std::int64_t>(anchor_steady);
  } else {
    source.anchored = false;  // timestamps stay process-relative
  }
  if (!source.spans.empty()) out.push_back(std::move(source));
  return true;
}

/// A span placed on the shared wall-clock axis.
struct Placed {
  obs::Span span;
  std::int64_t wall_start_ns = 0;
  std::int64_t wall_end_ns = 0;
  std::uint32_t source = 0;  // index into source labels
};

std::string json_escape(const char* s) {
  std::string out;
  for (; *s; ++s) {
    if (*s == '"' || *s == '\\') out.push_back('\\');
    out.push_back(*s);
  }
  return out;
}

void write_jsonl(const std::vector<Placed>& placed,
                 const std::vector<std::string>& labels, std::ostream& os) {
  for (const Placed& p : placed) {
    os << "{\"trace_id\":" << p.span.trace_id
       << ",\"span_id\":" << p.span.span_id
       << ",\"parent_span_id\":" << p.span.parent_span_id << ",\"name\":\""
       << json_escape(p.span.name) << "\",\"proc\":\"" << labels[p.source]
       << "\",\"wall_start_ns\":" << p.wall_start_ns
       << ",\"wall_end_ns\":" << p.wall_end_ns
       << ",\"shard\":" << p.span.shard << ",\"tid\":" << p.span.tid
       << ",\"queue_depth\":" << p.span.queue_depth
       << ",\"flags\":" << static_cast<unsigned>(p.span.flags)
       << ",\"cause\":" << static_cast<unsigned>(p.span.cause) << "}\n";
  }
}

void write_chrome(const std::vector<Placed>& placed,
                  const std::vector<std::string>& labels, std::ostream& os) {
  std::int64_t base = 0;
  for (const Placed& p : placed) {
    if (base == 0 || p.wall_start_ns < base) base = p.wall_start_ns;
  }
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << i + 1
       << ",\"tid\":0,\"args\":{\"name\":\"" << json_escape(labels[i].c_str())
       << "\"}}";
  }
  for (const Placed& p : placed) {
    const double ts =
        static_cast<double>(p.wall_start_ns - base) / 1000.0;  // us
    const double dur =
        static_cast<double>(p.wall_end_ns - p.wall_start_ns) / 1000.0;
    os << ",{\"name\":\"" << json_escape(p.span.name)
       << "\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":" << ts
       << ",\"dur\":" << dur << ",\"pid\":" << p.source + 1
       << ",\"tid\":" << p.span.tid << ",\"args\":{\"trace_id\":\""
       << p.span.trace_id << "\",\"span_id\":\"" << p.span.span_id
       << "\",\"parent\":\"" << p.span.parent_span_id
       << "\",\"shard\":" << p.span.shard
       << ",\"queue_depth\":" << p.span.queue_depth
       << ",\"cause\":" << static_cast<unsigned>(p.span.cause) << "}}";
  }
  os << "]}\n";
}

/// Per-trace rollup used by the summary and tree printer.
struct Trace {
  std::vector<std::size_t> spans;  // indices into placed, start-time order
  std::set<std::uint32_t> sources;
  std::size_t hops = 0;
  bool sampled = false;
  bool failed = false;
};

void print_tree(const std::vector<Placed>& placed,
                const std::vector<std::string>& labels, const Trace& trace,
                std::uint64_t trace_id) {
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  std::unordered_map<std::uint64_t, bool> present;
  for (const std::size_t i : trace.spans) present[placed[i].span.span_id] = 1;
  std::vector<std::size_t> roots;
  for (const std::size_t i : trace.spans) {
    const obs::Span& s = placed[i].span;
    if (s.parent_span_id != 0 && present.count(s.parent_span_id)) {
      children[s.parent_span_id].push_back(i);
    } else {
      roots.push_back(i);  // true root, or parent lost to sampling/drop
    }
  }
  std::cout << "trace " << std::hex << trace_id << std::dec << " ("
            << trace.spans.size() << " spans, " << trace.hops << " hops"
            << (trace.sampled ? ", sampled" : "")
            << (trace.failed ? ", failed" : "") << ")\n";
  struct Frame {
    std::size_t index;
    unsigned depth;
  };
  std::vector<Frame> stack;
  for (auto it = roots.rbegin(); it != roots.rend(); ++it) {
    stack.push_back({*it, 1});
  }
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    const Placed& p = placed[frame.index];
    std::cout << std::string(frame.depth * 2, ' ') << p.span.name << " "
              << (p.wall_end_ns - p.wall_start_ns) / 1000 << "us ["
              << labels[p.source];
    if (p.span.shard != 0 || std::string(p.span.name) == "engine.request") {
      std::cout << " shard=" << p.span.shard;
    }
    std::cout << "]";
    if (p.span.queue_depth != 0) std::cout << " depth=" << p.span.queue_depth;
    if (p.span.cause != 0) {
      std::cout << " cause="
                << net::to_string(static_cast<net::Status>(p.span.cause));
    }
    std::cout << "\n";
    const auto kids = children.find(p.span.span_id);
    if (kids != children.end()) {
      for (auto it = kids->second.rbegin(); it != kids->second.rend(); ++it) {
        stack.push_back({*it, frame.depth + 1});
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<cluster::BackendEndpoint> endpoints;
  std::vector<std::string> span_files;
  std::string out_path;
  std::string chrome_path;
  std::uint64_t print_trees = 3;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--help" || flag == "-h") {
      usage(argv[0]);
      return 0;
    } else if (flag == "--endpoints" && has_value) {
      try {
        endpoints = cluster::parse_backend_list(argv[++i]);
      } catch (const std::exception& e) {
        std::cerr << "rlb_trace: " << e.what() << "\n";
        return 2;
      }
    } else if (flag == "--span-file" && has_value) {
      span_files.emplace_back(argv[++i]);
    } else if (flag == "--out" && has_value) {
      out_path = argv[++i];
    } else if (flag == "--chrome" && has_value) {
      chrome_path = argv[++i];
    } else if (flag == "--print" && has_value) {
      print_trees = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::cerr << "rlb_trace: unknown flag '" << flag << "'\n";
      usage(argv[0]);
      return 2;
    }
  }
  if (endpoints.empty() && span_files.empty()) {
    std::cerr << "rlb_trace: nothing to merge (need --endpoints and/or "
                 "--span-file)\n";
    usage(argv[0]);
    return 2;
  }

  // -- scrape --------------------------------------------------------------
  std::vector<Source> sources;
  std::size_t scraped_ok = 0;
  for (const cluster::BackendEndpoint& endpoint : endpoints) {
    std::string error;
    const std::size_t before = sources.size();
    if (!scrape_endpoint(endpoint, sources, error)) {
      std::cerr << "rlb_trace: " << endpoint.host << ":" << endpoint.port
                << ": " << error << "\n";
      continue;
    }
    ++scraped_ok;
    std::size_t spans = 0;
    std::uint64_t dropped = 0;
    for (std::size_t i = before; i < sources.size(); ++i) {
      spans += sources[i].spans.size();
      dropped = std::max(dropped, sources[i].dropped);
    }
    std::cout << "rlb_trace: " << endpoint.host << ":" << endpoint.port
              << " -> "
              << (sources.size() > before ? sources[before].label
                                          : std::string("(no spans)"))
              << " spans=" << spans << " dropped=" << dropped << "\n";
  }
  for (const std::string& path : span_files) {
    std::string error;
    const std::size_t before = sources.size();
    if (!load_span_file(path, sources, error)) {
      std::cerr << "rlb_trace: " << path << ": " << error << "\n";
      continue;
    }
    ++scraped_ok;
    const std::size_t spans =
        sources.size() > before ? sources[before].spans.size() : 0;
    std::cout << "rlb_trace: " << path << " -> client spans=" << spans;
    if (sources.size() > before && !sources[before].anchored) {
      std::cout << " (no clock anchor: timestamps stay process-relative)";
    }
    std::cout << "\n";
  }
  if (scraped_ok == 0) {
    std::cerr << "rlb_trace: every source failed\n";
    return 1;
  }

  // -- align ---------------------------------------------------------------
  // Collapse chunk sources into one label list; place every span on the
  // shared wall clock via its chunk's anchor offset.
  std::vector<std::string> labels;
  std::unordered_map<std::string, std::uint32_t> label_index;
  std::vector<Placed> placed;
  for (const Source& source : sources) {
    auto it = label_index.find(source.label);
    if (it == label_index.end()) {
      it = label_index.emplace(source.label,
                               static_cast<std::uint32_t>(labels.size()))
               .first;
      labels.push_back(source.label);
    }
    for (const obs::Span& span : source.spans) {
      Placed p;
      p.span = span;
      p.wall_start_ns =
          static_cast<std::int64_t>(span.start_ns) + source.wall_offset_ns;
      p.wall_end_ns =
          static_cast<std::int64_t>(span.end_ns) + source.wall_offset_ns;
      p.source = it->second;
      placed.push_back(p);
    }
  }
  std::sort(placed.begin(), placed.end(), [](const Placed& a, const Placed& b) {
    return a.wall_start_ns < b.wall_start_ns;
  });

  // -- merge ---------------------------------------------------------------
  std::map<std::uint64_t, Trace> traces;
  for (std::size_t i = 0; i < placed.size(); ++i) {
    const obs::Span& span = placed[i].span;
    Trace& trace = traces[span.trace_id];
    trace.spans.push_back(i);
    trace.sources.insert(placed[i].source);
    if (std::string(span.name) == "router.hop") ++trace.hops;
    if (span.flags & obs::kSpanSampled) trace.sampled = true;
    if (span.cause != 0) trace.failed = true;
  }
  std::size_t cross_process = 0;
  std::size_t retried = 0;
  std::size_t failed = 0;
  for (const auto& [id, trace] : traces) {
    if (trace.sources.size() >= 2) ++cross_process;
    if (trace.hops >= 2) ++retried;
    if (trace.failed) ++failed;
  }

  if (!out_path.empty()) {
    std::ofstream os(out_path);
    if (!os) {
      std::cerr << "rlb_trace: cannot write " << out_path << "\n";
      return 1;
    }
    write_jsonl(placed, labels, os);
  }
  if (!chrome_path.empty()) {
    std::ofstream os(chrome_path);
    if (!os) {
      std::cerr << "rlb_trace: cannot write " << chrome_path << "\n";
      return 1;
    }
    write_chrome(placed, labels, os);
  }

  // Retried traces make the most interesting trees; show them first.
  if (print_trees > 0) {
    std::vector<std::pair<std::uint64_t, const Trace*>> order;
    order.reserve(traces.size());
    for (const auto& [id, trace] : traces) order.emplace_back(id, &trace);
    std::stable_sort(order.begin(), order.end(),
                     [](const auto& a, const auto& b) {
                       if (a.second->hops != b.second->hops) {
                         return a.second->hops > b.second->hops;
                       }
                       return a.second->spans.size() > b.second->spans.size();
                     });
    for (std::size_t i = 0; i < order.size() && i < print_trees; ++i) {
      print_tree(placed, labels, *order[i].second, order[i].first);
    }
  }

  std::cout << "rlb_trace: merged traces=" << traces.size()
            << " spans=" << placed.size() << " processes=" << labels.size()
            << " cross_process=" << cross_process << " retried=" << retried
            << " failed=" << failed << std::endl;
  return 0;
}
