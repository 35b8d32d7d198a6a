#include "net/trace_wire.hpp"

#include <algorithm>
#include <mutex>
#include <set>
#include <string>

#include "net/wire.hpp"
#include "obs/trace.hpp"

namespace rlb::net {

namespace {

/// Decoded span names must outlive the returned spans; intern them.
const char* intern_name(const std::string& name) {
  static std::mutex mutex;
  static std::set<std::string> pool;
  std::lock_guard lock(mutex);
  return pool.insert(name).first->c_str();
}

}  // namespace

void encode_trace_payload(const TraceSnapshot& snapshot,
                          std::vector<std::uint8_t>& out) {
  codec::Writer w(out);
  encode_envelope(w, MsgType::kTraceResponse, snapshot);
  w.u64(snapshot.remaining);
  const std::size_t count =
      std::min(snapshot.spans.size(), kMaxSpansPerTraceResponse);
  w.u32(static_cast<std::uint32_t>(count));
  for (std::size_t i = 0; i < count; ++i) {
    const obs::Span& s = snapshot.spans[i];
    w.u64(s.trace_id);
    w.u64(s.span_id);
    w.u64(s.parent_span_id);
    w.u64(s.start_ns);
    w.u64(s.end_ns);
    w.u64(s.queue_depth);
    w.str16(s.name);
    w.u32(s.shard);
    w.u32(s.tid);
    w.u8(s.flags);
    w.u8(s.cause);
  }
}

bool decode_trace_payload(const std::uint8_t* data, std::size_t size,
                          TraceSnapshot& out) {
  codec::Reader r(data, size);
  if (!decode_envelope(r, MsgType::kTraceResponse, kTraceVersion, out)) {
    return false;
  }
  out.remaining = r.u64();
  const std::uint32_t count = r.u32();
  if (count > kMaxSpansPerTraceResponse) return false;
  out.spans.assign(count, obs::Span{});
  for (obs::Span& s : out.spans) {
    s.trace_id = r.u64();
    s.span_id = r.u64();
    s.parent_span_id = r.u64();
    s.start_ns = r.u64();
    s.end_ns = r.u64();
    s.queue_depth = r.u64();
    const std::string name = r.str16();
    s.shard = r.u32();
    s.tid = r.u32();
    s.flags = r.u8();
    s.cause = r.u8();
    if (!r.ok()) return false;
    s.name = intern_name(name);
  }
  return r.done();
}

TraceSnapshot make_trace_snapshot(NodeRole role, std::uint32_t backend_id) {
  TraceSnapshot snapshot;
  snapshot.role = role;
  snapshot.backend_id = backend_id;
  snapshot.steady_ns = obs::now_ns();
  snapshot.wall_ns = obs::wall_now_ns();
#if !defined(RLB_OBS_DISABLED)
  obs::SpanRecorder& recorder = obs::SpanRecorder::instance();
  snapshot.spans = recorder.drain(kMaxSpansPerTraceResponse);
  snapshot.dropped = recorder.dropped();
  snapshot.remaining = recorder.size();
#endif
  return snapshot;
}

}  // namespace rlb::net
