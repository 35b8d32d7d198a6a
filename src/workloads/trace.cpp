#include "workloads/trace.hpp"

#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "codec/codec.hpp"

namespace rlb::workloads {

Trace Trace::record(core::Workload& source, std::size_t steps) {
  Trace trace;
  std::vector<core::ChunkId> batch;
  for (std::size_t i = 0; i < steps; ++i) {
    source.fill_step(static_cast<core::Time>(i), batch);
    trace.append_step(batch);
  }
  return trace;
}

void Trace::append_step(std::vector<core::ChunkId> batch) {
  max_batch_ = std::max(max_batch_, batch.size());
  total_ += batch.size();
  steps_.push_back(std::move(batch));
}

void Trace::save(std::ostream& os) const {
  for (const auto& step : steps_) {
    for (std::size_t i = 0; i < step.size(); ++i) {
      if (i) os << ' ';
      os << step[i];
    }
    os << '\n';
  }
}

void Trace::save_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("Trace::save_file: cannot open " + path);
  save(out);
}

Trace Trace::load(std::istream& is) {
  Trace trace;
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream fields(line);
    std::vector<core::ChunkId> batch;
    core::ChunkId chunk = 0;
    while (fields >> chunk) batch.push_back(chunk);
    trace.append_step(std::move(batch));
  }
  return trace;
}

Trace Trace::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("Trace::load_file: cannot open " + path);
  return load(in);
}

namespace {

constexpr char kTraceMagic[4] = {'R', 'L', 'B', 'T'};
constexpr std::uint32_t kTraceVersion = 1;

[[noreturn]] void truncated() {
  throw std::runtime_error("Trace::load_binary: truncated stream");
}

}  // namespace

void Trace::save_binary(std::ostream& os) const {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(16 + 4 * steps_.size() + 8 * total_);
  codec::Writer w(bytes);
  w.bytes(reinterpret_cast<const std::uint8_t*>(kTraceMagic),
          sizeof(kTraceMagic));
  w.u32(kTraceVersion);
  w.u64(static_cast<std::uint64_t>(steps_.size()));
  for (const auto& step : steps_) {
    w.u32(static_cast<std::uint32_t>(step.size()));
    for (const core::ChunkId chunk : step) w.u64(chunk);
  }
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
  if (!os) throw std::runtime_error("Trace::save_binary: write failed");
}

void Trace::save_binary_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("Trace::save_binary_file: cannot open " + path);
  }
  save_binary(out);
}

Trace Trace::load_binary(std::istream& is) {
  const std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(is)),
                                       std::istreambuf_iterator<char>());
  codec::Reader r(bytes.data(), bytes.size());
  const std::uint8_t* magic = r.bytes(sizeof(kTraceMagic));
  if (magic == nullptr ||
      std::memcmp(magic, kTraceMagic, sizeof(kTraceMagic)) != 0) {
    throw std::runtime_error("Trace::load_binary: bad magic (not a trace?)");
  }
  const std::uint32_t version = r.u32();
  if (!r.ok()) truncated();
  if (version != kTraceVersion) {
    throw std::runtime_error("Trace::load_binary: unsupported version " +
                             std::to_string(version));
  }
  // Counts come from outside the program: each is vetted against the
  // bytes left (a step takes at least its u32 batch size, a chunk its u64
  // id) before anything is sized by it.
  const std::uint64_t step_count = r.u64();
  if (!r.fits(step_count, 4)) truncated();
  Trace trace;
  for (std::uint64_t s = 0; s < step_count; ++s) {
    const std::uint32_t batch_size = r.u32();
    if (!r.fits(batch_size, 8)) truncated();
    std::vector<core::ChunkId> batch(batch_size);
    for (core::ChunkId& chunk : batch) chunk = r.u64();
    trace.append_step(std::move(batch));
  }
  if (!r.done()) {
    throw std::runtime_error("Trace::load_binary: trailing bytes");
  }
  return trace;
}

Trace Trace::load_binary_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("Trace::load_binary_file: cannot open " + path);
  }
  return load_binary(in);
}

Trace Trace::load_auto_file(const std::string& path) {
  std::ifstream probe(path, std::ios::binary);
  if (!probe) {
    throw std::runtime_error("Trace::load_auto_file: cannot open " + path);
  }
  char magic[4] = {0, 0, 0, 0};
  probe.read(magic, 4);
  probe.close();
  if (std::memcmp(magic, kTraceMagic, sizeof(kTraceMagic)) == 0) {
    return load_binary_file(path);
  }
  return load_file(path);
}

TraceWorkload::TraceWorkload(const Trace& trace) : trace_(trace) {
  if (trace.step_count() == 0) {
    throw std::invalid_argument("TraceWorkload: empty trace");
  }
}

void TraceWorkload::fill_step(core::Time t, std::vector<core::ChunkId>& out) {
  const std::size_t index =
      static_cast<std::size_t>(t) % trace_.step_count();
  out = trace_.step(index);
}

}  // namespace rlb::workloads
