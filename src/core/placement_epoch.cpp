#include "core/placement_epoch.hpp"

#include "codec/codec.hpp"

namespace rlb::core {

namespace {

constexpr std::size_t kRemapSize = 16;  // u64 chunk + u32 from + u32 to

}  // namespace

void encode_placement_delta(const PlacementDelta& delta,
                            std::vector<std::uint8_t>& out) {
  codec::Writer w(out);
  w.u64(delta.epoch);
  w.u32(static_cast<std::uint32_t>(delta.remaps.size()));
  for (const ChunkRemap& remap : delta.remaps) {
    w.u64(remap.chunk);
    w.u32(remap.from);
    w.u32(remap.to);
  }
}

bool decode_placement_delta(const std::uint8_t* data, std::size_t size,
                            PlacementDelta& out) {
  codec::Reader r(data, size);
  const std::uint64_t epoch = r.u64();
  const std::uint32_t count = r.u32();
  // Exact size: a count that does not match the bytes left is malformed,
  // checked before anything is allocated or `out` is touched.
  if (!r.ok() || r.remaining() != std::size_t{count} * kRemapSize) {
    return false;
  }
  out.epoch = epoch;
  out.remaps.clear();
  out.remaps.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    ChunkRemap remap;
    remap.chunk = r.u64();
    remap.from = r.u32();
    remap.to = r.u32();
    out.remaps.push_back(remap);
  }
  return r.done();
}

EpochedPlacement::EpochedPlacement(std::size_t servers, unsigned replication,
                                   std::uint64_t seed, PlacementMode mode)
    : base_(servers, replication, seed, mode),
      overlay_(std::make_shared<const Overlay>()) {}

ChoiceList EpochedPlacement::choices(ChunkId chunk) const {
  const std::shared_ptr<const Overlay> overlay =
      overlay_.load(std::memory_order_acquire);
  const auto it = overlay->choices.find(chunk);
  if (it != overlay->choices.end()) return it->second;
  return base_.choices(chunk);
}

std::uint64_t EpochedPlacement::epoch() const {
  return overlay_.load(std::memory_order_acquire)->epoch;
}

bool EpochedPlacement::apply(const PlacementDelta& delta) {
  std::lock_guard<std::mutex> lock(apply_mu_);
  const std::shared_ptr<const Overlay> current =
      overlay_.load(std::memory_order_acquire);
  if (delta.epoch != current->epoch + 1) return false;

  // Build the successor off to the side; readers keep seeing `current`
  // until the single publishing store below.
  auto next = std::make_shared<Overlay>(*current);
  for (const ChunkRemap& remap : delta.remaps) {
    if (remap.from == remap.to) return false;
    auto it = next->choices.find(remap.chunk);
    ChoiceList old = it != next->choices.end() ? it->second
                                               : base_.choices(remap.chunk);
    if (old.contains(remap.to)) return false;
    ChoiceList updated;
    bool replaced = false;
    for (const ServerId server : old) {
      if (server == remap.from) {
        updated.push_back(remap.to);
        replaced = true;
      } else {
        updated.push_back(server);
      }
    }
    if (!replaced) return false;
    next->choices[remap.chunk] = updated;
  }
  next->epoch = delta.epoch;
  next->history.push_back(delta);
  overlay_.store(std::shared_ptr<const Overlay>(std::move(next)),
                 std::memory_order_release);
  return true;
}

std::vector<PlacementDelta> EpochedPlacement::history() const {
  return overlay_.load(std::memory_order_acquire)->history;
}

std::vector<PlacementDelta> EpochedPlacement::deltas_since(
    std::uint64_t epoch) const {
  const std::shared_ptr<const Overlay> overlay =
      overlay_.load(std::memory_order_acquire);
  std::vector<PlacementDelta> out;
  for (const PlacementDelta& delta : overlay->history) {
    if (delta.epoch > epoch) out.push_back(delta);
  }
  return out;
}

std::size_t EpochedPlacement::remapped_chunks() const {
  return overlay_.load(std::memory_order_acquire)->choices.size();
}

}  // namespace rlb::core
