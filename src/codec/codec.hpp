// The one definition of rlb's byte format: every wire frame (net/wire.hpp,
// net/stats.hpp, net/trace_wire.hpp, net/events_wire.hpp), placement
// deltas (core/placement_epoch.hpp) and RLBT trace files
// (workloads/trace.hpp) encode and decode through this header.
//
// The format is little-endian throughout:
//   - integers are fixed-width u8/u16/u32/u64;
//   - doubles are the IEEE-754 bit pattern as a u64;
//   - strings are a u8 or u16 byte count followed by the bytes, with no
//     terminator (each format states which prefix it uses);
//   - lists are a count followed by the entries.
//
// Three tools:
//   - load_le / store_le: fixed-offset access for fixed-size frames, where
//     one up-front size check covers every field (the REQUEST/RESPONSE hot
//     path);
//   - Writer: appends fields to a byte vector;
//   - Reader: a bounds-checked cursor with a sticky error flag.  A read
//     past the end sets the flag and yields zero, so a decoder reads its
//     fields straight through and checks ok() once before it trusts them
//     (and before any allocation sized by them), then done() for exact
//     consumption.
//
// Header-only with no dependencies, so every library can include it
// without a link edge (rlb_net does not link rlb_core).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace rlb::codec {

/// Read an unsigned little-endian integer at `p`.  The caller has already
/// checked that sizeof(T) bytes are there.
template <typename T>
[[nodiscard]] inline T load_le(const std::uint8_t* p) noexcept {
  static_assert(std::is_unsigned_v<T>);
  if constexpr (std::endian::native == std::endian::little) {
    T v;
    std::memcpy(&v, p, sizeof(T));
    return v;
  } else {
    T v = 0;
    for (std::size_t i = sizeof(T); i-- > 0;) {
      v = static_cast<T>((v << 8) | p[i]);
    }
    return v;
  }
}

/// Write an unsigned little-endian integer at `p` (sizeof(T) bytes).
template <typename T>
inline void store_le(std::uint8_t* p, T v) noexcept {
  static_assert(std::is_unsigned_v<T>);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
}

/// Appends fields to a byte vector.
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) noexcept : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void f64(double v) { put(std::bit_cast<std::uint64_t>(v)); }

  void bytes(const std::uint8_t* data, std::size_t size) {
    out_.insert(out_.end(), data, data + size);
  }

  /// u8 byte count + bytes; longer strings are cut to 255 bytes.
  void str8(std::string_view s) {
    const std::size_t n = s.size() < 0xFF ? s.size() : 0xFF;
    u8(static_cast<std::uint8_t>(n));
    bytes(reinterpret_cast<const std::uint8_t*>(s.data()), n);
  }

  /// u16 byte count + bytes; longer strings are cut to 65535 bytes.
  void str16(std::string_view s) {
    const std::size_t n = s.size() < 0xFFFF ? s.size() : 0xFFFF;
    u16(static_cast<std::uint16_t>(n));
    bytes(reinterpret_cast<const std::uint8_t*>(s.data()), n);
  }

 private:
  template <typename T>
  void put(T v) {
    const std::size_t at = out_.size();
    out_.resize(at + sizeof(T));
    store_le(out_.data() + at, v);
  }

  std::vector<std::uint8_t>& out_;
};

/// Bounds-checked sequential reader with a sticky error flag.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size) noexcept
      : data_(data), size_(size) {}

  std::uint8_t u8() noexcept { return get<std::uint8_t>(); }
  std::uint16_t u16() noexcept { return get<std::uint16_t>(); }
  std::uint32_t u32() noexcept { return get<std::uint32_t>(); }
  std::uint64_t u64() noexcept { return get<std::uint64_t>(); }
  double f64() noexcept { return std::bit_cast<double>(u64()); }

  /// Point at the next `n` bytes and step over them; nullptr (and the
  /// error flag) when fewer are left.
  const std::uint8_t* bytes(std::size_t n) noexcept {
    if (!take(n)) return nullptr;
    return data_ + pos_ - n;
  }

  /// u8 / u16 byte count + bytes.  Empty (and the error flag) on overrun.
  std::string str8() { return str(u8()); }
  std::string str16() { return str(u16()); }

  /// Vet a count read from the input before allocating for it: true when
  /// `count` entries of at least `min_entry_bytes` (> 0) each can still
  /// fit in the unread bytes.  Sets the error flag otherwise, so a hostile
  /// count fails fast instead of sizing an allocation.
  bool fits(std::uint64_t count, std::size_t min_entry_bytes) noexcept {
    if (error_ || count > remaining() / min_entry_bytes) error_ = true;
    return !error_;
  }

  /// Mark the input malformed (a field failed a semantic check).
  void fail() noexcept { error_ = true; }

  [[nodiscard]] bool ok() const noexcept { return !error_; }
  /// Every read succeeded and every byte was consumed.
  [[nodiscard]] bool done() const noexcept { return !error_ && pos_ == size_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }

 private:
  bool take(std::size_t n) noexcept {
    if (error_ || remaining() < n) {
      error_ = true;
      return false;
    }
    pos_ += n;
    return true;
  }

  template <typename T>
  T get() noexcept {
    if (!take(sizeof(T))) return 0;
    return load_le<T>(data_ + pos_ - sizeof(T));
  }

  std::string str(std::size_t n) {
    const std::uint8_t* p = bytes(n);
    return p == nullptr ? std::string()
                        : std::string(reinterpret_cast<const char*>(p), n);
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool error_ = false;
};

}  // namespace rlb::codec
