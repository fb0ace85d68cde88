// ckpt/crc32.hpp
//
// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) used for every
// integrity check in the checkpoint format: file header, section table and
// each section payload carry their own CRC so restore can tell *where* a
// file was damaged (docs/CHECKPOINT.md failure matrix) instead of feeding
// corrupt bytes back into the simulation.
//
// Slicing-by-8: eight derived tables fold eight input bytes per iteration
// (two 32-bit loads, eight independent lookups) instead of one byte per
// dependent lookup. Same polynomial, same values as the bytewise form
// (crc32_bytewise, kept as the reference the tests compare against).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace vpic::ckpt {

namespace detail {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  // t[k][i]: CRC of byte i followed by k zero bytes.
  for (std::size_t k = 1; k < 8; ++k)
    for (std::uint32_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  return t;
}

inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

inline std::uint32_t load_le32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  v = __builtin_bswap32(v);
#endif
  return v;
}

}  // namespace detail

/// Bytewise reference implementation (one table lookup per byte).
inline std::uint32_t crc32_bytewise(const void* data, std::size_t n,
                                    std::uint32_t seed = 0) {
  const auto* p = static_cast<const unsigned char*>(data);
  const auto& t0 = detail::kCrc32Tables[0];
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) c = t0[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

/// Incremental form: pass the previous return value as `seed` to extend a
/// CRC over discontiguous buffers. The default seed is the standard
/// initial value.
inline std::uint32_t crc32(const void* data, std::size_t n,
                           std::uint32_t seed = 0) {
  const auto* p = static_cast<const unsigned char*>(data);
  const auto& t = detail::kCrc32Tables;
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = detail::load_le32(p) ^ c;
    const std::uint32_t hi = detail::load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace vpic::ckpt
