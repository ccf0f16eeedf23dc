// LZRW1 — Ross Williams's "extremely fast Ziv-Lempel" compressor (DCC 1991),
// re-implemented from scratch. This is the algorithm the paper used for every
// measurement ("Compression was performed using Williams's LZRW1 algorithm").
//
// Algorithm shape (faithful to the published description):
//   * single pass, greedy;
//   * a hash table maps a hash of the next 3 bytes to the most recent position
//     where that hash was seen — one probe, no chains;
//   * items are grouped 16 to a group behind a 16-bit control word: bit 0 means a
//     literal byte, bit 1 means a copy item;
//   * a copy item is two bytes: a 12-bit backwards offset (1..4095) and a 4-bit
//     length encoding lengths 3..18;
//   * only one hash-table insertion is performed per item (not per byte), which is
//     what makes the algorithm fast;
//   * decompression needs no table at all, which is why it runs about twice as
//     fast as compression (the 2:1 property quoted in the paper's Figure 1).
//
// The hash table size is configurable because the paper (section 4.4) discusses the
// memory/ratio trade-off: "This hash table can be relatively large (e.g., on the
// order of 1 Mbyte), which improves compression at the cost of memory... In the
// system measured for this paper, the hash table is 16 Kbytes."
#ifndef COMPCACHE_COMPRESS_LZRW1_H_
#define COMPCACHE_COMPRESS_LZRW1_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "compress/codec.h"

namespace compcache {

class Lzrw1 : public Codec {
 public:
  // hash_bits selects 2^hash_bits table entries of 4 bytes each; the default 12
  // gives the paper's 16 KB table.
  explicit Lzrw1(unsigned hash_bits = 12);

  std::string_view name() const override { return "lzrw1"; }
  size_t MaxCompressedSize(size_t n) const override;
  size_t Compress(std::span<const uint8_t> src, std::span<uint8_t> dst) override;
  bool TryDecompress(std::span<const uint8_t> src, std::span<uint8_t> dst) override;

  size_t hash_table_bytes() const { return table_.size() * sizeof(uint32_t); }

 private:
  uint32_t Hash(const uint8_t* p) const;

  unsigned hash_bits_;
  // Each entry packs (epoch << kPosBits) | (pos + 1). Tagging entries with the
  // call epoch lets the table persist across calls without a per-call memset
  // (16 KB at the default size — 4x the page being compressed): an entry from
  // an older epoch reads exactly like an empty slot, so output is
  // byte-identical to the reset-every-call scheme.
  static constexpr uint32_t kPosBits = 20;  // inputs up to 2^20 - 1 bytes
  static constexpr uint32_t kPosMask = (1u << kPosBits) - 1;
  static constexpr uint32_t kMaxEpoch = (1u << (32 - kPosBits)) - 1;
  std::vector<uint32_t> table_;
  uint32_t epoch_ = 0;
};

// Shared by lzrw1 and lzrw1a: copy items reach back at most 4095 bytes and cover
// 3..18 bytes.
inline constexpr uint32_t kLzrwMaxOffset = 4095;
inline constexpr uint32_t kLzrwMinMatch = 3;
inline constexpr uint32_t kLzrwMaxMatch = 18;

// The encoders' greedy match extension: given that a[0, len) == b[0, len),
// returns the length of the common prefix of a[0, max_len) and b[0, max_len),
// comparing eight bytes at a time. Both ranges must be readable.
inline size_t LzrwExtendMatch(const uint8_t* a, const uint8_t* b, size_t len, size_t max_len) {
  for (; len + sizeof(uint64_t) <= max_len; len += sizeof(uint64_t)) {
    uint64_t x = 0;
    uint64_t y = 0;
    std::memcpy(&x, a + len, sizeof(x));
    std::memcpy(&y, b + len, sizeof(y));
    if (const uint64_t diff = x ^ y; diff != 0) {
      // The first differing byte in memory order is the lowest set byte on a
      // little-endian host and the highest on a big-endian one.
      const int bits = std::endian::native == std::endian::little ? std::countr_zero(diff)
                                                                  : std::countl_zero(diff);
      return len + static_cast<size_t>(bits) / 8;
    }
  }
  while (len < max_len && a[len] == b[len]) {
    ++len;
  }
  return len;
}

// Decodes the shared LZRW bitstream (used by both Lzrw1 and Lzrw1a — decompression
// needs no per-codec state). dst.size() must equal the original input size.
// Returns false on malformed input without reading or writing out of bounds.
bool LzrwTryDecode(std::span<const uint8_t> src, std::span<uint8_t> dst);

}  // namespace compcache

#endif  // COMPCACHE_COMPRESS_LZRW1_H_
