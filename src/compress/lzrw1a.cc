#include "compress/lzrw1a.h"

#include <algorithm>
#include <cstring>

#include "compress/lzrw1.h"
#include "util/assert.h"

namespace compcache {

namespace {
constexpr size_t kItemsPerGroup = 16;
}  // namespace

Lzrw1a::Lzrw1a(unsigned hash_bits) : hash_bits_(hash_bits) {
  CC_EXPECTS(hash_bits >= 8 && hash_bits <= 20);
  table_.assign(size_t{1} << hash_bits_, Bucket{});
}

size_t Lzrw1a::MaxCompressedSize(size_t n) const {
  const size_t groups = (n + kItemsPerGroup - 1) / kItemsPerGroup;
  return 1 + n + 2 * groups;
}

uint32_t Lzrw1a::Hash(const uint8_t* p) const {
  const uint32_t key =
      (static_cast<uint32_t>(p[0]) << 16) | (static_cast<uint32_t>(p[1]) << 8) | p[2];
  return (key * 2654435761u) >> (32 - hash_bits_);
}

size_t Lzrw1a::Compress(std::span<const uint8_t> src, std::span<uint8_t> dst) {
  const size_t n = src.size();
  CC_EXPECTS(dst.size() >= MaxCompressedSize(n));
  if (n == 0) {
    dst[0] = kContainerRaw;
    return 1;
  }
  // Epoch-tagged buckets: a bucket from an older epoch reads as empty, so the
  // table never needs a full per-call clear (only on counter wrap).
  if (epoch_ == UINT32_MAX) {
    std::fill(table_.begin(), table_.end(), Bucket{});
    epoch_ = 0;
  }
  ++epoch_;

  uint8_t* const out_begin = dst.data();
  uint8_t* out = out_begin + 1;
  const uint8_t* const in = src.data();

  size_t pos = 0;
  while (pos < n) {
    uint8_t* const control_at = out;
    out += 2;
    uint16_t control = 0;

    for (size_t item = 0; item < kItemsPerGroup && pos < n; ++item) {
      size_t best_len = 0;
      size_t best_offset = 0;
      if (pos + kLzrwMinMatch <= n) {
        Bucket& bucket = table_[Hash(in + pos)];
        if (bucket.epoch != epoch_) {
          bucket.pos_plus1[0] = 0;
          bucket.pos_plus1[1] = 0;
          bucket.epoch = epoch_;
        }
        for (const uint32_t cand_plus1 : bucket.pos_plus1) {
          if (cand_plus1 == 0) {
            continue;
          }
          const size_t cand = cand_plus1 - 1;
          const size_t offset = pos - cand;
          if (offset < 1 || offset > kLzrwMaxOffset) {
            continue;
          }
          if (in[cand] != in[pos] || in[cand + 1] != in[pos + 1] || in[cand + 2] != in[pos + 2]) {
            continue;
          }
          const size_t max_len = std::min<size_t>(kLzrwMaxMatch, n - pos);
          const size_t len = LzrwExtendMatch(in + cand, in + pos, kLzrwMinMatch, max_len);
          if (len > best_len) {
            best_len = len;
            best_offset = offset;
          }
        }
        // Shift-insert the current position, keeping the two most recent.
        bucket.pos_plus1[1] = bucket.pos_plus1[0];
        bucket.pos_plus1[0] = static_cast<uint32_t>(pos) + 1;
      }

      if (best_len >= kLzrwMinMatch) {
        control |= static_cast<uint16_t>(1u << item);
        *out++ = static_cast<uint8_t>(((best_offset >> 4) & 0xF0u) | (best_len - kLzrwMinMatch));
        *out++ = static_cast<uint8_t>(best_offset & 0xFFu);
        pos += best_len;
      } else {
        *out++ = in[pos];
        ++pos;
      }
    }

    control_at[0] = static_cast<uint8_t>(control & 0xFFu);
    control_at[1] = static_cast<uint8_t>(control >> 8);
  }

  const size_t compressed_size = static_cast<size_t>(out - out_begin);
  if (compressed_size >= n + 1) {
    dst[0] = kContainerRaw;
    std::memcpy(dst.data() + 1, in, n);
    return n + 1;
  }
  dst[0] = kContainerCompressed;
  return compressed_size;
}

bool Lzrw1a::TryDecompress(std::span<const uint8_t> src, std::span<uint8_t> dst) {
  // The bitstream is format-compatible with Lzrw1 by construction.
  return LzrwTryDecode(src, dst);
}

}  // namespace compcache
