#include "compress/lzrw1.h"

#include <cstring>

#include "util/assert.h"

namespace compcache {

namespace {

// 16 items per control group; worst case every item is a literal, costing one byte
// each plus two control bytes per group.
constexpr size_t kItemsPerGroup = 16;

size_t WorstCase(size_t n) {
  const size_t groups = (n + kItemsPerGroup - 1) / kItemsPerGroup;
  return 1 /* container flag */ + n + 2 * groups;
}

// Writes the `len`-byte match that starts `offset` bytes back, with the
// byte-by-byte semantics of an overlapping copy; `room` is the output space
// left at `out`. With an offset of 8 or more and 7 bytes of room past the
// match, it moves whole 8-byte chunks: each chunk reads only bytes that are
// already final, and the up to 7 bytes it writes past the match are
// overwritten by the items that follow.
void CopyMatch(uint8_t* out, size_t offset, size_t len, size_t room) {
  const uint8_t* from = out - offset;
  if (offset >= 8 && room >= len + 7) {
    for (size_t i = 0; i < len; i += 8) {
      uint64_t chunk = 0;
      std::memcpy(&chunk, from + i, sizeof(chunk));
      std::memcpy(out + i, &chunk, sizeof(chunk));
    }
  } else {
    for (size_t i = 0; i < len; ++i) {
      out[i] = from[i];
    }
  }
}

}  // namespace

Lzrw1::Lzrw1(unsigned hash_bits) : hash_bits_(hash_bits) {
  CC_EXPECTS(hash_bits >= 8 && hash_bits <= 22);
  table_.assign(size_t{1} << hash_bits_, 0);
}

size_t Lzrw1::MaxCompressedSize(size_t n) const { return WorstCase(n); }

uint32_t Lzrw1::Hash(const uint8_t* p) const {
  // Multiplicative hash of the next three bytes (40543 is the multiplier Williams
  // used; any odd multiplier with good avalanche works).
  const uint32_t key =
      (static_cast<uint32_t>(p[0]) << 16) | (static_cast<uint32_t>(p[1]) << 8) | p[2];
  return (key * 40543u) >> (24 - (hash_bits_ > 24 ? 24 : hash_bits_)) &
         ((1u << hash_bits_) - 1);
}

size_t Lzrw1::Compress(std::span<const uint8_t> src, std::span<uint8_t> dst) {
  const size_t n = src.size();
  CC_EXPECTS(dst.size() >= MaxCompressedSize(n));
  if (n == 0) {
    dst[0] = kContainerRaw;
    return 1;
  }

  // Positions are stored +1 so that 0 means "empty slot"; the table persists
  // across calls, so stale entries from a previous buffer must never be trusted.
  // Entries carry the call epoch in their high bits: bumping the epoch
  // invalidates the whole table in O(1) instead of a 16 KB memset per page.
  // A full clear is only needed when the epoch counter wraps, or for inputs too
  // large for the packed position field (never the 4 KB page case).
  if (n > kPosMask - 1 || epoch_ == kMaxEpoch) {
    std::memset(table_.data(), 0, table_.size() * sizeof(uint32_t));
    epoch_ = 0;
  } else {
    ++epoch_;
  }
  const uint32_t epoch_tag = epoch_ << kPosBits;

  uint8_t* const out_begin = dst.data();
  uint8_t* out = out_begin + 1;  // container flag goes in byte 0
  const uint8_t* const in = src.data();

  size_t pos = 0;
  while (pos < n) {
    // Start a group: reserve two bytes for the control word.
    uint8_t* const control_at = out;
    out += 2;
    uint16_t control = 0;

    for (size_t item = 0; item < kItemsPerGroup && pos < n; ++item) {
      bool emitted_copy = false;
      if (pos + kLzrwMinMatch <= n) {
        const uint32_t h = Hash(in + pos);
        const uint32_t entry = table_[h];
        const uint32_t prev_plus1 = (entry & ~kPosMask) == epoch_tag ? (entry & kPosMask) : 0;
        table_[h] = epoch_tag | (static_cast<uint32_t>(pos) + 1);
        if (prev_plus1 != 0) {
          const size_t prev = prev_plus1 - 1;
          const size_t offset = pos - prev;
          if (offset >= 1 && offset <= kLzrwMaxOffset &&
              in[prev] == in[pos] && in[prev + 1] == in[pos + 1] && in[prev + 2] == in[pos + 2]) {
            // Extend the match greedily up to 18 bytes or end of input. Matches may
            // overlap the current position (offset < length), which the
            // decompressor reproduces.
            const size_t len = LzrwExtendMatch(in + prev, in + pos, kLzrwMinMatch,
                                               std::min<size_t>(kLzrwMaxMatch, n - pos));
            control |= static_cast<uint16_t>(1u << item);
            *out++ = static_cast<uint8_t>(((offset >> 4) & 0xF0u) | (len - kLzrwMinMatch));
            *out++ = static_cast<uint8_t>(offset & 0xFFu);
            pos += len;
            emitted_copy = true;
          }
        }
      }
      if (!emitted_copy) {
        *out++ = in[pos];
        ++pos;
      }
    }

    control_at[0] = static_cast<uint8_t>(control & 0xFFu);
    control_at[1] = static_cast<uint8_t>(control >> 8);
  }

  const size_t compressed_size = static_cast<size_t>(out - out_begin);
  if (compressed_size >= n + 1) {
    // Expansion: store raw. This is the standard LZRW1 "copy flag" escape.
    dst[0] = kContainerRaw;
    if (n > 0) {  // memcpy from an empty span's null data() is UB
      std::memcpy(dst.data() + 1, in, n);
    }
    return n + 1;
  }
  dst[0] = kContainerCompressed;
  return compressed_size;
}

bool Lzrw1::TryDecompress(std::span<const uint8_t> src, std::span<uint8_t> dst) {
  return LzrwTryDecode(src, dst);
}

bool LzrwTryDecode(std::span<const uint8_t> src, std::span<uint8_t> dst) {
  if (src.empty()) {
    return false;
  }
  if (IsZeroPageMarker(src)) {
    if (!dst.empty()) {
      std::memset(dst.data(), 0, dst.size());
    }
    return true;
  }
  const size_t n = dst.size();
  const uint8_t* in = src.data() + 1;
  const uint8_t* const in_end = src.data() + src.size();

  if (src[0] == kContainerRaw) {
    if (src.size() != n + 1) {
      return false;
    }
    if (n > 0) {  // memcpy on an empty span's null data() is UB
      std::memcpy(dst.data(), in, n);
    }
    return true;
  }
  if (src[0] != kContainerCompressed) {
    return false;
  }

  uint8_t* const out_begin = dst.data();
  uint8_t* out = out_begin;
  uint8_t* const out_end = out + n;
  while (out < out_end) {
    if (in + 2 > in_end) {
      return false;  // truncated control word
    }
    const uint16_t control = static_cast<uint16_t>(in[0] | (in[1] << 8));
    in += 2;
    for (size_t item = 0; item < kItemsPerGroup && out < out_end; ++item) {
      if (control & (1u << item)) {
        if (in + 2 > in_end) {
          return false;  // truncated copy item
        }
        const uint32_t b0 = *in++;
        const uint32_t b1 = *in++;
        const size_t offset = ((b0 & 0xF0u) << 4) | b1;
        const size_t len = (b0 & 0x0Fu) + kLzrwMinMatch;
        if (offset < 1 || out - out_begin < static_cast<ptrdiff_t>(offset) ||
            out + len > out_end) {
          return false;  // offset before start of output, or copy past its end
        }
        CopyMatch(out, offset, len, static_cast<size_t>(out_end - out));
        out += len;
      } else {
        if (in >= in_end) {
          return false;  // truncated literal
        }
        *out++ = *in++;
      }
    }
  }
  return in == in_end;  // trailing garbage is also corruption
}

size_t LzrwDecode(std::span<const uint8_t> src, std::span<uint8_t> dst) {
  const bool ok = LzrwTryDecode(src, dst);
  CC_ASSERT(ok && "corrupt LZRW stream");
  return dst.size();
}

}  // namespace compcache
