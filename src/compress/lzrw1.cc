#include "compress/lzrw1.h"

#include <array>
#include <bit>
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

// Room the decode fast loop needs at the start of a step. A step moves one
// 16-byte literal block, then handles at most one copy item: 2 bytes of input
// and at most 24 bytes of output.
constexpr ptrdiff_t kFastIn = 16 + 2;
constexpr ptrdiff_t kFastOut = 16 + 24;

template <typename Word>
Word LoadWord(const uint8_t* from) {
  Word word = 0;
  std::memcpy(&word, from, sizeof(word));
  return word;
}

template <typename Word>
void StoreWord(uint8_t* to, Word word) {
  std::memcpy(to, &word, sizeof(word));
}

// Sixteen bytes in one register; byte i of memory is bits [8i, 8i + 8) on a
// little-endian host.
using Bytes16 = unsigned __int128;

// An overlapping copy with offset d repeats its first d source bytes. For d
// from 1 to 16: the mask that keeps a load's first d bytes, the multiplier
// that repeats them every d bytes across 16 (the copies do not overlap, so
// nothing carries), and the shift to the pattern's next 8 bytes, which start
// at byte 16 mod d.
struct Period {
  Bytes16 mask = 0;
  Bytes16 repeat = 0;
  unsigned next_shift = 0;
};
constexpr std::array<Period, 17> kPeriods = [] {
  std::array<Period, 17> periods{};
  for (unsigned d = 1; d <= 16; ++d) {
    Period& p = periods[d];
    p.mask = d == 16 ? ~Bytes16{0} : (Bytes16{1} << (8 * d)) - 1;
    for (unsigned at = 0; at < 16; at += d) {
      p.repeat |= Bytes16{1} << (8 * at);
    }
    p.next_shift = 8 * (16 % d);
  }
  return periods;
}();

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
    const uint32_t control = static_cast<uint32_t>(in[0] | (in[1] << 8));
    in += 2;
    size_t item = 0;
    // Fast loop, one step per copy item. With this much room no item can be
    // truncated or run past dst, so the offset is the only check that can
    // fail; bytes written past an item are rewritten by the items after it
    // (DESIGN.md §13).
    while (item < kItemsPerGroup && in_end - in >= kFastIn && out_end - out >= kFastOut) {
      // The literals before the next copy item, or to the end of the group.
      const size_t run = static_cast<size_t>(
          std::countr_zero((control >> item) | (1u << (kItemsPerGroup - item))));
      StoreWord(out, LoadWord<uint64_t>(in));
      StoreWord(out + 8, LoadWord<uint64_t>(in + 8));
      in += run;
      out += run;
      item += run;
      if (item == kItemsPerGroup) {
        break;
      }
      const size_t offset = ((in[0] & 0xF0u) << 4) | in[1];
      const size_t len = (in[0] & 0x0Fu) + kLzrwMinMatch;
      if (offset - 1 >= static_cast<size_t>(out - out_begin)) {
        return false;  // offset 0, or before start of output
      }
      // Every load comes before every store, so no load waits on a store of
      // the same item. A loaded byte at or past `out` lands past the item's
      // end, is masked off, or is replaced (offset 17; DESIGN.md §13).
      const uint8_t* const from = out - offset;
      if (offset >= len) {
        const auto w0 = LoadWord<uint64_t>(from);
        const auto w1 = LoadWord<uint64_t>(from + 8);
        const auto w2 = LoadWord<uint64_t>(from + 16);
        StoreWord(out, w0);
        StoreWord(out + 8, w1);
        StoreWord(out + 16, w2);
      } else if (std::endian::native != std::endian::little) {
        // The register patterns below assume little-endian byte order.
        for (size_t i = 0; i < len; ++i) {
          out[i] = from[i];
        }
      } else if (offset <= 16) {
        // Build the period-`offset` pattern in a register from one load.
        const Period& period = kPeriods[offset];
        const Bytes16 pattern = (LoadWord<Bytes16>(from) & period.mask) * period.repeat;
        StoreWord(out, pattern);
        StoreWord(out + 16, static_cast<uint64_t>(pattern >> period.next_shift));
      } else {
        // Offset 17, length 18: the last byte repeats the first.
        const auto w0 = LoadWord<uint64_t>(from);
        const auto w1 = LoadWord<uint64_t>(from + 8);
        const auto w2 = LoadWord<uint64_t>(from + 16);
        StoreWord(out, w0);
        StoreWord(out + 8, w1);
        StoreWord(out + 16, (w2 & ~uint64_t{0xFF00}) | (w0 & 0xFF) << 8);
      }
      in += 2;
      out += len;
      ++item;
    }
    // Checked loop: finishes the group near the end of the input or output.
    for (; item < kItemsPerGroup && out < out_end; ++item) {
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
        const uint8_t* const from = out - offset;
        for (size_t i = 0; i < len; ++i) {
          out[i] = from[i];
        }
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

}  // namespace compcache
