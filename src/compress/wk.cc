#include "compress/wk.h"

#include <cstring>
#include <vector>

#include "util/assert.h"

namespace compcache {

namespace {

constexpr uint32_t kDictSize = 16;
constexpr uint32_t kLowBits = 10;
constexpr uint32_t kLowMask = (1u << kLowBits) - 1;

constexpr uint8_t kTagZero = 0;
constexpr uint8_t kTagExact = 1;
constexpr uint8_t kTagPartial = 2;
constexpr uint8_t kTagMiss = 3;

uint32_t DictIndex(uint32_t word) {
  // Hash the upper 22 bits (the part a partial match shares) into 16 buckets.
  return ((word >> kLowBits) * 2654435761u) >> 28;
}

// Dense little-endian bit stream for the 10-bit low-part fields.
class BitWriter {
 public:
  explicit BitWriter(uint8_t* out) : out_(out) {}

  void Put(uint32_t value, uint32_t bits) {
    acc_ |= static_cast<uint64_t>(value) << filled_;
    filled_ += bits;
    while (filled_ >= 8) {
      out_[bytes_++] = static_cast<uint8_t>(acc_);
      acc_ >>= 8;
      filled_ -= 8;
    }
  }

  size_t Finish() {
    if (filled_ > 0) {
      out_[bytes_++] = static_cast<uint8_t>(acc_);
      acc_ = 0;
      filled_ = 0;
    }
    return bytes_;
  }

 private:
  uint8_t* out_;
  uint64_t acc_ = 0;
  uint32_t filled_ = 0;
  size_t bytes_ = 0;
};

class BitReader {
 public:
  BitReader(const uint8_t* in, size_t size) : in_(in), size_(size) {}

  uint32_t Get(uint32_t bits) {
    while (filled_ < bits) {
      CC_ASSERT(pos_ < size_);
      acc_ |= static_cast<uint64_t>(in_[pos_++]) << filled_;
      filled_ += 8;
    }
    const auto value = static_cast<uint32_t>(acc_ & ((1ull << bits) - 1));
    acc_ >>= bits;
    filled_ -= bits;
    return value;
  }

  size_t bytes_consumed() const { return pos_; }

 private:
  const uint8_t* in_;
  size_t size_;
  size_t pos_ = 0;
  uint64_t acc_ = 0;
  uint32_t filled_ = 0;
};

}  // namespace

size_t WkCodec::MaxCompressedSize(size_t n) const {
  // Worst case: every word a miss — tags (2 bits/word) plus the full words —
  // plus headers and the byte tail.
  const size_t words = n / 4;
  return 1 + 8 + (words + 3) / 4 + words * 4 + (n % 4) + 8;
}

size_t WkCodec::Compress(std::span<const uint8_t> src, std::span<uint8_t> dst) {
  const size_t n = src.size();
  CC_EXPECTS(dst.size() >= MaxCompressedSize(n));
  if (n < 16) {
    dst[0] = kContainerRaw;
    if (n > 0) {  // memcpy from an empty span's null data() is UB
      std::memcpy(dst.data() + 1, src.data(), n);
    }
    return n + 1;
  }

  const size_t words = n / 4;
  const size_t tail = n % 4;
  const size_t tag_bytes = (words + 3) / 4;

  // Scratch streams (worst-case sized). assign() zeroes the streams built with
  // |=; the others are written sequentially and need no clearing. Capacity is
  // retained across calls, so only the first page-sized call allocates.
  tags_.assign(tag_bytes, 0);
  indexes_.assign((words + 1) / 2, 0);
  lows_.resize(words * 2 + 8);
  fulls_.resize(words * 4);
  auto& tags = tags_;
  auto& indexes = indexes_;
  auto& lows = lows_;
  auto& fulls = fulls_;
  size_t index_count = 0;
  BitWriter low_writer(lows.data());
  size_t low_count = 0;
  size_t full_bytes = 0;

  uint32_t dict[kDictSize] = {};
  auto put_index = [&](uint32_t idx) {
    if (index_count % 2 == 0) {
      indexes[index_count / 2] = static_cast<uint8_t>(idx);
    } else {
      indexes[index_count / 2] |= static_cast<uint8_t>(idx << 4);
    }
    ++index_count;
  };

  for (size_t w = 0; w < words; ++w) {
    uint32_t word;
    std::memcpy(&word, src.data() + w * 4, 4);
    uint8_t tag;
    if (word == 0) {
      tag = kTagZero;
    } else {
      const uint32_t idx = DictIndex(word);
      if (dict[idx] == word) {
        tag = kTagExact;
        put_index(idx);
      } else if ((dict[idx] >> kLowBits) == (word >> kLowBits)) {
        tag = kTagPartial;
        put_index(idx);
        low_writer.Put(word & kLowMask, kLowBits);
        ++low_count;
        dict[idx] = word;
      } else {
        tag = kTagMiss;
        std::memcpy(fulls.data() + full_bytes, &word, 4);
        full_bytes += 4;
        dict[idx] = word;
      }
    }
    tags[w / 4] |= static_cast<uint8_t>(tag << ((w % 4) * 2));
  }
  const size_t low_bytes = low_writer.Finish();
  const size_t index_bytes = (index_count + 1) / 2;

  // Assemble: flag, word count (u32), tail size (u8), tags, indexes, lows, fulls,
  // tail bytes. The decoder re-derives every stream length from the tags.
  const size_t total = 1 + 4 + 1 + tag_bytes + index_bytes + low_bytes + full_bytes + tail;
  if (total >= n + 1) {
    dst[0] = kContainerRaw;
    std::memcpy(dst.data() + 1, src.data(), n);
    return n + 1;
  }

  uint8_t* out = dst.data();
  *out++ = kContainerCompressed;
  const auto word_count = static_cast<uint32_t>(words);
  std::memcpy(out, &word_count, 4);
  out += 4;
  *out++ = static_cast<uint8_t>(tail);
  std::memcpy(out, tags.data(), tag_bytes);
  out += tag_bytes;
  std::memcpy(out, indexes.data(), index_bytes);
  out += index_bytes;
  std::memcpy(out, lows.data(), low_bytes);
  out += low_bytes;
  std::memcpy(out, fulls.data(), full_bytes);
  out += full_bytes;
  std::memcpy(out, src.data() + words * 4, tail);
  out += tail;
  CC_ENSURES(static_cast<size_t>(out - dst.data()) == total);
  return total;
}

bool WkCodec::TryDecompress(std::span<const uint8_t> src, std::span<uint8_t> dst) {
  if (src.empty()) {
    return false;
  }
  const size_t n = dst.size();
  if (src[0] == kContainerRaw) {
    if (src.size() != n + 1) {
      return false;
    }
    if (n > 0) {  // memcpy into an empty span's null data() is UB
      std::memcpy(dst.data(), src.data() + 1, n);
    }
    return true;
  }
  if (src[0] != kContainerCompressed || src.size() < 6) {
    return false;  // too short for flag + word count + tail size
  }

  const uint8_t* in = src.data() + 1;
  uint32_t words;
  std::memcpy(&words, in, 4);
  in += 4;
  const uint8_t tail = *in++;
  // This also bounds `words` by n/4, so the derived stream sizes cannot
  // overflow below.
  if (static_cast<uint64_t>(words) * 4 + tail != n) {
    return false;
  }

  const size_t tag_bytes = (static_cast<size_t>(words) + 3) / 4;
  if (tag_bytes > static_cast<size_t>(src.data() + src.size() - in)) {
    return false;  // truncated tag stream
  }
  const uint8_t* tags = in;
  in += tag_bytes;

  // First pass over tags: how many of each class, to locate the streams.
  size_t exacts = 0;
  size_t partials = 0;
  size_t misses = 0;
  for (uint32_t w = 0; w < words; ++w) {
    const uint8_t tag = (tags[w / 4] >> ((w % 4) * 2)) & 3;
    exacts += tag == kTagExact;
    partials += tag == kTagPartial;
    misses += tag == kTagMiss;
  }
  const size_t index_bytes = (exacts + partials + 1) / 2;
  const size_t low_bytes = (partials * kLowBits + 7) / 8;
  // One exact extent check makes every stream read below in-bounds by
  // construction (the BitReader consumes at most low_bytes for partials*10
  // bits).
  if (1 + 4 + 1 + static_cast<uint64_t>(tag_bytes) + index_bytes + low_bytes +
          static_cast<uint64_t>(misses) * 4 + tail !=
      src.size()) {
    return false;
  }
  const uint8_t* indexes = in;
  in += index_bytes;
  BitReader low_reader(in, low_bytes);
  in += low_bytes;
  const uint8_t* fulls = in;
  in += misses * 4;
  const uint8_t* tail_bytes = in;

  uint32_t dict[kDictSize] = {};
  size_t index_pos = 0;
  size_t full_pos = 0;
  auto next_index = [&]() -> uint32_t {
    const uint8_t byte = indexes[index_pos / 2];
    const uint32_t idx = index_pos % 2 == 0 ? (byte & 0x0F) : (byte >> 4);
    ++index_pos;
    return idx;
  };

  for (uint32_t w = 0; w < words; ++w) {
    const uint8_t tag = (tags[w / 4] >> ((w % 4) * 2)) & 3;
    uint32_t word = 0;
    switch (tag) {
      case kTagZero:
        word = 0;
        break;
      case kTagExact:
        word = dict[next_index()];
        break;
      case kTagPartial: {
        const uint32_t idx = next_index();
        word = (dict[idx] & ~kLowMask) | low_reader.Get(kLowBits);
        dict[idx] = word;
        break;
      }
      case kTagMiss:
        std::memcpy(&word, fulls + full_pos, 4);
        full_pos += 4;
        dict[DictIndex(word)] = word;
        break;
    }
    std::memcpy(dst.data() + static_cast<size_t>(w) * 4, &word, 4);
  }
  std::memcpy(dst.data() + static_cast<size_t>(words) * 4, tail_bytes, tail);
  return true;
}

}  // namespace compcache
