#include "compress/fpc.h"

#include <cstring>

#include "util/assert.h"

namespace compcache {
namespace {

// 3-bit prefixes, in the canonical FPC class order. Zero runs carry a 3-bit
// length field (run length 1..8, encoded as length-1); the other classes
// carry the data-bit counts listed.
enum Prefix : uint32_t {
  kZeroRun = 0,        // + 3 bits: run length - 1
  kSignExt4 = 1,       // + 4 bits
  kSignExt8 = 2,       // + 8 bits
  kSignExt16 = 3,      // + 16 bits
  kZeroPaddedHalf = 4, // + 16 bits: upper halfword, lower half is zero
  kTwoHalfSE8 = 5,     // + 16 bits: two halfwords, each a sign-extended byte
  kRepeatedByte = 6,   // + 8 bits
  kUncompressed = 7,   // + 32 bits
};

// LSB-first bit writer into a byte vector (same discipline as wk.cc).
class BitWriter {
 public:
  explicit BitWriter(std::vector<uint8_t>* out) : out_(out) {}

  void Put(uint32_t value, unsigned bits) {
    acc_ |= static_cast<uint64_t>(value & ((1ull << bits) - 1)) << filled_;
    filled_ += bits;
    while (filled_ >= 8) {
      out_->push_back(static_cast<uint8_t>(acc_));
      acc_ >>= 8;
      filled_ -= 8;
    }
  }

  void Flush() {
    if (filled_ > 0) {
      out_->push_back(static_cast<uint8_t>(acc_));
      acc_ = 0;
      filled_ = 0;
    }
  }

 private:
  std::vector<uint8_t>* out_;
  uint64_t acc_ = 0;
  unsigned filled_ = 0;
};

// LSB-first bit reader over a fixed extent. Unlike wk.cc's reader (which may
// assert on a short stream), running past the end here just returns zeros and
// latches `overrun` — the corruption-fuzz suite feeds this decoder garbage.
class BitReader {
 public:
  explicit BitReader(std::span<const uint8_t> data) : data_(data) {}

  uint32_t Get(unsigned bits) {
    while (filled_ < bits) {
      if (pos_ >= data_.size()) {
        overrun_ = true;
        return 0;
      }
      acc_ |= static_cast<uint64_t>(data_[pos_++]) << filled_;
      filled_ += 8;
    }
    const uint32_t value = static_cast<uint32_t>(acc_ & ((1ull << bits) - 1));
    acc_ >>= bits;
    filled_ -= bits;
    return value;
  }

  bool overrun() const { return overrun_; }
  size_t bytes_consumed() const { return pos_; }
  unsigned bits_buffered() const { return filled_; }
  uint64_t buffered_value() const { return acc_; }

 private:
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
  uint64_t acc_ = 0;
  unsigned filled_ = 0;
  bool overrun_ = false;
};

bool FitsSigned(uint32_t w, unsigned bits) {
  const int32_t v = static_cast<int32_t>(w);
  const int32_t lo = -(1 << (bits - 1));
  const int32_t hi = (1 << (bits - 1)) - 1;
  return v >= lo && v <= hi;
}

uint32_t SignExtend(uint32_t v, unsigned bits) {
  const unsigned shift = 32 - bits;
  return static_cast<uint32_t>(static_cast<int32_t>(v << shift) >> shift);
}

}  // namespace

size_t FpcCodec::MaxCompressedSize(size_t n) const {
  // Worst case before fallback: header + 35 bits per word + raw tail; the
  // fallback keeps the true bound at n + 1, plus slack for the trial encode.
  return n + n / 8 + 16;
}

size_t FpcCodec::Compress(std::span<const uint8_t> src, std::span<uint8_t> dst) {
  const size_t n = src.size();
  CC_EXPECTS(dst.size() >= MaxCompressedSize(n));
  const size_t words = n / 4;
  const size_t tail = n % 4;

  stream_.clear();
  BitWriter writer(&stream_);
  size_t i = 0;
  while (i < words) {
    uint32_t w;
    std::memcpy(&w, src.data() + i * 4, 4);
    if (w == 0) {
      size_t run = 1;
      while (run < 8 && i + run < words) {
        uint32_t next;
        std::memcpy(&next, src.data() + (i + run) * 4, 4);
        if (next != 0) {
          break;
        }
        ++run;
      }
      writer.Put(kZeroRun, 3);
      writer.Put(static_cast<uint32_t>(run - 1), 3);
      i += run;
      continue;
    }
    ++i;
    if (FitsSigned(w, 4)) {
      writer.Put(kSignExt4, 3);
      writer.Put(w, 4);
    } else if (FitsSigned(w, 8)) {
      writer.Put(kSignExt8, 3);
      writer.Put(w, 8);
    } else if (FitsSigned(w, 16)) {
      writer.Put(kSignExt16, 3);
      writer.Put(w, 16);
    } else if ((w & 0xFFFFu) == 0) {
      writer.Put(kZeroPaddedHalf, 3);
      writer.Put(w >> 16, 16);
    } else if (FitsSigned(SignExtend(w & 0xFFFFu, 16), 8) &&
               FitsSigned(SignExtend(w >> 16, 16), 8)) {
      writer.Put(kTwoHalfSE8, 3);
      writer.Put(w & 0xFFu, 8);
      writer.Put((w >> 16) & 0xFFu, 8);
    } else {
      const uint8_t b = static_cast<uint8_t>(w);
      const uint32_t rep = static_cast<uint32_t>(b) * 0x01010101u;
      if (w == rep) {
        writer.Put(kRepeatedByte, 3);
        writer.Put(b, 8);
      } else {
        writer.Put(kUncompressed, 3);
        writer.Put(w, 32);
      }
    }
  }
  writer.Flush();

  const size_t total = 1 + 5 + stream_.size() + tail;
  if (total >= n + 1) {
    dst[0] = kContainerRaw;
    if (n > 0) {
      std::memcpy(dst.data() + 1, src.data(), n);
    }
    return n + 1;
  }

  dst[0] = kContainerCompressed;
  const uint32_t word_count = static_cast<uint32_t>(words);
  std::memcpy(dst.data() + 1, &word_count, 4);
  dst[5] = static_cast<uint8_t>(tail);
  std::memcpy(dst.data() + 6, stream_.data(), stream_.size());
  if (tail > 0) {
    std::memcpy(dst.data() + 6 + stream_.size(), src.data() + words * 4, tail);
  }
  return total;
}

bool FpcCodec::TryDecompress(std::span<const uint8_t> src, std::span<uint8_t> dst) {
  const size_t n = dst.size();
  if (src.empty()) {
    return false;
  }
  if (src[0] == kContainerRaw) {
    if (src.size() != n + 1) {
      return false;
    }
    if (n > 0) {
      std::memcpy(dst.data(), src.data() + 1, n);
    }
    return true;
  }
  if (src[0] != kContainerCompressed || src.size() < 6) {
    return false;
  }

  uint32_t word_count;
  std::memcpy(&word_count, src.data() + 1, 4);
  const uint8_t tail = src[5];
  if (tail >= 4 || static_cast<size_t>(word_count) * 4 + tail != n) {
    return false;
  }
  if (src.size() < 6 + static_cast<size_t>(tail)) {
    return false;
  }
  const size_t stream_len = src.size() - 6 - tail;

  BitReader reader(src.subspan(6, stream_len));
  size_t decoded = 0;
  while (decoded < word_count) {
    const uint32_t prefix = reader.Get(3);
    uint32_t w = 0;
    size_t produced = 1;
    switch (prefix) {
      case kZeroRun:
        produced = reader.Get(3) + 1;
        if (decoded + produced > word_count) {
          return false;  // malformed: run overshoots the page
        }
        break;
      case kSignExt4:
        w = SignExtend(reader.Get(4), 4);
        break;
      case kSignExt8:
        w = SignExtend(reader.Get(8), 8);
        break;
      case kSignExt16:
        w = SignExtend(reader.Get(16), 16);
        break;
      case kZeroPaddedHalf:
        w = reader.Get(16) << 16;
        break;
      case kTwoHalfSE8: {
        const uint32_t lo = SignExtend(reader.Get(8), 8) & 0xFFFFu;
        const uint32_t hi = SignExtend(reader.Get(8), 8) & 0xFFFFu;
        w = lo | (hi << 16);
        break;
      }
      case kRepeatedByte:
        w = reader.Get(8) * 0x01010101u;
        break;
      case kUncompressed:
        w = reader.Get(32);
        break;
    }
    if (reader.overrun()) {
      return false;
    }
    for (size_t k = 0; k < produced; ++k) {
      std::memcpy(dst.data() + (decoded + k) * 4, &w, 4);
    }
    decoded += produced;
  }

  // The bitstream must be consumed exactly: no unread whole bytes, and any
  // buffered padding bits must be zero (the writer only flushes zero fill).
  if (reader.bytes_consumed() != stream_len ||
      (reader.bits_buffered() > 0 && reader.buffered_value() != 0)) {
    return false;
  }
  if (tail > 0) {
    std::memcpy(dst.data() + static_cast<size_t>(word_count) * 4,
                src.data() + src.size() - tail, tail);
  }
  return true;
}

}  // namespace compcache
