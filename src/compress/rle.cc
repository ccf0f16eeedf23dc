#include "compress/rle.h"

#include <cstring>

#include "util/assert.h"

namespace compcache {

// Stream grammar after the container flag, PackBits-style:
//   control c in [0, 127]   -> c+1 literal bytes follow
//   control c in [128, 255] -> one byte follows, repeated (c - 125) times (3..130)
namespace {
constexpr size_t kMinRun = 3;
constexpr size_t kMaxRun = 130;
constexpr size_t kMaxLiteral = 128;
}  // namespace

size_t RleCodec::MaxCompressedSize(size_t n) const {
  // Worst case: all literals, one control byte per 128 literals.
  return 1 + n + (n + kMaxLiteral - 1) / kMaxLiteral;
}

size_t RleCodec::Compress(std::span<const uint8_t> src, std::span<uint8_t> dst) {
  const size_t n = src.size();
  CC_EXPECTS(dst.size() >= MaxCompressedSize(n));
  if (n == 0) {
    dst[0] = kContainerRaw;
    return 1;
  }

  uint8_t* out = dst.data() + 1;
  const uint8_t* in = src.data();
  size_t pos = 0;
  size_t literal_start = 0;

  auto flush_literals = [&](size_t end) {
    size_t start = literal_start;
    while (start < end) {
      const size_t len = std::min(end - start, kMaxLiteral);
      *out++ = static_cast<uint8_t>(len - 1);
      std::memcpy(out, in + start, len);
      out += len;
      start += len;
    }
    literal_start = end;
  };

  while (pos < n) {
    size_t run = 1;
    while (pos + run < n && run < kMaxRun && in[pos + run] == in[pos]) {
      ++run;
    }
    if (run >= kMinRun) {
      flush_literals(pos);
      *out++ = static_cast<uint8_t>(run + 125);
      *out++ = in[pos];
      pos += run;
      literal_start = pos;
    } else {
      pos += run;
    }
  }
  flush_literals(n);

  const size_t compressed_size = static_cast<size_t>(out - dst.data());
  if (compressed_size >= n + 1) {
    dst[0] = kContainerRaw;
    std::memcpy(dst.data() + 1, in, n);
    return n + 1;
  }
  dst[0] = kContainerCompressed;
  return compressed_size;
}

bool RleCodec::TryDecompress(std::span<const uint8_t> src, std::span<uint8_t> dst) {
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

  uint8_t* out = dst.data();
  uint8_t* const out_end = out + n;
  while (out < out_end) {
    if (in >= in_end) {
      return false;  // truncated control byte
    }
    const uint8_t c = *in++;
    if (c < kMaxLiteral) {
      const size_t len = static_cast<size_t>(c) + 1;
      if (in + len > in_end || out + len > out_end) {
        return false;
      }
      std::memcpy(out, in, len);
      in += len;
      out += len;
    } else {
      const size_t len = static_cast<size_t>(c) - 125;
      if (in >= in_end || out + len > out_end) {
        return false;
      }
      std::memset(out, *in++, len);
      out += len;
    }
  }
  return in == in_end;  // trailing garbage is also corruption
}

}  // namespace compcache
