// Pluggable page-compression interface.
//
// The paper (section 3, "Compression implementations") calls for allowing different
// compression algorithms for different data. Every codec in this library is
// self-contained (no external compression libraries) and uses a one-byte container
// header so that incompressible input can always be stored raw: Compress() never
// produces more than MaxCompressedSize(n) bytes and always round-trips.
#ifndef COMPCACHE_COMPRESS_CODEC_H_
#define COMPCACHE_COMPRESS_CODEC_H_

#include <cstdint>
#include <span>
#include <string_view>

#include "util/assert.h"

namespace compcache {

class Codec {
 public:
  virtual ~Codec() = default;

  virtual std::string_view name() const = 0;

  // Upper bound on Compress() output for an n-byte input.
  virtual size_t MaxCompressedSize(size_t n) const = 0;

  // Compresses src into dst. dst.size() must be >= MaxCompressedSize(src.size()).
  // Returns the number of bytes written (always >= 1 for non-empty input).
  virtual size_t Compress(std::span<const uint8_t> src, std::span<uint8_t> dst) = 0;

  // Decompresses src into dst. dst.size() must equal the original input size
  // exactly (the VM system always knows it: one page). Returns true and fills
  // dst on success; returns false on malformed input. Implementations bound
  // every read against src and every write against dst, so arbitrary corrupt
  // bytes are safe to feed in — required for latent-corruption recovery, where
  // a damaged image must be *detected*, not trusted. dst contents are
  // unspecified on failure.
  virtual bool TryDecompress(std::span<const uint8_t> src, std::span<uint8_t> dst) = 0;

  // Asserting wrapper for callers that hold an image known to be intact (e.g.
  // just produced by Compress). Returns dst.size().
  size_t Decompress(std::span<const uint8_t> src, std::span<uint8_t> dst) {
    const bool ok = TryDecompress(src, dst);
    CC_ASSERT(ok && "corrupt compressed stream");
    return dst.size();
  }
};

// Container flags shared by the codecs in this library.
inline constexpr uint8_t kContainerRaw = 0x00;        // payload is stored verbatim
inline constexpr uint8_t kContainerCompressed = 0x01;  // payload is codec bitstream

// Word-wise all-zero scan; the compression cache runs this on every evicted
// page before any codec work. Unaligned heads/tails are handled bytewise.
inline bool IsZeroPage(std::span<const uint8_t> page) {
  const uint8_t* p = page.data();
  size_t n = page.size();
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & (sizeof(uint64_t) - 1)) != 0) {
    if (*p++ != 0) {
      return false;
    }
    --n;
  }
  for (; n >= sizeof(uint64_t); n -= sizeof(uint64_t), p += sizeof(uint64_t)) {
    uint64_t w;
    __builtin_memcpy(&w, p, sizeof(w));
    if (w != 0) {
      return false;
    }
  }
  for (; n > 0; --n) {
    if (*p++ != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace compcache

#endif  // COMPCACHE_COMPRESS_CODEC_H_
