// Identity codec: stores data verbatim. Used to run the "unmodified system"
// configurations through the same code paths and as a control in tests.
#ifndef COMPCACHE_COMPRESS_STORE_H_
#define COMPCACHE_COMPRESS_STORE_H_

#include <cstring>

#include "compress/codec.h"
#include "util/assert.h"

namespace compcache {

class StoreCodec : public Codec {
 public:
  std::string_view name() const override { return "store"; }
  size_t MaxCompressedSize(size_t n) const override { return n + 1; }

  size_t Compress(std::span<const uint8_t> src, std::span<uint8_t> dst) override {
    CC_EXPECTS(dst.size() >= src.size() + 1);
    dst[0] = kContainerRaw;
    if (!src.empty()) {  // memcpy from an empty span's null data() is UB
      std::memcpy(dst.data() + 1, src.data(), src.size());
    }
    return src.size() + 1;
  }

  bool TryDecompress(std::span<const uint8_t> src, std::span<uint8_t> dst) override {
    if (src.empty() || src[0] != kContainerRaw || src.size() != dst.size() + 1) {
      return false;
    }
    if (!dst.empty()) {  // memcpy into an empty span's null data() is UB
      std::memcpy(dst.data(), src.data() + 1, dst.size());
    }
    return true;
  }
};

}  // namespace compcache

#endif  // COMPCACHE_COMPRESS_STORE_H_
