#include "compress/adaptive.h"

#include <algorithm>
#include <cstring>

#include "util/assert.h"

namespace compcache {
namespace {

constexpr size_t kProbeBytes = 256;

}  // namespace

const char* AdaptiveCodec::PickName(Pick pick) {
  switch (pick) {
    case Pick::kStore:
      return "store";
    case Pick::kFpc:
      return "fpc";
    case Pick::kLzrw1:
      return "lzrw1";
  }
  return "?";
}

size_t AdaptiveCodec::MaxCompressedSize(size_t n) const {
  // Two wrapper bytes over the largest member bound; the raw fallback keeps
  // the emitted size at n + 1 or less regardless.
  size_t worst = n + 1;
  worst = std::max(worst, fpc_.MaxCompressedSize(n));
  worst = std::max(worst, lzrw1_.MaxCompressedSize(n));
  return worst + 2;
}

AdaptiveCodec::Pick AdaptiveCodec::Probe(std::span<const uint8_t> src) const {
  const size_t probe = std::min(src.size(), kProbeBytes);
  const size_t words32 = probe / 4;
  if (words32 < 4) {
    return Pick::kStore;  // too small for the probe
  }

  size_t small_words = 0;  // zero or within a sign-extended 16-bit immediate
  for (size_t i = 0; i < words32; ++i) {
    uint32_t w;
    std::memcpy(&w, src.data() + i * 4, 4);
    const int32_t sw = static_cast<int32_t>(w);
    if (sw >= INT16_MIN && sw <= INT16_MAX) {
      ++small_words;
    }
  }
  if (small_words * 4 >= words32 * 3) {
    return Pick::kFpc;
  }
  size_t printable = 0;
  for (size_t i = 0; i < probe; ++i) {
    const uint8_t b = src[i];
    printable += (b >= 0x20 && b < 0x7F) || b == '\n' || b == '\t';
  }
  if (printable * 100 >= probe * 55) {
    return Pick::kLzrw1;
  }
  return Pick::kStore;
}

size_t AdaptiveCodec::Compress(std::span<const uint8_t> src, std::span<uint8_t> dst) {
  const size_t n = src.size();
  CC_EXPECTS(dst.size() >= MaxCompressedSize(n));

  const Pick pick = Probe(src);
  ++picks_[static_cast<size_t>(pick)];
  if (pick != Pick::kStore) {
    const uint8_t id = pick == Pick::kFpc ? kIdFpc : kIdLzrw1;
    Codec* member = MemberFor(id);
    sub_.resize(member->MaxCompressedSize(n));
    const size_t sub_size = member->Compress(src, sub_);
    if (2 + sub_size < n + 1) {
      dst[0] = kContainerAdaptive;
      dst[1] = id;
      std::memcpy(dst.data() + 2, sub_.data(), sub_size);
      return 2 + sub_size;
    }
  }
  dst[0] = kContainerRaw;
  if (n > 0) {
    std::memcpy(dst.data() + 1, src.data(), n);
  }
  return n + 1;
}

Codec* AdaptiveCodec::MemberFor(uint8_t id) {
  switch (id) {
    case kIdFpc:
      return &fpc_;
    case kIdLzrw1:
      return &lzrw1_;
    default:
      return nullptr;
  }
}

bool AdaptiveCodec::TryDecompress(std::span<const uint8_t> src, std::span<uint8_t> dst) {
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
  if (src[0] != kContainerAdaptive || src.size() < 3) {
    return false;
  }
  Codec* member = MemberFor(src[1]);
  if (member == nullptr) {
    return false;
  }
  return member->TryDecompress(src.subspan(2), dst);
}

}  // namespace compcache
