// Per-page adaptive codec selection: a cheap content probe over the first few
// hundred bytes of the page picks the member codec most likely to win — FPC
// for small-integer data, LZRW1 for text, raw store for high-entropy content.
// The probe reads a prefix only, so selection cost stays far below one full
// encode; the bet is the paper's: page contents are homogeneous enough that a
// prefix predicts the page. All-zero pages never reach a codec in the machine:
// the compression cache's zero-page fast path catches them first.
//
// Wire format: fallbacks emit the bare raw container (shared with every other
// codec); a compressed pick emits [kContainerAdaptive][member id][member's own
// image], so decode is a dispatch on one byte. Pick counts are exposed for the
// ablation benches.
#ifndef COMPCACHE_COMPRESS_ADAPTIVE_H_
#define COMPCACHE_COMPRESS_ADAPTIVE_H_

#include <array>
#include <cstdint>
#include <vector>

#include "compress/codec.h"
#include "compress/fpc.h"
#include "compress/lzrw1.h"

namespace compcache {

// Container byte for the adaptive wrapper; the fixed codecs all reject it.
inline constexpr uint8_t kContainerAdaptive = 0x03;

class AdaptiveCodec : public Codec {
 public:
  // Outcomes of the probe, indexing pick_counts(). The store outcome emits
  // the bare raw container rather than the 0x03 wrapper.
  enum class Pick : uint8_t { kStore = 0, kFpc, kLzrw1 };
  static constexpr size_t kNumPicks = 3;
  static const char* PickName(Pick pick);

  explicit AdaptiveCodec(unsigned lzrw_hash_bits = 12) : lzrw1_(lzrw_hash_bits) {}

  std::string_view name() const override { return "adaptive"; }
  size_t MaxCompressedSize(size_t n) const override;
  size_t Compress(std::span<const uint8_t> src, std::span<uint8_t> dst) override;
  bool TryDecompress(std::span<const uint8_t> src, std::span<uint8_t> dst) override;

  // How often each member was chosen by the probe (compress-side; counts the
  // probe's decision even when the member's output lost to the raw fallback).
  const std::array<uint64_t, kNumPicks>& pick_counts() const { return picks_; }

 private:
  // Member ids on the wire (after the kContainerAdaptive byte). Ids 1 and 3
  // are unassigned; an image carrying one fails closed.
  static constexpr uint8_t kIdFpc = 2;
  static constexpr uint8_t kIdLzrw1 = 4;

  Pick Probe(std::span<const uint8_t> src) const;
  Codec* MemberFor(uint8_t id);

  FpcCodec fpc_;
  Lzrw1 lzrw1_;
  std::vector<uint8_t> sub_;  // member scratch for the chosen codec's image
  std::array<uint64_t, kNumPicks> picks_{};
};

}  // namespace compcache

#endif  // COMPCACHE_COMPRESS_ADAPTIVE_H_
