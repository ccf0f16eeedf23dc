// BDI — base-delta-immediate coding (after Pekhimenko et al., PACT 2012): a
// fixed-factor codec built on the observation that words within a small block
// usually lie within a narrow value range, so each 64-byte chunk can be stored
// as one 64-bit base plus per-word deltas of 1, 2, or 4 bytes. The "immediate"
// half of the scheme is a second, implicit zero base: every word encodes as a
// small delta from either the chunk base or from zero, selected by one mask bit
// per word — which is what lets a chunk mix pointers (near the base) with small
// integers and zeros (near nothing).
//
// Per 64-byte chunk, a one-byte tag selects the encoding:
//   zeros (no payload) | repeated 64-bit word (8 B) | base + 1-byte deltas
//   (17 B) | base + 2-byte deltas (25 B) | base + 4-byte deltas (41 B) |
//   raw chunk (64 B).
// Output sizes are fixed per class — the bounded-size property hardware
// frame-packing schemes exploit. Trailing bytes that do not fill a chunk are
// stored raw, and the whole image falls back to the raw container when coding
// does not win.
#ifndef COMPCACHE_COMPRESS_BDI_H_
#define COMPCACHE_COMPRESS_BDI_H_

#include <cstdint>
#include <vector>

#include "compress/codec.h"

namespace compcache {

class BdiCodec : public Codec {
 public:
  std::string_view name() const override { return "bdi"; }
  size_t MaxCompressedSize(size_t n) const override;
  size_t Compress(std::span<const uint8_t> src, std::span<uint8_t> dst) override;
  bool TryDecompress(std::span<const uint8_t> src, std::span<uint8_t> dst) override;

 private:
  // Per-call scratch (tags and chunk payloads), kept as members so steady-state
  // compression does no heap allocation once page-sized capacity sticks.
  std::vector<uint8_t> tags_;
  std::vector<uint8_t> payload_;
};

}  // namespace compcache

#endif  // COMPCACHE_COMPRESS_BDI_H_
