// Frame allocation seen by memory consumers (VM, compression cache, buffer cache).
//
// A consumer never sees allocation failure: when the pool is empty, the
// implementation (core::Machine) invokes the memory arbiter, which reclaims the
// globally oldest page among the three consumers (with the paper's biases) and
// retries. That is exactly Sprite's allocate-by-comparing-ages discipline.
//
// A frame comes back holding whatever its last owner left in it. Every consumer
// writes each byte it will read: a fault fills the whole frame by decoding,
// copying or (for a zero-fill fault) zeroing it, ring appends and prefetch
// images write the bytes they later read back, and the buffer cache fills a
// block from the ccache or disk unless the write that caused the miss covers it.
#ifndef COMPCACHE_VM_FRAME_SOURCE_H_
#define COMPCACHE_VM_FRAME_SOURCE_H_

#include <optional>
#include <span>

#include "vm/frame_pool.h"

namespace compcache {

class FrameSource {
 public:
  virtual ~FrameSource() = default;

  // Returns a frame, reclaiming from other consumers if necessary. Aborts only
  // if the machine is genuinely wedged (nothing reclaimable anywhere).
  virtual FrameId AllocateFrame() = 0;

  // Returns a frame only if one is free right now — never reclaims.
  // Speculative consumers (the decompress-ahead buffer) use this so that
  // betting on a prediction can only spend idle memory, not steal live pages
  // from the demand-driven consumers.
  virtual std::optional<FrameId> TryAllocateFrame() = 0;

  virtual void FreeFrame(FrameId id) = 0;

  virtual std::span<uint8_t> FrameData(FrameId id) = 0;
};

}  // namespace compcache

#endif  // COMPCACHE_VM_FRAME_SOURCE_H_
