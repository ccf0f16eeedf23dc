// Physical memory: a fixed pool of 4 KB frames.
//
// Everything that consumes physical memory in the simulated machine — resident VM
// pages, compression-cache slots, and file-system buffer-cache blocks — draws
// frames from one pool, mirroring Sprite's design where "physical memory is traded
// dynamically between VM for application processes and the file system's buffer
// cache" (paper section 4), extended by the compression cache as a third consumer.
#ifndef COMPCACHE_VM_FRAME_POOL_H_
#define COMPCACHE_VM_FRAME_POOL_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "util/assert.h"
#include "util/units.h"

namespace compcache {

// Index of a physical frame within the pool.
struct FrameId {
  uint32_t value = UINT32_MAX;

  bool valid() const { return value != UINT32_MAX; }
  friend bool operator==(FrameId, FrameId) = default;
};

class FramePool {
 public:
  explicit FramePool(size_t num_frames)
      : storage_(num_frames * kPageSize), is_free_(num_frames, true) {
    CC_EXPECTS(num_frames > 0);
    free_list_.reserve(num_frames);
    for (size_t i = num_frames; i > 0; --i) {
      free_list_.push_back(FrameId{static_cast<uint32_t>(i - 1)});
    }
    total_ = num_frames;
  }

  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  size_t total_frames() const { return total_; }
  size_t free_frames() const { return free_list_.size(); }
  size_t used_frames() const { return total_ - free_list_.size(); }

  // Returns a frame, or nullopt when memory is exhausted (the caller then asks
  // the memory arbiter to reclaim and retries). The frame keeps whatever its
  // last owner left in it: the caller writes every byte before reading it.
  std::optional<FrameId> TryAllocate() {
    if (free_list_.empty()) {
      return std::nullopt;
    }
    const FrameId id = free_list_.back();
    free_list_.pop_back();
    CC_ASSERT(is_free_[id.value]);
    is_free_[id.value] = false;
    return id;
  }

  void Free(FrameId id) {
    CC_EXPECTS(id.valid());
    CC_EXPECTS(id.value < total_);
    CC_EXPECTS(!is_free_[id.value]);  // catches double-free
    is_free_[id.value] = true;
    free_list_.push_back(id);
    CC_ENSURES(free_list_.size() <= total_);
  }

  std::span<uint8_t> Data(FrameId id) {
    CC_EXPECTS(id.valid() && id.value < total_);
    return std::span<uint8_t>(storage_.data() + static_cast<size_t>(id.value) * kPageSize,
                              kPageSize);
  }
  std::span<const uint8_t> Data(FrameId id) const {
    CC_EXPECTS(id.valid() && id.value < total_);
    return std::span<const uint8_t>(storage_.data() + static_cast<size_t>(id.value) * kPageSize,
                                    kPageSize);
  }

 private:
  std::vector<uint8_t> storage_;
  std::vector<FrameId> free_list_;
  std::vector<bool> is_free_;
  size_t total_ = 0;
};

}  // namespace compcache

#endif  // COMPCACHE_VM_FRAME_POOL_H_
