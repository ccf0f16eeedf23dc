// Virtual clock. All simulated activity (application CPU work, compression, page
// copies, disk transfers) advances this clock; wall-clock time never enters the
// simulation, which keeps every experiment deterministic and host-independent.
//
// Advances are tagged with a TimeCategory so that any run can be decomposed into
// where its virtual time went (application CPU vs compression vs I/O) — the
// quantities the paper's trade-off analysis is about.
#ifndef COMPCACHE_SIM_CLOCK_H_
#define COMPCACHE_SIM_CLOCK_H_

#include <array>
#include <cstddef>

#include "util/assert.h"
#include "util/time_types.h"

namespace compcache {

enum class TimeCategory : uint8_t {
  kCpu = 0,         // application computation and kernel bookkeeping
  kCompression,     // codec time compressing pages
  kDecompression,   // codec time decompressing pages
  kCopy,            // page-sized memory copies (staging, scatter/gather)
  kIo,              // backing-store operations (seek + rotation + transfer)
  kCount,
};

inline const char* TimeCategoryName(TimeCategory c) {
  switch (c) {
    case TimeCategory::kCpu:
      return "cpu";
    case TimeCategory::kCompression:
      return "compress";
    case TimeCategory::kDecompression:
      return "decompress";
    case TimeCategory::kCopy:
      return "copy";
    case TimeCategory::kIo:
      return "io";
    case TimeCategory::kCount:
      break;
  }
  return "?";
}

class Clock {
 public:
  SimTime Now() const { return now_; }

  void Advance(SimDuration d, TimeCategory category = TimeCategory::kCpu) {
    CC_EXPECTS(d.nanos() >= 0);
    now_ = now_ + d;
    by_category_[static_cast<size_t>(category)] += d;
  }

  SimDuration TimeIn(TimeCategory category) const {
    return by_category_[static_cast<size_t>(category)];
  }

 private:
  SimTime now_;
  std::array<SimDuration, static_cast<size_t>(TimeCategory::kCount)> by_category_{};
};

}  // namespace compcache

#endif  // COMPCACHE_SIM_CLOCK_H_
