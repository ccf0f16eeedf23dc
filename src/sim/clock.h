// Virtual clock. All simulated activity (application CPU work, compression, page
// copies, disk transfers) advances this clock; wall-clock time never enters the
// simulation, which keeps every experiment deterministic and host-independent.
//
// Advances are tagged with a TimeCategory so that any run can be decomposed into
// where its virtual time went (application CPU vs compression vs I/O) — the
// quantities the paper's trade-off analysis is about.
#ifndef COMPCACHE_SIM_CLOCK_H_
#define COMPCACHE_SIM_CLOCK_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <optional>

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

  // --- background-I/O window (write-behind) ---
  struct BackgroundIo {
    SimTime complete_at;      // when the last of them finishes; never before the close
    SimDuration device_time;  // service time they added to the device queues
  };

  // Opens a window for its lifetime. Requests issued inside it move bytes and
  // draw fault ordinals as usual, but each device on this clock queues them on
  // its own background timeline and reports them through ReportBackgroundIo
  // instead of advancing the clock. Close() ends the window; the destructor
  // ends one an exception (PowerFailure mid-batch) left open. Windows do not
  // nest.
  class BackgroundWindow {
   public:
    explicit BackgroundWindow(Clock* clock) : clock_(clock) {
      CC_EXPECTS(!clock_->background_.has_value());
      clock_->background_.emplace();
    }
    ~BackgroundWindow() { clock_->background_.reset(); }
    BackgroundWindow(const BackgroundWindow&) = delete;
    BackgroundWindow& operator=(const BackgroundWindow&) = delete;

    // Ends the window; an empty one completes now.
    BackgroundIo Close() {
      BackgroundIo io = clock_->background_.value();
      clock_->background_.reset();
      io.complete_at = std::max(io.complete_at, clock_->Now());
      return io;
    }

   private:
    Clock* clock_;
  };

  bool in_background_window() const { return background_.has_value(); }

  // A device reports one request of the open window: it ends at `end` on the
  // device's background timeline and kept the device busy for `busy`.
  void ReportBackgroundIo(SimTime end, SimDuration busy) {
    CC_EXPECTS(background_.has_value());
    background_->complete_at = std::max(background_->complete_at, end);
    background_->device_time += busy;
  }

 private:
  SimTime now_;
  std::array<SimDuration, static_cast<size_t>(TimeCategory::kCount)> by_category_{};
  std::optional<BackgroundIo> background_;  // set while a window is open
};

}  // namespace compcache

#endif  // COMPCACHE_SIM_CLOCK_H_
