#include "util/trace.h"

#include <algorithm>
#include <cstdio>

#include "util/assert.h"
#include "util/json.h"

namespace compcache {

const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kFaultZeroFill:
      return "fault_zero_fill";
    case TraceEventKind::kFaultFromCcache:
      return "fault_from_ccache";
    case TraceEventKind::kFaultFromSwap:
      return "fault_from_swap";
    case TraceEventKind::kFaultPrefetchHit:
      return "fault_prefetch_hit";
    case TraceEventKind::kEvictCleanDrop:
      return "evict_clean_drop";
    case TraceEventKind::kEvictCompressed:
      return "evict_compressed";
    case TraceEventKind::kEvictRawSwap:
      return "evict_raw_swap";
    case TraceEventKind::kEvictStdWrite:
      return "evict_std_write";
    case TraceEventKind::kCompressKept:
      return "compress_kept";
    case TraceEventKind::kCompressRejected:
      return "compress_rejected";
    case TraceEventKind::kCcacheInsertClean:
      return "ccache_insert_clean";
    case TraceEventKind::kCcacheWriteBatch:
      return "ccache_write_batch";
    case TraceEventKind::kCcacheEntryCleaned:
      return "ccache_entry_cleaned";
    case TraceEventKind::kCcacheEntryDropped:
      return "ccache_entry_dropped";
    case TraceEventKind::kCcacheInvalidate:
      return "ccache_invalidate";
    case TraceEventKind::kSwapWriteBatch:
      return "swap_write_batch";
    case TraceEventKind::kSwapReadPage:
      return "swap_read_page";
    case TraceEventKind::kDiskRead:
      return "disk_read";
    case TraceEventKind::kDiskWrite:
      return "disk_write";
    case TraceEventKind::kBufferMiss:
      return "buffer_miss";
    case TraceEventKind::kBufferWriteback:
      return "buffer_writeback";
    case TraceEventKind::kArbiterReclaim:
      return "arbiter_reclaim";
    case TraceEventKind::kDiskRetry:
      return "disk_retry";
    case TraceEventKind::kDiskRetryExhausted:
      return "disk_retry_exhausted";
    case TraceEventKind::kFaultInjected:
      return "fault_injected";
    case TraceEventKind::kChecksumMismatch:
      return "checksum_mismatch";
    case TraceEventKind::kPageRecovered:
      return "page_recovered";
    case TraceEventKind::kPageLost:
      return "page_lost";
    case TraceEventKind::kPowerFail:
      return "power_fail";
    case TraceEventKind::kTierDemotion:
      return "tier_demotion";
    case TraceEventKind::kCount:
      break;
  }
  return "?";
}

EventTracer::EventTracer(size_t capacity) : capacity_(capacity) {
  CC_EXPECTS(capacity > 0);
  ring_.reserve(capacity);
}

void EventTracer::Record(TraceEventKind kind, SimTime t, PageKey key, uint64_t a, uint64_t b) {
  TraceEvent event;
  event.t_ns = t.nanos();
  event.kind = kind;
  event.pid = current_pid_;
  event.key = key;
  event.a = a;
  event.b = b;
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
  } else {
    ring_[static_cast<size_t>(total_ % capacity_)] = event;
  }
  ++total_;
}

size_t EventTracer::size() const { return ring_.size(); }

void EventTracer::ForEach(const std::function<void(const TraceEvent&)>& fn) const {
  if (ring_.size() < capacity_) {
    for (const TraceEvent& e : ring_) {
      fn(e);
    }
    return;
  }
  const size_t start = static_cast<size_t>(total_ % capacity_);  // oldest slot
  for (size_t i = 0; i < capacity_; ++i) {
    fn(ring_[(start + i) % capacity_]);
  }
}

std::string EventTracer::ToJsonl() const {
  std::string out;
  ForEach([&out](const TraceEvent& e) {
    JsonWriter w;
    w.BeginObject();
    w.Kv("t_ns", e.t_ns);
    w.Kv("event", TraceEventKindName(e.kind));
    if (e.pid != 0) {
      w.Kv("pid", static_cast<uint64_t>(e.pid));
    }
    if (e.key.valid()) {
      w.Kv("seg", static_cast<uint64_t>(e.key.segment));
      w.Kv("page", static_cast<uint64_t>(e.key.page));
    }
    w.Kv("a", e.a);
    w.Kv("b", e.b);
    w.EndObject();
    out += w.str();
    out += '\n';
  });
  return out;
}

bool EventTracer::DumpJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::string body = ToJsonl();
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

void EventTracer::Clear() {
  ring_.clear();
  total_ = 0;
}

}  // namespace compcache
