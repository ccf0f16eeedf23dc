// Ring-buffer event tracer: a fixed-capacity record of the most recent
// fault / compress / evict / write-out events, timestamped with the virtual
// clock. Recording is a couple of stores into a preallocated ring — cheap
// enough to leave on for whole benchmark runs — and the buffer can be dumped
// as JSONL (one event object per line) for offline analysis.
//
// Events carry a PageKey (zeroed when not applicable) and two kind-specific
// operands `a` and `b` (documented per kind below). When the ring is full the
// oldest events are overwritten; `total_recorded()` minus `size()` says how
// many were lost.
#ifndef COMPCACHE_UTIL_TRACE_H_
#define COMPCACHE_UTIL_TRACE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/time_types.h"
#include "vm/page_key.h"

namespace compcache {

enum class TraceEventKind : uint8_t {
  // VM fault service; a = fault latency in virtual ns.
  kFaultZeroFill = 0,
  kFaultFromCcache,
  kFaultFromSwap,
  kFaultPrefetchHit,  // served from the decompress-ahead buffer
  // VM eviction dispositions; a/b unused except kEvictCompressed (a = compressed
  // size in bytes).
  kEvictCleanDrop,
  kEvictCompressed,
  kEvictRawSwap,
  kEvictStdWrite,
  // Compression cache; a = original size, b = compressed size.
  kCompressKept,
  kCompressRejected,
  kCcacheInsertClean,
  // a = payload bytes in the batch, b = number of entries.
  kCcacheWriteBatch,
  kCcacheEntryCleaned,
  kCcacheEntryDropped,
  kCcacheInvalidate,
  // Compressed backing store; a = pages in batch / bytes read.
  kSwapWriteBatch,
  kSwapReadPage,
  // Disk device; key unused, a = byte offset, b = length.
  kDiskRead,
  kDiskWrite,
  // Buffer cache; key = (file, block index) as a file key.
  kBufferMiss,
  kBufferWriteback,
  // Memory arbiter; key unused, a = consumer index, b = 1 when the consumer
  // refused and the arbiter fell through to another.
  kArbiterReclaim,
  // Fault injection and recovery. kDiskRetry: key unused, a = attempt number,
  // b = backoff charged in virtual ns. kDiskRetryExhausted: key unused,
  // a = attempts made. kFaultInjected: key unused, a = FaultSite ordinal,
  // b = the site's 1-based op ordinal. kChecksumMismatch: a = stored checksum,
  // b = computed checksum. kPageRecovered: the ccache copy was corrupt but the
  // backing-store copy served the fault. kPageLost: no valid copy remained;
  // the owning segment is aborted.
  kDiskRetry,
  kDiskRetryExhausted,
  kFaultInjected,
  kChecksumMismatch,
  kPageRecovered,
  kPageLost,
  // Power loss mid-write; key unused, a = first byte offset lost from the torn
  // request, b = bytes lost.
  kPowerFail,
  // Tier stack demotion; a = source tier index, b = destination tier index
  // (0 = fastest, last = the disk layout).
  kTierDemotion,
  kCount,
};

const char* TraceEventKindName(TraceEventKind kind);

struct TraceEvent {
  int64_t t_ns = 0;
  TraceEventKind kind = TraceEventKind::kCount;
  // Process the machine was executing when the event was recorded (0 = none /
  // kernel context). Stamped by the tracer from set_current_pid(), so every
  // subsystem's events get attribution without threading a pid through each
  // Record call site.
  uint32_t pid = 0;
  PageKey key{};
  uint64_t a = 0;
  uint64_t b = 0;
};

class EventTracer {
 public:
  explicit EventTracer(size_t capacity);

  void Record(TraceEventKind kind, SimTime t, PageKey key, uint64_t a = 0, uint64_t b = 0);
  // Events with no page identity (disk, arbiter).
  void Record(TraceEventKind kind, SimTime t, uint64_t a = 0, uint64_t b = 0) {
    Record(kind, t, PageKey{}, a, b);
  }

  // Sets the process id stamped onto subsequently recorded events (0 = none).
  void set_current_pid(uint32_t pid) { current_pid_ = pid; }

  size_t capacity() const { return capacity_; }
  // Events currently held (<= capacity).
  size_t size() const;
  // Events ever recorded, including overwritten ones.
  uint64_t total_recorded() const { return total_; }

  // Visits held events oldest-to-newest.
  void ForEach(const std::function<void(const TraceEvent&)>& fn) const;

  // One JSON object per line:
  //   {"t_ns":1234,"event":"fault_from_ccache","seg":0,"page":17,"a":56789,"b":0}
  std::string ToJsonl() const;
  // Writes ToJsonl() to `path`; returns false on I/O failure.
  bool DumpJsonl(const std::string& path) const;

  void Clear();

 private:
  std::vector<TraceEvent> ring_;
  size_t capacity_;
  uint64_t total_ = 0;  // next slot = total_ % capacity_
  uint32_t current_pid_ = 0;
};

}  // namespace compcache

#endif  // COMPCACHE_UTIL_TRACE_H_
