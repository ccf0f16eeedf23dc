// Decompress-ahead engine: the prefetching half of the async I/O pipeline.
//
// The engine watches the fault stream through the Pager's calls into it,
// feeds it to a per-segment stride detector, and, along a confirmed stride,
// copies the CRC-verified compressed images of the next ccache entries into a
// small buffer of arbiter-charged frames, one frame per entry; a stream with
// no confirmed stride issues no guess (guesses off a stride rarely pay on Zipf
// or service traffic, and each costs a buffer frame and a ring copy). The
// stride state is the engine's own, one stream per segment, read through
// ConfirmedStride(). The buffer is one vector in issue order, so the oldest
// entry is its front. The codec runs only for the demand fault that consumes
// a buffered image: the hit decodes it straight into the faulting frame, with
// no ring read and no disk, and the many guesses that are never consumed are
// never decoded. Swapped-out pages are never read speculatively — on a
// seek-dominated disk a separate single-page read costs more than the fault
// it might save. Instead, fault batching widens the demand swap read itself
// (the clustered layout's readahead_blocks), whose coresidents land in the
// ccache and become decompress-ahead targets here.
//
// Speculative work is free of the app clock but not free of time: each issue
// is charged the modelled decompression on a background timeline (serialized
// behind the previous speculation), and a demand hit that arrives before its
// entry is ready waits out the remainder, then pays a page copy. Where the
// host runs the codec does not enter virtual time. Speculation never perturbs
// outcomes: no injector ordinals are drawn on the ccache path, and a corrupt
// source page is simply not buffered — the demand fault rediscovers the
// problem through the real ladder.
//
// Buffer frames are the memory arbiter's fourth consumer ("prefetch"), biased
// at parity with resident VM pages: a fresh speculation is a page expected to
// be referenced next and should not be the instant victim, but one that has
// aged past the oldest resident page is a stale guess and goes first.
#ifndef COMPCACHE_VM_PIPELINE_H_
#define COMPCACHE_VM_PIPELINE_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "ccache/compression_cache.h"
#include "sim/clock.h"
#include "sim/cost_model.h"
#include "util/audit.h"
#include "util/metrics.h"
#include "vm/frame_source.h"
#include "vm/page_key.h"

namespace compcache {

class Pager;

// Knobs for the whole pipeline (write-behind + decompress-ahead), carried in
// MachineConfig. Pipelining requires the compression-cache configuration.
struct PipelineOptions {
  bool enabled = false;
  // Outstanding write-behind batches, counting the one being submitted;
  // 1 degenerates to the synchronous machine.
  uint32_t write_behind_depth = 1;
  // Decompress-ahead prefetcher on/off (off: the engine only observes faults).
  bool prefetch = false;
  // Frames the prefetch buffer may hold (arbiter-charged).
  uint32_t prefetch_buffer_pages = 8;
  // Predictions issued per serviced fault.
  uint32_t prefetch_per_fault = 1;
  // Fault batching: widen each demand swap read by up to this many adjacent
  // file blocks (one disk operation — the seek is already paid), and
  // decompress-ahead the coresident neighbors it returns. 0 disables.
  uint32_t fault_batch_window = 0;

  bool operator==(const PipelineOptions&) const = default;
};

struct PrefetchStats {
  uint64_t issued = 0;   // speculative pages materialized into the buffer
  uint64_t hits = 0;     // demand faults served from the buffer
  uint64_t misses = 0;   // buffered pages discarded unconsumed
  uint64_t batched = 0;  // issues that came from fault batching (subset of issued)
  SimDuration wait_ready_time;  // demand hits waiting on unfinished speculation
  SimDuration background_time;  // speculative decompress/copy time (off-clock)
};

class PipelineEngine {
 public:
  // `pager` is read for page states only; the pager calls into the engine.
  PipelineEngine(Clock* clock, const CostModel* costs, FrameSource* frames,
                 CompressionCache* ccache, const Pager* pager, const PipelineOptions& options);
  ~PipelineEngine();

  PipelineEngine(const PipelineEngine&) = delete;
  PipelineEngine& operator=(const PipelineEngine&) = delete;

  // --- the pager's calls ---
  // If `key` sits in the prefetch buffer, fills `out` with its bytes (charging
  // copy time, plus any wait for the speculative work to finish on the
  // background timeline), consumes the entry, and returns true. Returns false
  // on a buffer miss, or when the buffered copy turns out unusable (the entry
  // is discarded and `out` holds no page).
  bool TryFill(PageKey key, std::span<uint8_t> out);
  // Observes a serviced fault (the stride detector's input stream) and issues
  // speculative work. Called after the fault completes; `from_swap` says a
  // demand swap read serviced it, so the engine can batch the adjacent blocks
  // behind it.
  void OnFault(PageKey key, bool from_swap);
  // The page's compressed copy was invalidated (page dirtied, lost, or its
  // segment torn down); any buffered speculative image is stale.
  void Invalidate(PageKey key);

  // --- memory arbitration interface (consumer "prefetch") ---
  uint64_t OldestAge() const;
  bool ReleaseOldest();

  // Discards every buffered entry as a miss (benches call this, via
  // Machine::DrainPipeline, before taking a snapshot so that
  // issued == hits + misses holds over the published counters).
  void Flush();

  size_t buffered_frames() const { return buffer_.size(); }
  bool buffered(PageKey key) const { return Find(key) != buffer_.end(); }
  const PrefetchStats& stats() const { return stats_; }

  // The confirmed stride of `segment`'s fault stream — the page delta its last
  // three faults repeated — or 0 when no stream is confirmed. Its sign is the
  // walk's direction. Every fault feeds the stream, prefetch on or off.
  int64_t ConfirmedStride(uint32_t segment) const {
    const auto it = streams_.find(segment);
    return it != streams_.end() && it->second.confirmed ? it->second.delta : 0;
  }

  // Publishes "prefetch.*" gauges.
  void BindMetrics(MetricRegistry* registry);
  // Registers buffer-conservation checks under subsystem "prefetch".
  void RegisterAuditChecks(InvariantAuditor* auditor);

 private:
  // Per-segment stride stream: last fault page, last delta, confirmation.
  struct Stream {
    uint32_t last_page = 0;
    int64_t delta = 0;
    bool has_last = false;
    bool confirmed = false;
  };

  struct Entry {
    PageKey key;
    FrameId frame;
    uint32_t image_size = 0;  // compressed bytes at the frame's head; 0: zero page
    SimTime ready_at;         // speculation finishes on the background timeline
    uint64_t age_ns = 0;      // issue time, for the arbiter
  };

  // Feeds one fault into its segment's stream: two equal consecutive nonzero
  // deltas confirm a stride, any other delta drops the confirmation.
  void RecordFault(PageKey key);
  std::vector<Entry>::const_iterator Find(PageKey key) const;
  // Issues one speculative page if it is a sensible target; returns true when
  // an entry entered the buffer. `batched` marks fault-batching issues.
  bool IssueOne(PageKey key, bool batched);
  // Fault batching: decompress ahead the neighbors the widened swap read just
  // deposited in the ccache, skipping the trailing side of a directional walk.
  void IssueNeighbors(PageKey key);
  // Discards `key`'s entry (if any), freeing its frame. Counts a miss when
  // `count_miss`.
  void Drop(PageKey key, bool count_miss);
  // Removes the oldest entry (miss) to make room.
  void EvictOldest();

  Clock* clock_;
  const CostModel* costs_;
  FrameSource* frames_;
  CompressionCache* ccache_;
  const Pager* pager_;
  PipelineOptions options_;

  std::unordered_map<uint32_t, Stream> streams_;
  // Issue order, oldest first; at most prefetch_buffer_pages entries.
  std::vector<Entry> buffer_;
  // Background timeline: speculative decompression is serialized on a single
  // virtual "spare cycles" track that never runs ahead of the app clock's past.
  SimTime background_busy_until_;

  PrefetchStats stats_;
};

}  // namespace compcache

#endif  // COMPCACHE_VM_PIPELINE_H_
