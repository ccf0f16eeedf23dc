// The VM system: segments, page tables, global LRU, fault service, eviction.
//
// Fault policy (paper section 4.1):
//   "To service a page fault for a page that is not already uncompressed and
//    resident in memory, the VM system checks to see whether the page is
//    compressed in memory or on the backing store. If it is on backing store, it
//    is first brought into memory and stored in the compression cache, then it is
//    decompressed and made accessible to the faulting process."
//
// Eviction policy: "LRU pages are compressed to make room for new pages"; pages
// that fail the 4:3 threshold are written to the backing store uncompressed. In
// the unmodified configuration (no compression cache attached) every dirty page
// takes that same uncompressed pageout, synchronously, to the fixed-offset
// layout — the paper's "two disk seeks for each fault, one to write a page out
// and another to retrieve the page faulted upon".
#ifndef COMPCACHE_VM_PAGER_H_
#define COMPCACHE_VM_PAGER_H_

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "ccache/compression_cache.h"
#include "sim/clock.h"
#include "sim/cost_model.h"
#include "swap/compressed_swap_backend.h"
#include "util/intrusive_lru.h"
#include "util/metrics.h"
#include "util/trace.h"
#include "vm/frame_source.h"
#include "vm/page_key.h"

namespace compcache {

class InvariantAuditor;
class PipelineEngine;

enum class PageState : uint8_t {
  kUntouched,   // never materialized; faults zero-fill
  kResident,    // uncompressed in a frame
  kCompressed,  // current copy lives in the compression cache
  kSwapped,     // current copy lives on the backing store
};

struct PageEntry {
  PageState state = PageState::kUntouched;
  FrameId frame;
  bool dirty = false;   // resident copy modified since the last consistent copy
  bool pinned = false;  // mid-fault; the evictor must skip it
  bool advise_pinned = false;  // application advisory: avoid evicting if possible
  bool has_ccache_copy = false;
  bool has_backing_copy = false;
  uint64_t age_ns = 0;
  PageKey key;  // back-reference for eviction
  LruLink lru_link;
};

class Segment {
 public:
  Segment(uint32_t id, size_t num_pages) : id_(id), pages_(num_pages) {
    for (size_t i = 0; i < num_pages; ++i) {
      pages_[i].key = PageKey{id, static_cast<uint32_t>(i)};
    }
  }

  uint32_t id() const { return id_; }
  size_t num_pages() const { return pages_.size(); }
  uint64_t size_bytes() const { return pages_.size() * kPageSize; }

  // An unrecoverable page loss poisons only the owning segment: the pager keeps
  // servicing it (lost pages read as zeros) but flags it so the application
  // layer can abort that computation instead of trusting silent garbage.
  bool aborted() const { return aborted_; }
  void MarkAborted() { aborted_ = true; }

  // Set by Pager::TeardownSegment once every resource (frames, compressed
  // copies, backing blocks) has been released. A torn-down segment must never
  // be accessed again.
  bool torn_down() const { return torn_down_; }
  void MarkTornDown() { torn_down_ = true; }

  // Process that created the segment (0 = kernel / no process context). Stamped
  // at CreateSegment from Pager::SetCurrentProcess; the scheduler's ownership
  // audit requires every touched page to belong to exactly one live process.
  uint32_t owner_pid() const { return owner_pid_; }
  void set_owner_pid(uint32_t pid) { owner_pid_ = pid; }

  PageEntry& page(uint32_t index) {
    CC_EXPECTS(index < pages_.size());
    return pages_[index];
  }
  const PageEntry& page(uint32_t index) const {
    CC_EXPECTS(index < pages_.size());
    return pages_[index];
  }

 private:
  uint32_t id_;
  std::vector<PageEntry> pages_;
  bool aborted_ = false;
  bool torn_down_ = false;
  uint32_t owner_pid_ = 0;
};

struct VmOptions {
  // Insert compressed pages that arrive "for free" in a swap block read into the
  // compression cache (the clustering benefit the paper describes).
  bool insert_coresidents = true;
};

struct VmStats {
  uint64_t accesses = 0;
  uint64_t faults = 0;
  uint64_t faults_zero_fill = 0;
  uint64_t faults_from_ccache = 0;   // served by in-memory decompression
  uint64_t faults_from_swap = 0;     // required backing-store I/O
  uint64_t faults_prefetch_hit = 0;  // served from the decompress-ahead buffer
  uint64_t coresidents_inserted = 0;
  uint64_t evictions = 0;
  uint64_t evictions_clean_drop = 0;  // frame dropped, copy already existed
  uint64_t evictions_compressed = 0;  // kept in the compression cache
  uint64_t evictions_raw_swap = 0;    // failed threshold, written uncompressed
  uint64_t evictions_std_write = 0;   // unmodified-system synchronous pageout
  uint64_t evictions_failed = 0;      // pageout write failed; page re-admitted
  uint64_t pages_recovered = 0;       // corrupt copy replaced from another copy
  uint64_t pages_lost = 0;            // no valid copy anywhere; reads as zeros
  uint64_t segments_aborted = 0;      // segments holding at least one lost page
  uint64_t segments_torn_down = 0;    // segments whose resources were released
};

class Pager : public CcacheEvents {
 public:
  Pager(Clock* clock, const CostModel* costs, FrameSource* frames, VmOptions options = {});

  // Wires the backing store, and the compression cache in front of it, once
  // before creating segments. `ccache` is null on the unmodified ("std")
  // machine.
  void Attach(CompressedSwapBackend* swap, CompressionCache* ccache);

  Segment* CreateSegment(size_t num_pages);
  Segment* GetSegment(uint32_t id);
  // Segment ids are dense: every id in [0, num_segments()) is valid for
  // GetSegment (torn-down segments included).
  size_t num_segments() const { return segments_.size(); }

  // Process context for attribution: segments created while a pid is current
  // are owned by that process. 0 clears the context (kernel / no process).
  void SetCurrentProcess(uint32_t pid) { current_pid_ = pid; }
  uint32_t current_process() const { return current_pid_; }

  // Releases every resource a segment holds: resident frames return to the
  // pool, compressed copies leave the ccache, and backing-store blocks return
  // to the backend's free structures. Page entries reset to kUntouched and the
  // segment is marked torn down (further Access aborts). This is how an
  // aborted segment's blocks get back to the free pool — before it existed,
  // they leaked until machine shutdown, which the auditor's orphan check now
  // makes a hard failure. No pages of the segment may be pinned (mid-fault).
  void TeardownSegment(Segment& segment);

  // Touches one page, faulting as needed, and returns its frame data. The span is
  // valid only until the next pager/file operation. `write` marks the page dirty
  // and invalidates now-stale compressed/backing copies.
  std::span<uint8_t> Access(Segment& segment, uint32_t page, bool write);

  // --- crash recovery (Machine::Recover) ---
  // Marks an untouched page as swapped out: its image survived the crash in the
  // backing store and the next access faults it back in normally.
  void RestoreSwappedPage(Segment& segment, uint32_t page);
  // Marks an untouched page as lost to the crash: it stays untouched (reads as
  // zeros on fault) and the owning segment takes the same abort ladder a lost
  // pageout does, so the application can tell recovery from silent garbage.
  void RestoreLostPage(Segment& segment, uint32_t page);

  // LRU advisory (paper section 3): the application hints that these pages should
  // be retained — the evictor prefers other victims. A hint, not a guarantee: if
  // nothing else is evictable, advised pages are evicted anyway.
  void Advise(Segment& segment, uint32_t first_page, uint32_t page_count, bool pin);

  // Called after every serviced fault (the machine hangs the compression-cache
  // cleaner here).
  void SetPostFaultHook(std::function<void()> hook) { post_fault_hook_ = std::move(hook); }

  // Wires the decompress-ahead engine (nullptr disables), which the fault path
  // consults before the ccache/swap ladder and feeds with the fault stream.
  void SetPipeline(PipelineEngine* pipeline) { pipeline_ = pipeline; }

  // Read-only page lookup for the prefetch engine: nullptr when the key does
  // not name a live page (segment out of range or torn down, page index out
  // of bounds).
  const PageEntry* PeekEntry(PageKey key) const;

  // --- memory arbitration interface ---
  uint64_t OldestAge() const;
  bool ReleaseOldest();

  // --- CcacheEvents (file-block keys are the buffer cache's and ignored) ---
  void OnEntryCleaned(PageKey key) override;
  void OnEntryDropped(PageKey key) override;
  void OnEntryLost(PageKey key) override;

  size_t resident_pages() const { return lru_.size(); }
  const VmStats& stats() const { return stats_; }

  // Invariants: the per-page-state flag rules, resident count == LRU size, and
  // two-way vm <-> backing-store coherence: every page claiming a backing copy
  // is in the backend, and every backend page is claimed (orphans are leaks).
  void RegisterAuditChecks(InvariantAuditor* auditor) const;

  // --- observability ---
  // Publishes every VmStats counter as a "vm.*" gauge reading the struct (so the
  // registry can never drift from the counters) and creates the "vm.fault_ns"
  // fault-service latency histogram.
  void BindMetrics(MetricRegistry* registry);
  // Records fault/evict events; pass nullptr to disable.
  void SetTracer(EventTracer* tracer) { tracer_ = tracer; }

  // Runs the checks RegisterAuditChecks publishes and aborts on the first
  // violation (test hook).
  void CheckInvariants() const;

 private:
  PageEntry& EntryFor(PageKey key);
  void ServiceFault(Segment& segment, PageEntry& entry, bool write);
  void DropStaleCopies(PageEntry& entry);
  // Evicts one resident page. Returns false when the required pageout write
  // failed — the page is re-admitted to the LRU and stays resident.
  bool EvictResident(PageEntry& entry);
  // Writes the page uncompressed to the backing store: the unmodified
  // machine's pageout, and the ccache machine's for pages failing the
  // threshold. On failure the page is re-admitted at MRU and false returned.
  bool PageOutRaw(PageEntry& entry, std::span<const uint8_t> frame_data);
  // Last rung of the degradation ladder: no valid copy of the page survives.
  // Zero-fills the frame, drops dead copies, and aborts the owning segment.
  void MarkPageLost(PageEntry& entry, std::span<uint8_t> frame_data);
  // Counts one lost page of `segment` and aborts the segment (once).
  void CountLostPage(Segment& segment);

  Clock* clock_;
  const CostModel* costs_;
  FrameSource* frames_;
  VmOptions options_;

  CompressedSwapBackend* swap_ = nullptr;
  CompressionCache* ccache_ = nullptr;  // null on the unmodified machine
  PipelineEngine* pipeline_ = nullptr;

  std::vector<std::unique_ptr<Segment>> segments_;
  LruList<PageEntry> lru_;  // resident pages, LRU first
  uint32_t current_pid_ = 0;
  std::function<void()> post_fault_hook_;
  int eviction_depth_ = 0;

  VmStats stats_;
  LatencyHistogram* fault_latency_ = nullptr;  // owned by the bound registry
  EventTracer* tracer_ = nullptr;
};

}  // namespace compcache

#endif  // COMPCACHE_VM_PAGER_H_
