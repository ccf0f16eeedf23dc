// The compression cache (paper section 4): a dynamically sized circular buffer of
// physical pages holding compressed VM pages — the new level of the memory
// hierarchy between uncompressed pages and the backing store.
//
// Faithful structural points (paper section 4.2, Figure 2):
//   * memory is "a variable-sized circular buffer": physical frames are mapped in
//     at the tail and normally reclaimed from the head (the oldest end);
//   * pages are "compressed directly into the first unused region within the
//     compression cache, following the last page that had been added";
//   * "before each page there is a small header" — we reserve the paper's 36 bytes
//     per compressed page in the ring layout; its first word holds the payload's
//     CRC-32C, verified on every fault-in;
//   * entries are clean or dirty, and a mapped slot holding no live entry bytes
//     is free memory (FreeOneDeadSlot); a cleaner "writes out the oldest
//     dirty data ... to keep a pool of physical pages clean and ready for
//     reclamation", at a rate that is "a function of the number of completely free
//     pages in the system, the number of clean pages that are already reclaimable,
//     and the size of the compression cache";
//   * a compressed page brought in from backing store is kept in the cache clean,
//     since "the compressed copy in memory can be freed at any time, since there
//     is already a copy on backing store".
#ifndef COMPCACHE_CCACHE_COMPRESSION_CACHE_H_
#define COMPCACHE_CCACHE_COMPRESSION_CACHE_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "compress/codec.h"
#include "compress/threshold.h"
#include "sim/clock.h"
#include "sim/cost_model.h"
#include "swap/compressed_swap_backend.h"
#include "util/arena.h"
#include "util/fault.h"
#include "util/metrics.h"
#include "util/trace.h"
#include "vm/frame_source.h"
#include "vm/page_key.h"

namespace compcache {

class InvariantAuditor;

// Zero-page marker: the one-byte backing-store image of an all-zero page's
// payload-free entry. The cache recognizes it before any codec runs; no codec
// reads or writes it (a codec image of a page is never one byte long).
inline constexpr uint8_t kContainerZeroPage = 0x02;

inline bool IsZeroPageMarker(std::span<const uint8_t> image) {
  return image.size() == 1 && image[0] == kContainerZeroPage;
}

// State transitions the cache reports to the VM system so that page-table state
// stays coherent with the cache's own bookkeeping.
class CcacheEvents {
 public:
  virtual ~CcacheEvents() = default;

  // A dirty compressed copy of `key` was written to the backing store.
  virtual void OnEntryCleaned(PageKey key) = 0;

  // The compressed copy of `key` left the cache. Guaranteed: either the page is
  // resident or a valid copy exists on the backing store.
  virtual void OnEntryDropped(PageKey key) = 0;

  // The dirty compressed copy of `key` could not reach the backing store (write
  // retries exhausted) and its frame had to be reclaimed anyway. No valid copy
  // exists anywhere unless the page is also resident. The VM layer decides what
  // dies (the owning segment, not the machine).
  virtual void OnEntryLost(PageKey key) = 0;
};

// Paper section 5.2/6: "It should be possible to disable compression completely
// when poor compression is obtained." When enabled, the cache tracks the recent
// threshold rejection rate; once it exceeds `disable_at_reject_rate` over a
// window, compression attempts are skipped (no wasted effort), with periodic
// probes so a change in workload re-enables it.
struct AdaptiveCompressionOptions {
  bool enabled = false;  // the paper's measured system did not have this
  uint32_t window = 64;
  double disable_at_reject_rate = 0.9;
  uint32_t probe_interval = 32;

  bool operator==(const AdaptiveCompressionOptions&) const = default;
};

struct CcacheOptions {
  // Boot-time maximum size in frames ("determined at boot time based on the
  // maximum possible size of the cache").
  size_t max_slots = 4096;

  AdaptiveCompressionOptions adaptive;

  // Keep-compressed threshold, paper default 4:3.
  CompressionThreshold threshold{4, 3};

  // Clustered write-out batch size (payload bytes), paper default 32 KB.
  uint32_t write_batch_bytes = kSwapWriteBatch;

  // Cleaner rate policy: write a batch when the machine's free-frame pool is below
  // `pool_free_target` frames and fewer than CompressionCache::CleanTarget()
  // frames at the head of the ring are clean/reclaimable.
  size_t pool_free_target = 16;
};

struct CcacheStats {
  uint64_t pages_compressed = 0;    // CompressAndInsert calls
  uint64_t pages_kept = 0;          // met the threshold
  uint64_t pages_rejected = 0;      // failed the threshold (wasted compression)
  uint64_t fault_hits = 0;          // faults satisfied by in-memory decompression
  uint64_t inserted_from_swap = 0;  // clean insertions of swapped compressed pages
  uint64_t entries_cleaned = 0;
  uint64_t entries_dropped = 0;
  uint64_t invalidations = 0;
  uint64_t frames_mapped_peak = 0;
  uint64_t adaptive_skips = 0;     // evictions that skipped compression entirely
  uint64_t adaptive_probes = 0;    // compressions attempted while disabled
  uint64_t adaptive_disables = 0;  // off transitions
  uint64_t adaptive_reenables = 0; // on transitions
  uint64_t zero_pages = 0;         // evictions caught by the zero-page scan
  uint64_t zero_fault_hits = 0;    // fault hits served by zero-fill (no codec)
  uint64_t original_bytes_kept = 0;
  uint64_t compressed_bytes_kept = 0;
  uint64_t checksum_mismatches = 0;    // fault-ins whose payload failed its CRC
  uint64_t entries_lost = 0;           // dirty entries reclaimed after write failure
  uint64_t write_batch_failures = 0;   // WriteBatch calls that did not fully succeed
};

// Outcome of CompressionCache::FaultIn.
enum class CcacheFaultResult : uint8_t {
  kMiss = 0,    // no entry for the key
  kHit,         // page decompressed into the caller's frame
  kCorrupt,     // entry found but its payload failed the checksum or decode;
                // the entry is left in place for the caller to invalidate
};

class CompressionCache {
 public:
  CompressionCache(Clock* clock, const CostModel* costs, FrameSource* frames, Codec* codec,
                   CompressedSwapBackend* swap, CcacheEvents* events, CcacheOptions options);

  CompressionCache(const CompressionCache&) = delete;
  CompressionCache& operator=(const CompressionCache&) = delete;

  ~CompressionCache();

  // Compresses an evicted page and inserts it when it meets the threshold.
  // Charges compression time either way (rejected pages are the paper's "wasted
  // effort"). Returns true when the page was kept compressed in memory; on false
  // the caller must dispose of the page itself (write raw to backing store).
  bool CompressAndInsert(PageKey key, std::span<const uint8_t> page, bool dirty);

  // Two-phase form of CompressAndInsert, used by the evictor to break the
  // frame-allocation cycle: compress out of the victim's frame into a kernel
  // buffer, free the frame, then insert — so the ring can always find a frame.
  //
  // `bytes` points into the scratch arena: the caller must hold an open
  // ScratchArena::Scope on arena() across CompressPage and the matching
  // InsertCompressed. Zero pages take a fast path — `zero` is set, `bytes`
  // stays empty, and no codec, CRC, or ring payload is involved.
  struct CompressOutcome {
    bool keep = false;
    bool zero = false;               // page was all zeros (implies keep)
    std::span<const uint8_t> bytes;  // compressed image; valid until the Scope closes
  };
  CompressOutcome CompressPage(std::span<const uint8_t> page);
  // Appends the image at the tail of the ring; the key must be absent.
  void InsertCompressed(PageKey key, std::span<const uint8_t> compressed,
                        uint32_t original_size, bool dirty, bool zero_page = false);

  // Inserts an already-compressed image read from the backing store, as a clean
  // entry. No compression charge (the bits are already compressed). `checksum`
  // is the image's CRC-32C, which the ring stores as given: the swap layouts
  // verify every image they return against it, so it is not computed again. A
  // one-byte zero-page marker image (or zero_page=true from a CompressOutcome)
  // becomes a payload-free zero entry.
  void InsertCompressedClean(PageKey key, std::span<const uint8_t> compressed,
                             uint32_t original_size, uint32_t checksum, bool zero_page = false);

  bool Contains(PageKey key) const { return index_.contains(key); }

  // Decompresses the cached copy of `key` into `out` (a whole page). kMiss when
  // the page is not in the cache; kCorrupt when the stored payload fails its
  // checksum or does not decode (the entry stays in the ring — the caller
  // invalidates it once it has decided how to recover).
  CcacheFaultResult FaultIn(PageKey key, std::span<uint8_t> out);

  // Decompresses an arbitrary compressed image with the cache's codec, charging
  // the modelled decompression time (used by the fault path for images that were
  // just read from the backing store). Returns false when the image is corrupt.
  [[nodiscard]] bool DecompressImage(std::span<const uint8_t> compressed,
                                     std::span<uint8_t> out);

  // --- speculative (decompress-ahead) interface ---
  // The prefetcher's read of a cached copy. Copies the CRC-verified compressed
  // image of `key` out of the ring into the head of `frame` (a page-sized
  // buffer frame) without decoding it: the prefetcher runs the codec only when
  // a demand fault consumes the image (codec()). Returns the image size, 0 for
  // a zero page (nothing is copied), or nullopt when the key is absent or its
  // payload fails the checksum. Nothing is charged to the caller's clock — the
  // modelled decompression time is accumulated into *cost for the engine to
  // place on its background timeline — and the entry's age and the fault
  // counters are left untouched (speculation is not a demand reference; a hit
  // refreshes the age later, via Touch). No injector ordinals are drawn:
  // speculation never perturbs the fault schedule, and a corrupt entry is
  // simply not prefetched — the demand fault rediscovers (and meters) the
  // corruption through the real path.
  std::optional<uint32_t> PrefetchIn(PageKey key, std::span<uint8_t> frame, SimDuration* cost);

  // The codec every cached image was encoded with.
  Codec* codec() const { return codec_; }

  // Refreshes a live entry's age (a prefetch hit is a demand reference even
  // though FaultIn was bypassed). No-op when the key is absent.
  void Touch(PageKey key);

  // Discards the cached copy (page was modified while resident, or dropped).
  void Invalidate(PageKey key);

  // --- memory arbitration interface ---
  // Age (virtual-time ns) of the oldest entry; UINT64_MAX when empty.
  uint64_t OldestAge() const;
  // Reclaims the oldest physical frame, writing out any dirty data in it first.
  // Returns false when the cache holds no frames.
  bool ReleaseOldest();

  // Frees one mapped slot that holds no live entry bytes (a "free" slot in the
  // paper's Figure 2 sense) — memory that costs nothing to reclaim. The machine
  // harvests these before bothering the arbiter. Returns false when none exists.
  bool FreeOneDeadSlot();

  // Cleaner daemon step; the machine invokes it after each fault service with the
  // current free-frame count.
  void RunCleaner(size_t pool_free_frames);

  // Writes out all dirty entries (shutdown / ablation hooks).
  void FlushDirty();

  size_t mapped_frames() const { return mapped_count_; }
  size_t live_entries() const { return index_.size(); }
  uint64_t used_bytes() const { return tail_off_ - head_off_; }
  const CcacheStats& stats() const { return stats_; }
  const CcacheOptions& options() const { return options_; }

  // Restarts the mapped-frames peak from the current mapping (a warm-up
  // discard; Machine::ResetStats calls it).
  void RestartPeak() { stats_.frames_mapped_peak = mapped_count_; }

  // Invariants: ring occupancy — [head, tail] fits the ring's capacity less
  // its one-page anti-alias slack, the contiguous entry chain spans exactly
  // [head, tail], and per-slot live-byte accounting matches a recount — the
  // cleaner's first-dirty cursor against a full prefix scan, plus index
  // coherence: every index key maps to exactly the valid entry bearing that
  // key (no double-maps), and valid entries == index size.
  void RegisterAuditChecks(InvariantAuditor* auditor) const;

  // --- observability ---
  // Publishes every CcacheStats counter as a "ccache.*" gauge plus the
  // "ccache.kept_ratio_pct" histogram (observed per kept page).
  void BindMetrics(MetricRegistry* registry);
  void SetTracer(EventTracer* tracer) { tracer_ = tracer; }

  // Optional fault injection: models in-memory corruption of compressed data
  // (FaultSite::kCodecCorruption) on the fault-in path. The flipped bit lives in
  // the transient decode buffer, never the ring, so recovery can re-read.
  void SetFaultInjector(FaultInjector* injector) { injector_ = injector; }

  // Scratch arena used by the compress/decompress hot path. The cache owns a
  // private one by default; the Machine replaces it with the per-machine arena
  // so every subsystem shares the same steady-state blocks. Callers of
  // CompressPage open their Scope on arena().
  void SetArena(ScratchArena* arena) {
    CC_EXPECTS(arena != nullptr);
    arena_ = arena;
  }
  ScratchArena& arena() { return *arena_; }

  // The paper's per-compressed-page header size (section 4.4).
  static constexpr uint32_t kEntryHeaderBytes = 36;

  // Runs the checks RegisterAuditChecks publishes and aborts on the first
  // failing pass. Test hook.
  void CheckInvariants() const;

  // Introspection for tests and debugging.
  struct EntryInfo {
    uint64_t header_off = 0;
    uint32_t payload_size = 0;
    bool dirty = false;
  };
  std::optional<EntryInfo> EntryInfoFor(PageKey key) const;
  // Flips one bit of a live entry's stored payload in the ring (test hook for
  // latent in-cache corruption; the recorded checksum is left untouched).
  void CorruptPayloadBitForTest(PageKey key, size_t bit);
  // Mutation hooks for auditor tests: skew one slot's live-byte gauge, or make
  // a second key alias an existing entry's index slot (a double-map).
  void CorruptLiveBytesForTest(size_t slot, int64_t delta);
  void AliasIndexKeyForTest(PageKey existing, PageKey alias);
  // Undoes AliasIndexKeyForTest so the shutdown audit sees a healthy cache.
  void RemoveIndexKeyForTest(PageKey key) { index_.erase(key); }

 private:
  struct Entry {
    PageKey key;
    uint64_t header_off = 0;  // linear (monotonic) byte offset of the entry header
    uint32_t payload_size = 0;
    uint32_t original_size = 0;
    uint32_t checksum = 0;  // CRC-32C of the payload (0 for a zero page)
    bool zero_page = false;  // all-zero page: no payload, faults zero-fill
    bool dirty = false;
    bool valid = true;
    uint64_t age_ns = 0;

    uint64_t payload_off() const { return header_off + kEntryHeaderBytes; }
    uint64_t end_off() const { return payload_off() + payload_size; }
  };

  size_t SlotOf(uint64_t linear_off) const {
    return static_cast<size_t>((linear_off / kPageSize) % options_.max_slots);
  }

  // Ring byte copy helpers (linear offsets; data may span slot frames).
  void CopyIn(uint64_t linear_off, std::span<const uint8_t> data);
  void CopyOut(uint64_t linear_off, std::span<uint8_t> out) const;

  // Maps frames for every slot covering [tail_off_, tail_off_ + need).
  void EnsureMappedForAppend(uint64_t need);

  // `checksum` is the CRC-32C of a non-empty payload.
  void AppendEntry(PageKey key, std::span<const uint8_t> payload, uint32_t checksum,
                   uint32_t original_size, bool dirty, bool zero_page);

  Entry* Find(PageKey key);
  const Entry* Find(PageKey key) const;

  // The backing-store image of a dirty entry: its ring payload and stored CRC,
  // or a one-byte zero-page marker (backends require non-empty bytes).
  SwapPageImage ImageOf(const Entry& e) const;

  // Writes `batch` to the backing store as one clustered batch. On success
  // every entry in it is marked clean (OnEntryCleaned); on failure the
  // entries stay dirty, any partially persisted copies are discarded, and
  // write_batch_failures counts it. Returns whether the write succeeded.
  bool SubmitBatch(std::span<const SwapPageImage> batch);

  // Pops head entries (writing dirty ones) until the head frame can be freed;
  // unmaps and frees it. Core of ReleaseOldest.
  void ReclaimHeadFrame();

  // Writes the oldest `write_batch_bytes` of dirty entries to the backing store.
  // Returns false when there was nothing dirty.
  bool WriteOldestDirtyBatch();

  // Index in entries_ of the oldest valid dirty entry, entries_.size() when
  // none: amortized O(1) from first_dirty_seq_.
  size_t FirstDirtyIndex() const;
  // Frames worth of clean/invalid prefix at the head (reclaimable without I/O),
  // by a full scan: the audit's reference for the cursor.
  size_t CleanPrefixFrames() const;
  // CleanPrefixFrames() >= target, answered from the cursor: the cleaner's
  // per-fault test.
  bool CleanPrefixReaches(size_t target) const;
  // Clean-prefix frames below which the cleaner writes a batch: an eighth of
  // the mapped ring, but at least kCleanFramesTarget.
  static constexpr size_t kCleanFramesTarget = 8;
  size_t CleanTarget() const;

  void UnmapSlotsBelow(uint64_t old_head, uint64_t new_head);

  Clock* clock_;
  const CostModel* costs_;
  FrameSource* frames_;
  Codec* codec_;
  CompressedSwapBackend* swap_;
  CcacheEvents* events_;
  CcacheOptions options_;

  // Adjusts per-slot live-byte accounting for an entry footprint and maintains
  // the dead-slot candidate set.
  void AddLiveBytes(uint64_t header_off, uint64_t end_off, int64_t sign);

  std::vector<FrameId> slots_;  // slot index -> frame (invalid when unmapped)
  size_t mapped_count_ = 0;

  // Live entry-footprint bytes per physical slot. A mapped slot whose count hits
  // zero (every entry overlapping it was invalidated or dropped) is reclaimable
  // from the middle of the ring without any I/O — paper: "They may be removed
  // from the middle if no clean pages are available at the oldest end."
  std::vector<uint64_t> live_bytes_;
  std::set<size_t> dead_slots_;  // mapped slots with zero live bytes

  uint64_t head_off_ = 0;  // linear offsets, monotonically increasing
  uint64_t tail_off_ = 0;

  // Append order; contiguous: entry[i+1].header_off == entry[i].end_off().
  std::deque<Entry> entries_;
  uint64_t base_seq_ = 0;      // sequence number of entries_.front()
  // No entry below this sequence number is valid and dirty. An entry is dirty
  // only from AppendEntry until SubmitBatch or Invalidate, appends go to the
  // tail, and head reclamation only drops entries, so FirstDirtyIndex() only
  // ever moves it forward (clamped to base_seq_).
  mutable uint64_t first_dirty_seq_ = 0;
  std::unordered_map<PageKey, uint64_t, PageKeyHash> index_;  // key -> sequence number

  // Adaptive-disable state (see AdaptiveCompressionOptions).
  bool compression_disabled_ = false;
  uint32_t window_attempts_ = 0;
  uint32_t window_rejects_ = 0;
  uint32_t skips_since_probe_ = 0;

  CcacheStats stats_;
  LatencyHistogram* kept_ratio_hist_ = nullptr;  // owned by the bound registry
  EventTracer* tracer_ = nullptr;
  FaultInjector* injector_ = nullptr;

  ScratchArena default_arena_;
  ScratchArena* arena_ = &default_arena_;
};

}  // namespace compcache

#endif  // COMPCACHE_CCACHE_COMPRESSION_CACHE_H_
