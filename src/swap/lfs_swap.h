// A Sprite-LFS-style log-structured backing store for compressed pages.
//
// The paper keeps circling this design: "it might be possible to page into
// Sprite LFS, which provides much higher bandwidth by coalescing many small
// writes into a single larger transfer" — "However, it is not clear that paging
// into LFS would be desirable under heavy paging load. LFS requires significant
// memory for buffers, and for LFS to clean segments containing swap files, it
// must copy more 'live' blocks than for other types of data." (sections 4.3, 5.1)
//
// This backend makes that trade-off measurable:
//   * writes accumulate in an in-memory segment buffer (whose frames are charged
//     against user memory via the FrameSource — LFS's "significant memory") and
//     reach the disk as one large sequential segment write;
//   * a segment usage table tracks live bytes; when free segments run short, the
//     cleaner reads the least-utilized segment and re-appends its live pages —
//     the copying cost the paper warns about;
//   * reads serve from the open segment buffer when possible, else one
//     block-aligned disk read.
#ifndef COMPCACHE_SWAP_LFS_SWAP_H_
#define COMPCACHE_SWAP_LFS_SWAP_H_

#include <array>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "fs/file_system.h"
#include "swap/compressed_swap_backend.h"
#include "vm/frame_source.h"

namespace compcache {

struct LfsSwapStats {
  uint64_t pages_written = 0;
  uint64_t pages_read = 0;
  uint64_t segments_written = 0;
  uint64_t segments_cleaned = 0;
  uint64_t live_pages_copied = 0;  // cleaner rewrites (the paper's warning)
  uint64_t reads_from_buffer = 0;  // served from the open segment, no I/O
  uint64_t checkpoints_written = 0;  // durable mode only
};

class LfsSwapLayout : public CompressedSwapBackend {
 public:
  struct Options {
    // Segment size in file blocks (Sprite LFS used large segments; 128 blocks =
    // 512 KB keeps the buffer charge visible on small machines).
    uint32_t segment_blocks = 128;
    // Total log capacity in segments before the cleaner must run.
    uint32_t log_segments = 256;
    // Clean when free segments drop below this.
    uint32_t clean_threshold = 8;
    // Durable mode: each segment's last block carries a CRC'd summary (the
    // segment's live pages plus deletions since the previous flush), and every
    // second segment flush checkpoints the full location map to one of two
    // rotating CRC'd slots. Mount() loads the newest valid checkpoint and rolls
    // forward over the summaries. Requires segment_blocks >= 2 (one block is
    // the summary).
    bool durable = false;
  };

  // `frames` pays for the segment write buffer (LFS's memory cost); pass nullptr
  // to skip the charge (unit tests).
  LfsSwapLayout(FileSystem* fs, FrameSource* frames, Options options);
  LfsSwapLayout(FileSystem* fs, FrameSource* frames)
      : LfsSwapLayout(fs, frames, Options{}) {}
  ~LfsSwapLayout() override;

  IoStatus WriteBatch(std::span<const SwapPageImage> pages) override;
  bool Contains(PageKey key) const override { return locations_.contains(key); }
  ReadResult ReadPage(PageKey key, bool collect_coresidents) override;
  void Invalidate(PageKey key) override;
  void ForEachPage(const std::function<void(PageKey)>& fn) const override;

  // Invariants: free and pending-free segments hold nothing and exactly the
  // open segment is open; per-segment live bytes and members match a recount
  // from the location map.
  void RegisterAuditChecks(InvariantAuditor* auditor) override;

  // Durable mode only: loads the newest valid checkpoint slot, rolls forward
  // over segment summaries in sequence order (deletions before additions, so
  // an invalidate-then-rewrite inside one flush window lands correctly),
  // verifies every recovered page's CRC, and rebuilds the segment table.
  MountStats Mount() override;

  const LfsSwapStats& stats() const { return stats_; }
  size_t free_segments() const { return CountSegments(SegmentState::kFree); }
  size_t buffer_frame_count() const { return buffer_frames_.size(); }

  // Publishes counters as "swap.lfs.*" gauges.
  void BindMetrics(MetricRegistry* registry) override;

 private:
  struct Location {
    uint32_t segment = 0;
    uint32_t offset = 0;  // byte offset within the segment
    StoredImage image;
  };

  // A cleaned segment is free at once, except in durable mode: there its stale
  // summary stays replayable until a checkpoint captures the re-appended
  // copies, and overwriting the segment before then would let that summary
  // point at garbage. It waits as pending-free and the checkpoint frees it.
  enum class SegmentState : uint8_t { kFree, kOpen, kClosed, kPendingFree };
  struct Segment {
    SegmentState state = SegmentState::kFree;
    uint64_t live_bytes = 0;
    std::map<uint32_t, PageKey> members;  // offset -> key, live pages only
  };

  uint64_t SegmentBytes() const {
    return static_cast<uint64_t>(options_.segment_blocks) * kFsBlockSize;
  }
  // Bytes of a segment available for page images (the summary block is
  // reserved in durable mode).
  uint64_t DataBytes() const {
    return SegmentBytes() - (options_.durable ? kFsBlockSize : 0);
  }
  // Serialized summary size for the given record counts (frame included).
  static uint64_t SummaryBytes(size_t dels, size_t adds) {
    return 12 + 16 + 8 * static_cast<uint64_t>(dels) + 25 * static_cast<uint64_t>(adds);
  }
  size_t CountSegments(SegmentState state) const;
  // Opens the lowest-numbered free segment with an empty buffer (first fit,
  // as the clustered layout allocates blocks).
  void OpenFirstFreeSegment();

  // Returns kFailed when a required segment flush could not complete; the
  // image's previous copy (if any) is left valid in that case.
  IoStatus AppendImage(const SwapPageImage& img, bool count_as_write);
  IoStatus FlushOpenSegment();
  // Greedy victim choice: the closed segment with the least live data, the
  // lowest-numbered on a tie.
  uint32_t PickVictimSegment() const;
  // False when the victim segment could not be cleaned (a device failure
  // interrupted the live-page copy); the victim stays intact.
  bool CleanOneSegment();
  void MaybeClean();
  void ReleaseLocation(PageKey key);
  // Durable mode: serializes the full location map into the next rotating
  // checkpoint slot and, on success, frees the pending-free segments. Must be
  // called at an open-buffer-empty point so the captured map references only
  // flushed (durable) segments. False on device failure.
  bool WriteCheckpoint();

  FileSystem* fs_;
  FrameSource* frames_;
  Options options_;
  FileId file_;

  // Open segment being filled (in-memory buffer).
  std::vector<uint8_t> open_buffer_;
  uint32_t open_segment_ = 0;
  uint32_t open_fill_ = 0;
  std::vector<FrameId> buffer_frames_;  // the memory charge for the buffer

  std::unordered_map<PageKey, Location, PageKeyHash> locations_;
  std::vector<Segment> segments_;  // one entry per log segment
  bool cleaning_ = false;

  // --- durable mode state ---
  // Keys invalidated since the last summary/checkpoint; emitted as deletion
  // records in the next summary (only for keys still absent from the map —
  // a re-added key's newest add record supersedes every older one).
  std::unordered_set<PageKey, PageKeyHash> pending_dels_;
  std::array<FileId, 2> ckpt_files_{};
  uint32_t ckpt_slot_ = 0;          // slot the next checkpoint writes to
  uint64_t seq_ = 0;                // shared by summaries and checkpoints
  uint32_t flushes_since_checkpoint_ = 0;

  LfsSwapStats stats_;
};

}  // namespace compcache

#endif  // COMPCACHE_SWAP_LFS_SWAP_H_
