// Compressed backing store: "pads each compressed page to a uniform fragment size
// (currently 1 Kbyte), and writes a set of fragments, spanning several file blocks,
// in a single operation. Currently 32 Kbytes of compressed pages are written at
// once." (paper section 4.3)
//
// Consequences the paper calls out, all reproduced here:
//   * the one-to-one page/offset mapping is lost, so each page's location is
//     tracked explicitly;
//   * a rewritten page lands at a new location, so obsolete fragments accumulate
//     and must be garbage-collected — we reuse a file block once every fragment in
//     it is dead. That rule is the layout's only free-space state: one
//     live-fragment count per file block, where 0 means free;
//   * whether a page's fragments may span a file-block boundary is parameterized
//     ("if they cannot, then fragmentation increases"); a spanning page costs a
//     two-block read at fault time;
//   * reading the block(s) for one page may bring in other whole compressed pages
//     for free, which the fault path can insert into the compression cache.
#ifndef COMPCACHE_SWAP_CLUSTERED_SWAP_H_
#define COMPCACHE_SWAP_CLUSTERED_SWAP_H_

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "fs/file_system.h"
#include "swap/compressed_swap_backend.h"
#include "swap/swap_journal.h"
#include "util/units.h"
#include "vm/page_key.h"

namespace compcache {

struct ClusteredSwapStats {
  uint64_t batches_written = 0;
  uint64_t pages_written = 0;
  uint64_t pages_read = 0;
  uint64_t fragment_bytes_written = 0;  // incl. padding
  uint64_t payload_bytes_written = 0;
  uint64_t blocks_reused = 0;   // garbage-collected blocks recycled
  uint64_t blocks_appended = 0;
  uint64_t coresident_pages_returned = 0;
  uint64_t readahead_blocks_read = 0;  // extra blocks widened onto demand reads
};

class ClusteredSwapLayout : public CompressedSwapBackend {
 public:
  using ReadResult = CompressedSwapBackend::ReadResult;

  struct Options {
    // May a page's fragments cross a file-block boundary? (paper: parameterized)
    bool allow_block_spanning = true;
    // Durable mode: every metadata mutation is intent-logged to a CRC'd
    // journal (one record per committed batch, one per invalidate) that
    // Mount() replays after a crash. Off by default — the journal costs one
    // small read-modify-write per mutation.
    bool durable = false;
    // Fault batching: widen each coresident-collecting demand read by up to
    // this many adjacent file blocks in the same disk operation. Clustered
    // writes put neighboring pages in neighboring fragments, so the extra
    // blocks ride the seek already paid and cost only transfer time; every
    // whole live page they cover comes back as a coresident. 0 disables.
    uint64_t readahead_blocks = 0;
  };

  ClusteredSwapLayout(FileSystem* fs, Options options);
  explicit ClusteredSwapLayout(FileSystem* fs) : ClusteredSwapLayout(fs, Options{}) {}

  // Writes a batch of page images in one clustered operation. Any previous
  // location of the same pages becomes garbage. On kFailed the location map is
  // untouched: prior copies stay valid.
  IoStatus WriteBatch(std::span<const SwapPageImage> pages) override;

  bool Contains(PageKey key) const override { return locations_.contains(key); }

  // Reads one page (whole-block transfers underneath). The page must be present.
  ReadResult ReadPage(PageKey key, bool collect_coresidents) override;

  // Marks a page's copy obsolete (it was rewritten in memory or dropped).
  void Invalidate(PageKey key) override;

  void ForEachPage(const std::function<void(PageKey)>& fn) const override;

  // Invariants: each block's live-fragment count equals the fragments the
  // location map places in it (block conservation), and the start index names
  // exactly each location's first fragment (index coherence).
  void RegisterAuditChecks(InvariantAuditor* auditor) override;

  // Durable mode only: replays the intent journal (torn tail truncated),
  // rebuilds the location map and the file length, then verifies every
  // recovered page's stored CRC — bad or unreadable images are dropped so
  // they degrade through the pager's lost ladder instead of faulting in
  // corrupt data later — and derives the block table from what survives.
  MountStats Mount() override;

  const ClusteredSwapStats& stats() const { return stats_; }

  // Publishes counters as "swap.clustered.*" gauges.
  void BindMetrics(MetricRegistry* registry) override;
  void SetTracer(EventTracer* tracer) override { tracer_ = tracer; }

  // Introspection for tests and benches; free space is counted when read.
  size_t live_pages() const { return locations_.size(); }
  size_t free_blocks() const;
  size_t free_runs() const;  // maximal runs of free blocks
  uint64_t end_block() const { return live_frags_.size(); }

  // Mutation hook for auditor tests: counts a phantom live fragment in
  // `block`, which can then never be reused — a leak the conservation check
  // must catch.
  void SkewLiveCountForTest(uint64_t block) { ++live_frags_.at(block); }

 private:
  static constexpr uint32_t kFragsPerBlock = kFsBlockSize / kSwapFragmentSize;

  struct Location {
    uint64_t frag_start = 0;
    uint32_t frag_count = 0;
    StoredImage image;  // fragment metadata
  };

  // Journal record types (payload layouts in clustered_swap.cc).
  static constexpr uint8_t kRecBatch = 1;
  static constexpr uint8_t kRecFree = 2;

  // Allocates `blocks` contiguous file blocks, preferring garbage-collected
  // ones: the first run of that many free blocks by address (which starts the
  // first maximal free run long enough), else new blocks at the end of the
  // file. The blocks stay free until WriteBatch records its pages in them, so
  // a failed write has nothing to undo.
  uint64_t AllocateBlocks(uint64_t blocks);
  // Sets the file length to `blocks`, growing both tables.
  void ResizeFile(uint64_t blocks);
  // Enters / removes one location in the block table and the start index.
  void AddLiveFrags(PageKey key, const Location& loc);
  void ReleaseLocation(const Location& loc);

  FileSystem* fs_;
  Options options_;
  FileId file_;
  std::unique_ptr<SwapJournal> journal_;  // non-null only in durable mode
  std::unordered_map<PageKey, Location, PageKeyHash> locations_;
  // Live fragments per file block; 0 means free. Its size is the file length.
  std::vector<uint32_t> live_frags_;
  // Per fragment: the page whose image starts there, or an invalid key.
  std::vector<PageKey> starts_;
  ClusteredSwapStats stats_;
  EventTracer* tracer_ = nullptr;
};

}  // namespace compcache

#endif  // COMPCACHE_SWAP_CLUSTERED_SWAP_H_
