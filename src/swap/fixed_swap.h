// The fixed-offset backing store, shared by both machines.
//
// Unmodified Sprite: "When a page is written to backing store, it is written to
// a 'swap file' corresponding to the segment containing the page, at an offset
// corresponding to the location of the page within the segment. This fixed
// mapping of pages to file blocks makes it trivial to locate a page on the
// backing store." The unmodified machine stores whole raw pages here.
//
// With the compression cache it is the paper's rejected alternative: "Ideally,
// the system would keep each compressed page in the same location in its swap
// file as without the compression cache, but transfer just the amount of data
// occupied by the compressed page. Unfortunately ... the file system enforces
// transfers in multiples of a whole file system block. ... if a page were
// compressed from 4 Kbytes to 2 Kbytes, a 2-Kbyte write would result in a
// 4-Kbyte read and a 4-Kbyte write rather than only the expected 2 Kbyte
// write!" (paper section 4.3)
//
// Either way only the image's bytes are written at the page's fixed offset, so
// the file system's whole-block semantics bite exactly as described. Combine
// with FileSystem::Options::allow_partial_block_write to evaluate the paper's
// "modify the file system" alternative.
#ifndef COMPCACHE_SWAP_FIXED_SWAP_H_
#define COMPCACHE_SWAP_FIXED_SWAP_H_

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "fs/file_system.h"
#include "swap/compressed_swap_backend.h"
#include "swap/swap_journal.h"

namespace compcache {

struct FixedSwapStats {
  uint64_t pages_written = 0;
  uint64_t pages_read = 0;
  uint64_t payload_bytes_written = 0;
};

class FixedSwapLayout : public CompressedSwapBackend {
 public:
  struct Options {
    // Durable mode: an intent record (previous + new slot metadata, CRC'd) is
    // journaled *before* each in-place slot overwrite, so Mount() can classify
    // a crash-straddling write as new / old / torn by reading the slot back.
    bool durable = false;
  };

  FixedSwapLayout(FileSystem* fs, Options options);
  explicit FixedSwapLayout(FileSystem* fs) : FixedSwapLayout(fs, Options{}) {}

  IoStatus WriteBatch(std::span<const SwapPageImage> pages) override;
  bool Contains(PageKey key) const override { return images_.contains(key); }
  ReadResult ReadPage(PageKey key, bool collect_coresidents) override;
  void Invalidate(PageKey key) override;
  void ForEachPage(const std::function<void(PageKey)>& fn) const override;
  void RegisterAuditChecks(InvariantAuditor* auditor) override;

  // Durable mode only: replays the intent journal and resolves each page's
  // slot by CRC — the new image if the overwrite completed, the previous one
  // if it never started, dropped if the slot is torn (in-place overwrite
  // cannot preserve the old copy, the cost of a fixed mapping).
  MountStats Mount() override;

  const FixedSwapStats& stats() const { return stats_; }

  // Publishes counters as "swap.fixed.*" gauges.
  void BindMetrics(MetricRegistry* registry) override;

 private:
  // Journal record types (payload layouts in fixed_swap.cc).
  static constexpr uint8_t kRecIntent = 1;
  static constexpr uint8_t kRecFree = 2;

  FileId SwapFileFor(uint32_t segment);
  static uint64_t OffsetOf(PageKey key) {
    return static_cast<uint64_t>(key.page) * kPageSize;
  }

  FileSystem* fs_;
  Options options_;
  std::unique_ptr<SwapJournal> journal_;  // non-null only in durable mode
  std::unordered_map<uint32_t, FileId> swap_files_;
  std::unordered_map<PageKey, StoredImage, PageKeyHash> images_;
  FixedSwapStats stats_;
};

}  // namespace compcache

#endif  // COMPCACHE_SWAP_FIXED_SWAP_H_
