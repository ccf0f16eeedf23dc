// The unmodified Sprite backing store: "When a page is written to backing store, it
// is written to a 'swap file' corresponding to the segment containing the page, at
// an offset corresponding to the location of the page within the segment. This
// fixed mapping of pages to file blocks makes it trivial to locate a page on the
// backing store." (paper section 4.3)
#ifndef COMPCACHE_SWAP_FIXED_SWAP_H_
#define COMPCACHE_SWAP_FIXED_SWAP_H_

#include <functional>
#include <span>
#include <unordered_map>

#include "fs/file_system.h"
#include "util/io_status.h"
#include "util/metrics.h"
#include "vm/page_key.h"

namespace compcache {

class InvariantAuditor;

class FixedSwapLayout {
 public:
  explicit FixedSwapLayout(FileSystem* fs);

  // Writes one whole page at its fixed offset in the segment's swap file,
  // recording its checksum. On kFailed a previously written copy (if any)
  // stays authoritative.
  IoStatus WritePage(PageKey key, std::span<const uint8_t> page);

  // Reads one whole page. The page must have been written before. Returns
  // kCorrupt when the stored bytes no longer match the recorded checksum
  // (the bytes are returned anyway).
  IoStatus ReadPage(PageKey key, std::span<uint8_t> out);

  bool Contains(PageKey key) const { return written_.contains(key); }

  // Forgets a page's copy. The fixed layout normally keeps stale copies (they
  // are overwritten in place), so this is only for segment teardown, where the
  // page's key will never be written again.
  void Invalidate(PageKey key) { written_.erase(key); }

  // Calls `fn` once per page with a recorded copy (order unspecified).
  void ForEachPage(const std::function<void(PageKey)>& fn) const {
    for (const auto& [key, crc] : written_) {
      fn(key);
    }
  }

  // Registers the layout's (minimal) consistency checks with the auditor.
  void RegisterAuditChecks(InvariantAuditor* auditor);

  uint64_t pages_written() const { return pages_written_; }
  uint64_t pages_read() const { return pages_read_; }

  // Zeroes event counters; recorded pages are untouched.
  void ResetStats() {
    pages_written_ = 0;
    pages_read_ = 0;
    checksum_mismatches_ = 0;
    io_failures_ = 0;
  }

  // Same counters as CompressedSwapBackend.
  uint64_t checksum_mismatches() const { return checksum_mismatches_; }
  uint64_t io_failures() const { return io_failures_; }

  // Publishes counters as "swap.fixed.*" gauges.
  void BindMetrics(MetricRegistry* registry);

 private:
  FileId SwapFileFor(uint32_t segment);

  FileSystem* fs_;
  std::unordered_map<uint32_t, FileId> swap_files_;
  // Written pages and the CRC-32C recorded at write time.
  std::unordered_map<PageKey, uint32_t, PageKeyHash> written_;
  uint64_t pages_written_ = 0;
  uint64_t pages_read_ = 0;
  uint64_t checksum_mismatches_ = 0;
  uint64_t io_failures_ = 0;
};

}  // namespace compcache

#endif  // COMPCACHE_SWAP_FIXED_SWAP_H_
