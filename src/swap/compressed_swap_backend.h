// Interface over backing-store layouts, so the paper's section-4.3 design
// alternatives can be swapped against each other:
//   * ClusteredSwapLayout — the paper's implemented design (1 KB fragments,
//     32 KB batched writes, explicit location map, block-reuse GC);
//   * FixedSwapLayout — each page at its fixed swap-file offset. Unmodified
//     Sprite's backing store (whole raw pages) and the paper's rejected
//     "ideal" for compressed pages (transfer only the compressed bytes, which
//     runs into the file system's whole-block semantics: a 2 KB write becomes
//     a 4 KB read plus a 4 KB write);
//   * LfsSwapLayout — a Sprite-LFS-style log with segment cleaning.
#ifndef COMPCACHE_SWAP_COMPRESSED_SWAP_BACKEND_H_
#define COMPCACHE_SWAP_COMPRESSED_SWAP_BACKEND_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "util/assert.h"
#include "util/checksum.h"
#include "util/io_status.h"
#include "util/metrics.h"
#include "util/trace.h"
#include "util/units.h"
#include "util/wire.h"
#include "vm/page_key.h"

namespace compcache {

class InvariantAuditor;

// One page image queued for a write (shared by all backends).
struct SwapPageImage {
  PageKey key;
  std::vector<uint8_t> bytes;  // compressed bitstream, or raw page if !is_compressed
  bool is_compressed = true;
  uint32_t original_size = kPageSize;
  // CRC-32C of `bytes`, carried in the layout's metadata and verified at read
  // time.
  uint32_t checksum = 0;
};

// What a layout records about one stored image, in memory and in its durable
// metadata (journal records, LFS summaries and checkpoints).
struct StoredImage {
  uint32_t byte_size = 0;
  bool is_compressed = true;
  uint32_t original_size = kPageSize;
  uint32_t checksum = 0;  // CRC-32C of the stored bytes

  static StoredImage Of(const SwapPageImage& img) {
    return {static_cast<uint32_t>(img.bytes.size()), img.is_compressed, img.original_size,
            img.checksum};
  }

  // Wire form, 13 bytes little-endian: size u32, compressed u8, original
  // size u32, CRC u32.
  void Encode(std::vector<uint8_t>& out) const {
    wire::PutU32(out, byte_size);
    wire::PutU8(out, is_compressed ? 1 : 0);
    wire::PutU32(out, original_size);
    wire::PutU32(out, checksum);
  }
  static StoredImage Decode(wire::Reader& r) {
    StoredImage image;
    image.byte_size = r.U32();
    image.is_compressed = r.U8() != 0;
    image.original_size = r.U32();
    image.checksum = r.U32();
    return image;
  }

  // The image's bytes, which start at `offset` in `buf`, and whether they
  // match the recorded CRC.
  struct Slice {
    std::span<const uint8_t> bytes;
    bool verified = false;
  };
  Slice SliceFrom(std::span<const uint8_t> buf, size_t offset) const {
    CC_EXPECTS(offset + byte_size <= buf.size());
    const auto bytes = buf.subspan(offset, byte_size);
    return {bytes, Crc32(bytes) == checksum};
  }

  // A write-ready image of `bytes` under this record's facts.
  SwapPageImage ImageOf(PageKey key, std::span<const uint8_t> bytes) const {
    return {key, std::vector<uint8_t>(bytes.begin(), bytes.end()), is_compressed,
            original_size, checksum};
  }
};

class CompressedSwapBackend {
 public:
  virtual ~CompressedSwapBackend() = default;

  // Writes a batch of page images. Any previous copy of the same pages becomes
  // obsolete. On kFailed nothing is recorded: prior copies of the same pages
  // stay valid and readable.
  virtual IoStatus WriteBatch(std::span<const SwapPageImage> pages) = 0;

  virtual bool Contains(PageKey key) const = 0;

  struct ReadResult {
    // kFailed: the device gave up and `bytes` is empty. kCorrupt: `bytes` was
    // read but failed checksum verification (returned anyway, for forensics).
    IoStatus status = IoStatus::kOk;
    std::vector<uint8_t> bytes;
    bool is_compressed = true;
    uint32_t original_size = kPageSize;
    uint32_t checksum = 0;  // as stored
    // Other whole pages that happened to live in the blocks read (only the
    // clustered layouts produce these). Corrupt coresidents are dropped, never
    // returned.
    std::vector<SwapPageImage> coresidents;
    uint64_t blocks_read = 0;
  };

  // Reads one page (the page must be present).
  virtual ReadResult ReadPage(PageKey key, bool collect_coresidents) = 0;

  // Marks a page's copy obsolete (rewritten in memory or dropped).
  virtual void Invalidate(PageKey key) = 0;

  // --- crash recovery ---
  struct MountStats {
    uint64_t pages_recovered = 0;        // pages readable after the scan
    uint64_t pages_dropped = 0;          // durable metadata but bad/absent data
    uint64_t journal_replays = 0;        // journal records (or summaries) applied
    uint64_t torn_writes_detected = 0;   // torn tails / failed verify reads
    uint64_t checkpoint_loads = 0;       // LFS only: checkpoint slots accepted
  };

  // Rebuilds the layout's in-memory maps from its durable on-disk format
  // (journal replay / checkpoint + summary roll-forward). A non-durable
  // layout mounts empty. Call exactly once, before the first WriteBatch, on a
  // backend constructed over a surviving disk image.
  virtual MountStats Mount() { return MountStats{}; }

  // Calls `fn` once per page currently stored (order unspecified). The pager's
  // audit check walks this to prove every backend copy is still claimed by a
  // page-table entry — leaked locations show up as orphans here.
  virtual void ForEachPage(const std::function<void(PageKey)>& fn) const = 0;

  // Registers the layout's internal consistency checks (free-space
  // conservation, index/location agreement) with the auditor.
  virtual void RegisterAuditChecks(InvariantAuditor* auditor) = 0;

  // --- integrity ---
  // Reads verify each image against the CRC-32C recorded with it at write time.
  // Counts the failed verifications of every layout this backend reads
  // through (a decorator forwards, a tier stack sums its tiers).
  virtual uint64_t checksum_mismatches() const { return checksum_mismatches_; }
  uint64_t coresidents_dropped() const { return coresidents_dropped_; }

  // --- observability ---
  // Publishes the layout's counters as "swap.<layout>.*" gauges.
  virtual void BindMetrics(MetricRegistry* registry) = 0;
  // Records write-batch/read events; the default keeps tracing off.
  virtual void SetTracer(EventTracer* tracer) { (void)tracer; }

 protected:
  // Fills `result` with `image`, whose bytes start at `offset` in `buf`. A
  // copy that fails its CRC is still returned, marked kCorrupt and counted.
  // Returns whether the copy verified.
  bool TakeImage(const StoredImage& image, std::span<const uint8_t> buf, size_t offset,
                 ReadResult& result) {
    const StoredImage::Slice slice = image.SliceFrom(buf, offset);
    result.bytes.assign(slice.bytes.begin(), slice.bytes.end());
    result.is_compressed = image.is_compressed;
    result.original_size = image.original_size;
    result.checksum = image.checksum;
    if (!slice.verified) {
      ++checksum_mismatches_;
      result.status = IoStatus::kCorrupt;
    }
    return slice.verified;
  }

  // The first `size` bytes of the layout's read buffer, which every ReadPage
  // reuses instead of allocating its own. The bytes are unspecified until read
  // into, and the next call may move them.
  std::span<uint8_t> ReadBuffer(size_t size) {
    if (read_buffer_.size() < size) {
      read_buffer_.resize(size);
    }
    return std::span<uint8_t>(read_buffer_).first(size);
  }

  uint64_t checksum_mismatches_ = 0;
  uint64_t coresidents_dropped_ = 0;

 private:
  std::vector<uint8_t> read_buffer_;
};

}  // namespace compcache

#endif  // COMPCACHE_SWAP_COMPRESSED_SWAP_BACKEND_H_
