// LRU file-block cache, the Sprite buffer cache: one of the three consumers of
// physical memory. Applications' file I/O goes through here; the VM's swap traffic
// does not (it uses the FileSystem directly), so paging never double-caches.
#ifndef COMPCACHE_FS_BUFFER_CACHE_H_
#define COMPCACHE_FS_BUFFER_CACHE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>

#include "fs/file_system.h"
#include "sim/clock.h"
#include "sim/cost_model.h"
#include "util/intrusive_lru.h"
#include "util/metrics.h"
#include "util/trace.h"
#include "vm/frame_source.h"

namespace compcache {

class CompressionCache;
class InvariantAuditor;

struct BufferCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t writebacks = 0;
  uint64_t compressed_inserts = 0;  // evicted blocks kept compressed in memory
  uint64_t compressed_hits = 0;     // misses served by decompression, not disk
  uint64_t read_failures = 0;       // block reads that failed; block zero-filled
  uint64_t writeback_failures = 0;  // writebacks that failed after retries
};

class BufferCache {
 public:
  BufferCache(Clock* clock, const CostModel* costs, FrameSource* frames, FileSystem* fs);
  ~BufferCache();

  // Enables the paper's section-6 extension: evicted clean blocks are kept
  // compressed in the compression cache (under file keys) and misses check there
  // before going to disk — "the system could keep part or all of the file buffer
  // cache in compressed format in order to improve the cache hit rate."
  void SetCompressionCache(CompressionCache* ccache) { ccache_ = ccache; }

  // Cached file I/O at arbitrary offsets.
  void Read(FileId file, uint64_t offset, std::span<uint8_t> out);
  void Write(FileId file, uint64_t offset, std::span<const uint8_t> data);

  // --- memory arbitration interface ---
  // Virtual-time age (ns) of the least-recently-used block; UINT64_MAX when
  // empty. Same unit as the pager's and ccache's ages — the arbiter compares
  // them directly.
  uint64_t OldestAge() const;
  // Evicts the LRU block (writing it back if dirty). Returns false when empty.
  bool ReleaseOldest();

  size_t num_blocks() const { return blocks_.size(); }
  const BufferCacheStats& stats() const { return stats_; }

  // Invariants: block map and LRU list agree, and block ages are plausible
  // virtual-time stamps.
  void RegisterAuditChecks(InvariantAuditor* auditor);

  // --- observability ---
  // Publishes counters as "bcache.*" gauges.
  void BindMetrics(MetricRegistry* registry);
  void SetTracer(EventTracer* tracer) { tracer_ = tracer; }

  // Writes back all dirty blocks (shutdown / sync).
  void FlushAll();

 private:
  struct Key {
    uint32_t file;
    uint64_t index;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<uint64_t>()((static_cast<uint64_t>(k.file) << 40) ^ k.index);
    }
  };
  struct Block {
    Key key;
    FrameId frame;
    bool dirty = false;
    uint64_t age = 0;
    LruLink lru_link;
  };

  // Returns the cached block, faulting it in from the file system if needed.
  // When `will_overwrite_fully` is true a miss skips the disk read.
  Block& GetBlock(FileId file, uint64_t index, bool will_overwrite_fully);
  void Evict(Block& block);

  Clock* clock_;
  const CostModel* costs_;
  FrameSource* frames_;
  FileSystem* fs_;
  CompressionCache* ccache_ = nullptr;
  std::unordered_map<Key, std::unique_ptr<Block>, KeyHash> blocks_;
  LruList<Block> lru_;
  BufferCacheStats stats_;
  EventTracer* tracer_ = nullptr;
};

}  // namespace compcache

#endif  // COMPCACHE_FS_BUFFER_CACHE_H_
