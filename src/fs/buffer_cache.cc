#include "fs/buffer_cache.h"

#include <cstring>
#include <string>

#include "ccache/compression_cache.h"
#include "util/assert.h"
#include "util/audit.h"
#include "util/checksum.h"
#include "util/units.h"

namespace compcache {

BufferCache::BufferCache(Clock* clock, const CostModel* costs, FrameSource* frames,
                         FileSystem* fs)
    : clock_(clock), costs_(costs), frames_(frames), fs_(fs) {
  CC_EXPECTS(clock_ != nullptr && costs_ != nullptr && frames_ != nullptr && fs_ != nullptr);
}

BufferCache::~BufferCache() {
  // Blocks are dropped without writeback on destruction; callers that care about
  // persistence call FlushAll() first. Frames must be returned either way.
  for (auto& [key, block] : blocks_) {
    frames_->FreeFrame(block->frame);
  }
}

BufferCache::Block& BufferCache::GetBlock(FileId file, uint64_t index,
                                          bool will_overwrite_fully) {
  const Key key{file.value, index};
  if (const auto it = blocks_.find(key); it != blocks_.end()) {
    ++stats_.hits;
    Block& b = *it->second;
    // Ages must be virtual-time nanoseconds: the arbiter adds nanosecond
    // biases and compares them against the pager's and ccache's timestamps.
    // (These two stamps used logical ticks until the invariant auditor's
    // age-plausibility check flagged them — a tick-aged block looked ancient
    // next to nanosecond ages, so the file cache was reclaimed almost
    // unconditionally regardless of the configured biases.)
    b.age = static_cast<uint64_t>(clock_->Now().nanos());
    lru_.Touch(b);
    return b;
  }

  ++stats_.misses;
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventKind::kBufferMiss, clock_->Now(), FileBlockKey(file.value, index));
  }
  auto block = std::make_unique<Block>();
  block->key = key;
  // Allocating may reclaim — possibly from this very cache. The new block is not
  // yet in the map or LRU, so reclamation cannot choose it.
  block->frame = frames_->AllocateFrame();
  if (!will_overwrite_fully) {
    // With the compressed-file-cache extension, a previously evicted block may
    // still be in memory in compressed form — a decompression instead of a read.
    const PageKey ckey = FileBlockKey(file.value, index);
    bool filled = false;
    if (ccache_ != nullptr) {
      const CcacheFaultResult hit = ccache_->FaultIn(ckey, frames_->FrameData(block->frame));
      if (hit == CcacheFaultResult::kHit) {
        ++stats_.compressed_hits;
        filled = true;
      } else if (hit == CcacheFaultResult::kCorrupt) {
        // Drop the bad compressed copy; the disk still has the block.
        ccache_->Invalidate(ckey);
      }
    }
    if (!filled &&
        fs_->Read(file, index * kFsBlockSize, frames_->FrameData(block->frame)) !=
            IoStatus::kOk) {
      // Unreadable after retries: surface deterministic zeros, never garbage.
      auto data = frames_->FrameData(block->frame);
      std::memset(data.data(), 0, data.size());
      ++stats_.read_failures;
    }
  }
  block->age = static_cast<uint64_t>(clock_->Now().nanos());
  Block& ref = *block;
  blocks_.emplace(key, std::move(block));
  lru_.PushMru(ref);
  return ref;
}

void BufferCache::Evict(Block& block) {
  bool persisted = true;
  if (block.dirty) {
    ++stats_.writebacks;
    if (tracer_ != nullptr) {
      tracer_->Record(TraceEventKind::kBufferWriteback, clock_->Now(),
                      FileBlockKey(block.key.file, block.key.index));
    }
    if (fs_->Write(FileId{block.key.file}, block.key.index * kFsBlockSize,
                   frames_->FrameData(block.frame)) != IoStatus::kOk) {
      // Retries exhausted: the disk keeps its stale copy and this update is
      // dropped with the block. Counted so callers can see the data loss.
      ++stats_.writeback_failures;
      persisted = false;
    }
  }
  if (ccache_ != nullptr) {
    // Keep the (now clean) block compressed in memory. Re-inserting replaces any
    // stale copy; the frame must be freed first so the ring can use it (the same
    // donor discipline as VM eviction). The copy is clean: the disk always has
    // the data, so the cache may drop it at any time without I/O. When the
    // writeback failed that invariant would not hold, so nothing is inserted.
    const PageKey ckey = FileBlockKey(block.key.file, block.key.index);
    ccache_->Invalidate(ckey);
    if (persisted) {
      // The scratch scope keeps outcome.bytes alive across the frame free and
      // the insertion (which may recurse into further compressions).
      ScratchArena::Scope scratch(ccache_->arena());
      auto outcome = ccache_->CompressPage(frames_->FrameData(block.frame));
      lru_.Remove(block);
      frames_->FreeFrame(block.frame);
      if (outcome.keep) {
        ccache_->InsertCompressedClean(ckey, outcome.bytes, kFsBlockSize,
                                       outcome.zero ? 0 : Crc32(outcome.bytes), outcome.zero);
        ++stats_.compressed_inserts;
      }
    } else {
      lru_.Remove(block);
      frames_->FreeFrame(block.frame);
    }
    blocks_.erase(block.key);  // destroys `block`
    return;
  }
  lru_.Remove(block);
  frames_->FreeFrame(block.frame);
  blocks_.erase(block.key);  // destroys `block`
}

uint64_t BufferCache::OldestAge() const {
  const Block* lru = lru_.Lru();
  return lru == nullptr ? UINT64_MAX : lru->age;
}

bool BufferCache::ReleaseOldest() {
  Block* lru = lru_.Lru();
  if (lru == nullptr) {
    return false;
  }
  Evict(*lru);
  return true;
}

void BufferCache::FlushAll() {
  lru_.ForEach([&](const Block& b) {
    if (b.dirty) {
      ++stats_.writebacks;
      if (tracer_ != nullptr) {
        tracer_->Record(TraceEventKind::kBufferWriteback, clock_->Now(),
                        FileBlockKey(b.key.file, b.key.index));
      }
      if (fs_->Write(FileId{b.key.file}, b.key.index * kFsBlockSize,
                     frames_->FrameData(b.frame)) != IoStatus::kOk) {
        // Stays dirty: the next flush or eviction retries the writeback.
        ++stats_.writeback_failures;
        return;
      }
      const_cast<Block&>(b).dirty = false;
    }
  });
}

void BufferCache::Read(FileId file, uint64_t offset, std::span<uint8_t> out) {
  uint64_t pos = 0;
  while (pos < out.size()) {
    const uint64_t abs = offset + pos;
    const uint64_t index = abs / kFsBlockSize;
    const uint64_t within = abs % kFsBlockSize;
    const uint64_t n = std::min<uint64_t>(kFsBlockSize - within, out.size() - pos);
    Block& b = GetBlock(file, index, /*will_overwrite_fully=*/false);
    std::memcpy(out.data() + pos, frames_->FrameData(b.frame).data() + within, n);
    clock_->Advance(costs_->CopyCost(n), TimeCategory::kCopy);
    pos += n;
  }
}

void BufferCache::Write(FileId file, uint64_t offset, std::span<const uint8_t> data) {
  uint64_t pos = 0;
  while (pos < data.size()) {
    const uint64_t abs = offset + pos;
    const uint64_t index = abs / kFsBlockSize;
    const uint64_t within = abs % kFsBlockSize;
    const uint64_t n = std::min<uint64_t>(kFsBlockSize - within, data.size() - pos);
    const bool full_block = within == 0 && n == kFsBlockSize;
    Block& b = GetBlock(file, index, full_block);
    std::memcpy(frames_->FrameData(b.frame).data() + within, data.data() + pos, n);
    clock_->Advance(costs_->CopyCost(n), TimeCategory::kCopy);
    b.dirty = true;
    if (ccache_ != nullptr) {
      ccache_->Invalidate(FileBlockKey(file.value, index));  // compressed copy is stale
    }
    pos += n;
  }
}

void BufferCache::RegisterAuditChecks(InvariantAuditor* auditor) {
  CC_EXPECTS(auditor != nullptr);
  auditor->Register("bcache", "lru-coherent", [this]() -> std::optional<std::string> {
    size_t lru_count = 0;
    std::optional<std::string> problem;
    const uint64_t now = static_cast<uint64_t>(clock_->Now().nanos());
    lru_.ForEach([&](const Block& b) {
      ++lru_count;
      if (problem.has_value()) {
        return;
      }
      const auto it = blocks_.find(b.key);
      if (it == blocks_.end() || it->second.get() != &b) {
        problem = "LRU block for file " + std::to_string(b.key.file) + " index " +
                  std::to_string(b.key.index) + " is not in the block map";
      } else if (b.age > now) {
        problem = "block age " + std::to_string(b.age) + " is ahead of virtual time " +
                  std::to_string(now);
      }
    });
    if (problem.has_value()) {
      return problem;
    }
    if (lru_count != blocks_.size()) {
      return "LRU list holds " + std::to_string(lru_count) + " blocks, map holds " +
             std::to_string(blocks_.size());
    }
    return std::nullopt;
  });
}

void BufferCache::BindMetrics(MetricRegistry* registry) {
  CC_EXPECTS(registry != nullptr);
  registry->RegisterCounter("bcache.hits", &stats_.hits);
  registry->RegisterCounter("bcache.misses", &stats_.misses);
  registry->RegisterCounter("bcache.writebacks", &stats_.writebacks);
  registry->RegisterCounter("bcache.compressed_inserts", &stats_.compressed_inserts);
  registry->RegisterCounter("bcache.compressed_hits", &stats_.compressed_hits);
  registry->RegisterCounter("bcache.read_failures", &stats_.read_failures);
  registry->RegisterCounter("bcache.writeback_failures", &stats_.writeback_failures);
  registry->RegisterGauge("bcache.blocks",
                          [this] { return static_cast<double>(blocks_.size()); });
}

}  // namespace compcache
