#include "swap/clustered_swap.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "util/assert.h"
#include "util/audit.h"
#include "util/checksum.h"
#include "util/wire.h"

namespace compcache {

namespace {

uint32_t FragsFor(size_t bytes) {
  return static_cast<uint32_t>((bytes + kSwapFragmentSize - 1) / kSwapFragmentSize);
}

}  // namespace

ClusteredSwapLayout::ClusteredSwapLayout(FileSystem* fs, Options options)
    : fs_(fs), options_(options) {
  CC_EXPECTS(fs_ != nullptr);
  file_ = fs_->OpenOrCreate("cswap");
  if (options_.durable) {
    journal_ = std::make_unique<SwapJournal>(fs_, "cswap.journal");
  }
}

void ClusteredSwapLayout::BindMetrics(MetricRegistry* registry) {
  CC_EXPECTS(registry != nullptr);
  registry->RegisterCounter("swap.clustered.batches_written", &stats_.batches_written);
  registry->RegisterCounter("swap.clustered.pages_written", &stats_.pages_written);
  registry->RegisterCounter("swap.clustered.pages_read", &stats_.pages_read);
  registry->RegisterCounter("swap.clustered.fragment_bytes_written",
                            &stats_.fragment_bytes_written);
  registry->RegisterCounter("swap.clustered.payload_bytes_written", &stats_.payload_bytes_written);
  registry->RegisterCounter("swap.clustered.blocks_reused", &stats_.blocks_reused);
  registry->RegisterCounter("swap.clustered.blocks_appended", &stats_.blocks_appended);
  registry->RegisterCounter("swap.clustered.coresident_pages_returned",
                            &stats_.coresident_pages_returned);
  registry->RegisterCounter("swap.clustered.readahead_blocks_read", &stats_.readahead_blocks_read);
  // Base-class counter (bumped when a coresident fails its CRC and is not
  // returned); published here so silent integrity drops are observable.
  registry->RegisterCounter("swap.clustered.coresidents_dropped", &coresidents_dropped_);
  registry->RegisterGauge("swap.clustered.live_pages",
                          [this] { return static_cast<double>(locations_.size()); });
  registry->RegisterGauge("swap.clustered.free_blocks",
                          [this] { return static_cast<double>(free_blocks()); });
  registry->RegisterGauge("swap.clustered.free_runs",
                          [this] { return static_cast<double>(free_runs()); });
}

size_t ClusteredSwapLayout::free_blocks() const {
  return static_cast<size_t>(std::count(live_frags_.begin(), live_frags_.end(), 0u));
}

size_t ClusteredSwapLayout::free_runs() const {
  size_t runs = 0;
  for (size_t block = 0; block < live_frags_.size(); ++block) {
    if (live_frags_[block] == 0 && (block == 0 || live_frags_[block - 1] != 0)) {
      ++runs;
    }
  }
  return runs;
}

uint64_t ClusteredSwapLayout::AllocateBlocks(uint64_t blocks) {
  CC_EXPECTS(blocks > 0);
  // First fit by address: the first `blocks` consecutive free blocks.
  const auto run = std::search_n(live_frags_.begin(), live_frags_.end(), blocks, 0u);
  if (run != live_frags_.end()) {
    stats_.blocks_reused += blocks;
    return static_cast<uint64_t>(run - live_frags_.begin());
  }
  // Otherwise extend the swap file.
  const uint64_t start = live_frags_.size();
  ResizeFile(start + blocks);
  stats_.blocks_appended += blocks;
  CC_ASSERT(live_frags_.size() * kFsBlockSize <= fs_->disk()->capacity());
  return start;
}

void ClusteredSwapLayout::ResizeFile(uint64_t blocks) {
  live_frags_.resize(blocks, 0);
  starts_.resize(blocks * kFragsPerBlock);
}

void ClusteredSwapLayout::AddLiveFrags(PageKey key, const Location& loc) {
  CC_ASSERT(!starts_[loc.frag_start].valid() && "two pages start at one fragment");
  starts_[loc.frag_start] = key;
  for (uint32_t i = 0; i < loc.frag_count; ++i) {
    ++live_frags_[(loc.frag_start + i) / kFragsPerBlock];
  }
}

void ClusteredSwapLayout::ReleaseLocation(const Location& loc) {
  starts_[loc.frag_start] = PageKey{};
  for (uint32_t i = 0; i < loc.frag_count; ++i) {
    uint32_t& live = live_frags_[(loc.frag_start + i) / kFragsPerBlock];
    CC_ASSERT(live > 0);
    --live;
  }
}

IoStatus ClusteredSwapLayout::WriteBatch(std::span<const SwapPageImage> pages) {
  if (pages.empty()) {
    return IoStatus::kOk;
  }
  // Lay out fragments within the batch. With spanning disallowed, a page whose
  // fragments would straddle a block boundary is pushed to the next block and the
  // gap becomes padding (the fragmentation cost the paper describes).
  struct Placement {
    const SwapPageImage* image;
    uint64_t rel_frag;
    uint32_t frag_count;
  };
  std::vector<Placement> placements;
  placements.reserve(pages.size());
  uint64_t rel = 0;  // fragment index relative to batch start
  for (const SwapPageImage& img : pages) {
    CC_EXPECTS(!img.bytes.empty());
    CC_EXPECTS(img.key.valid());
    const uint32_t frags = FragsFor(img.bytes.size());
    CC_EXPECTS(frags <= kFragsPerBlock || img.bytes.size() <= kPageSize);
    if (!options_.allow_block_spanning) {
      const uint64_t within = rel % kFragsPerBlock;
      if (within + frags > kFragsPerBlock) {
        rel += kFragsPerBlock - within;  // pad to next block
      }
    }
    placements.push_back(Placement{&img, rel, frags});
    rel += frags;
  }

  const uint64_t total_frags = rel;
  const uint64_t total_blocks = (total_frags + kFragsPerBlock - 1) / kFragsPerBlock;
  const uint64_t start_block = AllocateBlocks(total_blocks);
  const uint64_t start_frag = start_block * kFragsPerBlock;

  // Stage and write whole blocks in one operation; padding bytes are zero.
  std::vector<uint8_t> staging(total_blocks * kFsBlockSize, 0);
  for (const Placement& p : placements) {
    std::memcpy(staging.data() + p.rel_frag * kSwapFragmentSize, p.image->bytes.data(),
                p.image->bytes.size());
  }
  const IoStatus status = fs_->Write(file_, start_block * kFsBlockSize, staging);
  if (status != IoStatus::kOk) {
    // Nothing landed durably: leave the location map alone so prior copies of
    // these pages stay valid; the allocated blocks were never recorded and
    // stay free.
    return status;
  }

  if (journal_ != nullptr) {
    // Commit point: the data is on disk, and the batch becomes durable when
    // this record lands. A crash before the append leaves the old locations
    // as the durable prefix; a failed append is reported as a failed batch
    // (map untouched), matching what replay would reconstruct.
    std::vector<uint8_t> payload;
    wire::PutU64(payload, start_block);
    wire::PutU64(payload, total_blocks);
    wire::PutU32(payload, static_cast<uint32_t>(placements.size()));
    for (const Placement& p : placements) {
      const SwapPageImage& img = *p.image;
      wire::PutU32(payload, img.key.segment);
      wire::PutU32(payload, img.key.page);
      wire::PutU64(payload, start_frag + p.rel_frag);
      wire::PutU32(payload, p.frag_count);
      StoredImage::Of(img).Encode(payload);
    }
    if (journal_->Append(kRecBatch, payload) != IoStatus::kOk) {
      return IoStatus::kFailed;
    }
  }
  ++stats_.batches_written;
  stats_.fragment_bytes_written += staging.size();
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventKind::kSwapWriteBatch, fs_->disk()->clock()->Now(),
                    pages.size(), staging.size());
  }

  // Update the location map; prior copies become garbage.
  for (const Placement& p : placements) {
    const SwapPageImage& img = *p.image;
    if (const auto it = locations_.find(img.key); it != locations_.end()) {
      ReleaseLocation(it->second);
      locations_.erase(it);
    }
    const Location loc{start_frag + p.rel_frag, p.frag_count, StoredImage::Of(img)};
    AddLiveFrags(img.key, loc);
    const bool loc_ok = locations_.emplace(img.key, loc).second;
    CC_ASSERT(loc_ok);
    ++stats_.pages_written;
    stats_.payload_bytes_written += img.bytes.size();
  }
  return IoStatus::kOk;
}

ClusteredSwapLayout::ReadResult ClusteredSwapLayout::ReadPage(PageKey key,
                                                              bool collect_coresidents) {
  const auto it = locations_.find(key);
  CC_EXPECTS(it != locations_.end());
  const Location& loc = it->second;

  const uint64_t first_block = loc.frag_start / kFragsPerBlock;
  uint64_t last_block = (loc.frag_start + loc.frag_count - 1) / kFragsPerBlock;
  if (collect_coresidents && options_.readahead_blocks > 0) {
    // Fault batching: widen the read by adjacent blocks inside the same disk
    // operation (the seek and rotation are already paid; the widening costs
    // transfer only), bounded by the file's high-water mark. Live pages in
    // the extra blocks come back as coresidents below.
    const uint64_t widened =
        std::min(options_.readahead_blocks, end_block() - 1 - last_block);
    last_block += widened;
    stats_.readahead_blocks_read += widened;
  }
  const uint64_t blocks = last_block - first_block + 1;

  // Whole-block read (the restriction the paper laments: "there is no way to avoid
  // reading a minimum of 4 Kbytes to satisfy a page fault").
  const std::span<uint8_t> staging = ReadBuffer(blocks * kFsBlockSize);
  ReadResult result;
  result.blocks_read = blocks;
  if (fs_->Read(file_, first_block * kFsBlockSize, staging) != IoStatus::kOk) {
    result.status = IoStatus::kFailed;
    return result;
  }
  const uint64_t skip = (loc.frag_start - first_block * kFragsPerBlock) * kSwapFragmentSize;
  if (!TakeImage(loc.image, staging, skip, result) && tracer_ != nullptr) {
    tracer_->Record(TraceEventKind::kChecksumMismatch, fs_->disk()->clock()->Now(), key,
                    loc.image.checksum, Crc32(result.bytes));
  }
  ++stats_.pages_read;
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventKind::kSwapReadPage, fs_->disk()->clock()->Now(), key,
                    loc.image.byte_size, blocks);
  }

  if (collect_coresidents) {
    const uint64_t range_start = first_block * kFragsPerBlock;
    const uint64_t range_end = (last_block + 1) * kFragsPerBlock;
    for (uint64_t frag = range_start; frag < range_end; ++frag) {
      const PageKey other_key = starts_[frag];
      if (!other_key.valid() || other_key == key) {
        continue;
      }
      const Location& other = locations_.at(other_key);
      CC_ASSERT(other.frag_start == frag);
      if (other.frag_start + other.frag_count > range_end) {
        continue;  // only whole pages come along for free
      }
      const StoredImage::Slice co = other.image.SliceFrom(
          staging, (other.frag_start - range_start) * kSwapFragmentSize);
      // A coresident is a free bonus; a corrupt one is worse than none (it
      // would seed the ccache with a bad image), so drop it. Its on-disk copy
      // stays and a direct fault on it goes through the full recovery path.
      if (!co.verified) {
        ++coresidents_dropped_;
        continue;
      }
      result.coresidents.push_back(other.image.ImageOf(other_key, co.bytes));
      ++stats_.coresident_pages_returned;
    }
  }
  return result;
}

void ClusteredSwapLayout::Invalidate(PageKey key) {
  const auto it = locations_.find(key);
  if (it == locations_.end()) {
    return;
  }
  if (journal_ != nullptr) {
    std::vector<uint8_t> payload;
    wire::PutU32(payload, key.segment);
    wire::PutU32(payload, key.page);
    // On an append failure the in-memory release still happens — the pager
    // requires the copy gone — and replay would resurrect the page, which
    // recovery then treats as part of the durable prefix.
    (void)journal_->Append(kRecFree, payload);
  }
  ReleaseLocation(it->second);
  locations_.erase(it);
}

CompressedSwapBackend::MountStats ClusteredSwapLayout::Mount() {
  MountStats mount;
  if (journal_ == nullptr) {
    return mount;
  }
  CC_EXPECTS(locations_.empty() && live_frags_.empty());

  uint64_t end_block = 0;
  const auto replay = journal_->Replay([&](uint8_t type, std::span<const uint8_t> payload) {
    wire::Reader r(payload);
    if (type == kRecBatch) {
      const uint64_t start_block = r.U64();
      const uint64_t block_count = r.U64();
      const uint32_t npages = r.U32();
      if (!r.ok()) {
        return;
      }
      end_block = std::max(end_block, start_block + block_count);
      // The committed data write physically overwrote this extent, so any
      // earlier location still inside it is dead even if its free record
      // never became durable (a failed journal append is tolerated there).
      const uint64_t extent_first = start_block * kFragsPerBlock;
      const uint64_t extent_last = (start_block + block_count) * kFragsPerBlock;
      for (auto it = locations_.begin(); it != locations_.end();) {
        const Location& loc = it->second;
        if (loc.frag_start < extent_last && loc.frag_start + loc.frag_count > extent_first) {
          it = locations_.erase(it);
        } else {
          ++it;
        }
      }
      for (uint32_t i = 0; i < npages && r.ok(); ++i) {
        PageKey key;
        key.segment = r.U32();
        key.page = r.U32();
        Location loc;
        loc.frag_start = r.U64();
        loc.frag_count = r.U32();
        loc.image = StoredImage::Decode(r);
        if (r.ok()) {
          locations_[key] = loc;  // the newest committed copy wins
        }
      }
    } else if (type == kRecFree) {
      PageKey key;
      key.segment = r.U32();
      key.page = r.U32();
      if (r.ok()) {
        locations_.erase(key);
      }
    }
  });
  mount.journal_replays = replay.records;
  if (replay.torn) {
    ++mount.torn_writes_detected;
  }

  // Verify every surviving page's image before trusting it: a CRC-valid
  // journal record can still point at latently corrupted data.
  std::vector<PageKey> dropped;
  std::vector<uint8_t> buf;
  for (const auto& [key, loc] : locations_) {
    const uint32_t size = loc.image.byte_size;
    bool ok = loc.frag_count > 0 && size > 0 && size <= kPageSize &&
              size <= static_cast<uint64_t>(loc.frag_count) * kSwapFragmentSize &&
              loc.frag_start + loc.frag_count <= end_block * kFragsPerBlock;
    if (ok) {
      buf.resize(size);
      ok = fs_->Read(file_, loc.frag_start * kSwapFragmentSize, buf) == IoStatus::kOk &&
           loc.image.SliceFrom(buf, 0).verified;
    }
    if (!ok) {
      dropped.push_back(key);
    }
  }
  for (const PageKey key : dropped) {
    locations_.erase(key);
    ++mount.pages_dropped;
    ++mount.torn_writes_detected;
  }

  // Derive the block table and start index; every block no survivor lives in
  // is free.
  ResizeFile(end_block);
  for (const auto& [key, loc] : locations_) {
    AddLiveFrags(key, loc);
  }
  mount.pages_recovered = locations_.size();
  return mount;
}

void ClusteredSwapLayout::ForEachPage(const std::function<void(PageKey)>& fn) const {
  for (const auto& [key, loc] : locations_) {
    fn(key);
  }
}

void ClusteredSwapLayout::RegisterAuditChecks(InvariantAuditor* auditor) {
  CC_EXPECTS(auditor != nullptr);
  // Block conservation: each block's live count equals a recount of the
  // fragments the location map places in it. A block counted live that holds
  // no fragment is leaked; one holding fragments but counted free would be
  // handed out again.
  auditor->Register("swap.clustered", "block-conservation", [this]() -> std::optional<std::string> {
    std::vector<uint32_t> recount(live_frags_.size(), 0);
    for (const auto& [key, loc] : locations_) {
      if (loc.frag_count == 0 || loc.frag_start + loc.frag_count > starts_.size()) {
        return "location at fragment " + std::to_string(loc.frag_start) +
               " is empty or runs past the file's " + std::to_string(live_frags_.size()) +
               " blocks";
      }
      for (uint32_t i = 0; i < loc.frag_count; ++i) {
        ++recount[(loc.frag_start + i) / kFragsPerBlock];
      }
    }
    for (uint64_t block = 0; block < recount.size(); ++block) {
      if (recount[block] != live_frags_[block]) {
        return "block " + std::to_string(block) + " counts " + std::to_string(live_frags_[block]) +
               " live fragments, the location map places " + std::to_string(recount[block]) +
               " (leaked or double-counted fragments)";
      }
    }
    return std::nullopt;
  });
  // The start index must name exactly each location's first fragment.
  auditor->Register("swap.clustered", "index-coherent", [this]() -> std::optional<std::string> {
    if (starts_.size() != live_frags_.size() * kFragsPerBlock) {
      return "start index covers " + std::to_string(starts_.size()) + " fragments, the file " +
             std::to_string(live_frags_.size()) + " blocks";
    }
    const auto named = static_cast<size_t>(
        std::count_if(starts_.begin(), starts_.end(), [](PageKey k) { return k.valid(); }));
    if (named != locations_.size()) {
      return "start index names " + std::to_string(named) + " pages, locations has " +
             std::to_string(locations_.size());
    }
    for (const auto& [key, loc] : locations_) {
      if (loc.frag_start >= starts_.size() || !(starts_[loc.frag_start] == key)) {
        return "location of page at fragment " + std::to_string(loc.frag_start) +
               " is missing from the start index";
      }
      if (loc.image.byte_size == 0 || loc.image.byte_size > kPageSize) {
        return "stored size " + std::to_string(loc.image.byte_size) + " at fragment " +
               std::to_string(loc.frag_start) + " is outside (0, page size]";
      }
    }
    return std::nullopt;
  });
}

}  // namespace compcache
