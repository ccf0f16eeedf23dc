#include "swap/lfs_swap.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "util/assert.h"
#include "util/audit.h"
#include "util/checksum.h"
#include "util/wire.h"

namespace compcache {

namespace {

// Durable-format frame magics (both frames are [magic u32][payload_len u32]
// [payload][crc32c(payload) u32], little-endian).
constexpr uint32_t kSummaryMagic = 0x4C46'5353;  // "SSFL"
constexpr uint32_t kCkptMagic = 0x4C46'434B;     // "KCFL"
constexpr uint64_t kFrameOverhead = 12;

// Durable mode checkpoints the location map every this many segment flushes.
constexpr uint32_t kCheckpointInterval = 2;

std::vector<uint8_t> EncodeFrame(uint32_t magic, const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> frame;
  wire::PutU32(frame, magic);
  wire::PutU32(frame, static_cast<uint32_t>(payload.size()));
  frame.insert(frame.end(), payload.begin(), payload.end());
  wire::PutU32(frame, Crc32(payload));
  return frame;
}

enum class FrameCheck { kAbsent, kTorn, kOk };

// Checks the frame at the start of `raw` and points `payload` at its payload.
// kAbsent: `raw` does not start with `magic`. kTorn: the magic is right but
// the length or the CRC is not.
FrameCheck DecodeFrame(uint32_t magic, std::span<const uint8_t> raw,
                       std::span<const uint8_t>* payload) {
  wire::Reader header(raw);
  if (raw.size() < kFrameOverhead || header.U32() != magic) {
    return FrameCheck::kAbsent;
  }
  const uint64_t len = header.U32();
  if (kFrameOverhead + len > raw.size()) {
    return FrameCheck::kTorn;  // the tail never reached the disk
  }
  *payload = raw.subspan(8, len);
  wire::Reader tail(raw.subspan(8 + len));
  return tail.U32() == Crc32(*payload) ? FrameCheck::kOk : FrameCheck::kTorn;
}

}  // namespace

LfsSwapLayout::LfsSwapLayout(FileSystem* fs, FrameSource* frames, Options options)
    : fs_(fs), frames_(frames), options_(options) {
  CC_EXPECTS(fs_ != nullptr);
  CC_EXPECTS(options_.segment_blocks > 0);
  CC_EXPECTS(options_.log_segments > options_.clean_threshold + 1);
  if (options_.durable) {
    CC_EXPECTS(options_.segment_blocks >= 2);  // one block is the summary
    ckpt_files_[0] = fs_->OpenOrCreate("lfs_ckpt0");
    ckpt_files_[1] = fs_->OpenOrCreate("lfs_ckpt1");
  }
  file_ = fs_->OpenOrCreate("lfs_swap");
  open_buffer_.resize(SegmentBytes());
  segments_.resize(options_.log_segments);
  OpenFirstFreeSegment();

  // "LFS requires significant memory for buffers": the open segment's frames are
  // taken from the machine's pool for the lifetime of the backend.
  if (frames_ != nullptr) {
    for (uint32_t b = 0; b < options_.segment_blocks; ++b) {
      buffer_frames_.push_back(frames_->AllocateFrame());
    }
  }
}

LfsSwapLayout::~LfsSwapLayout() {
  if (frames_ != nullptr) {
    for (const FrameId frame : buffer_frames_) {
      frames_->FreeFrame(frame);
    }
  }
}

void LfsSwapLayout::ReleaseLocation(PageKey key) {
  const auto it = locations_.find(key);
  if (it == locations_.end()) {
    return;
  }
  const Location& loc = it->second;
  Segment& seg = segments_[loc.segment];
  CC_ASSERT(seg.live_bytes >= loc.image.byte_size);
  seg.live_bytes -= loc.image.byte_size;
  seg.members.erase(loc.offset);
  locations_.erase(it);
}

size_t LfsSwapLayout::CountSegments(SegmentState state) const {
  return static_cast<size_t>(std::ranges::count(segments_, state, &Segment::state));
}

void LfsSwapLayout::OpenFirstFreeSegment() {
  const auto it = std::ranges::find(segments_, SegmentState::kFree, &Segment::state);
  CC_ASSERT(it != segments_.end());
  it->state = SegmentState::kOpen;
  open_segment_ = static_cast<uint32_t>(it - segments_.begin());
  open_fill_ = 0;
  std::fill(open_buffer_.begin(), open_buffer_.end(), uint8_t{0});
}

IoStatus LfsSwapLayout::FlushOpenSegment() {
  // Durable mode records the keys invalidated since the last summary that are
  // still absent; a re-added key needs no deletion record, as its newest add
  // supersedes every older one at replay.
  std::vector<PageKey> dels;
  for (const PageKey& key : pending_dels_) {
    if (!locations_.contains(key)) {
      dels.push_back(key);
    }
  }
  if (open_fill_ == 0 && dels.empty()) {
    pending_dels_.clear();
    return IoStatus::kOk;  // nothing to write or to make durable
  }

  // One large sequential write — the LFS bandwidth win the paper cites.
  uint64_t length = (open_fill_ + kFsBlockSize - 1) / kFsBlockSize * kFsBlockSize;
  size_t ndels = 0;
  if (options_.durable) {
    // The summary goes into the segment's last block, written in the same
    // request as the data and after it: a power failure persists a prefix of
    // the request, so a summary never lands without the data it describes.
    std::sort(dels.begin(), dels.end(), [](PageKey a, PageKey b) {
      return a.segment != b.segment ? a.segment < b.segment : a.page < b.page;
    });
    const auto& adds = segments_[open_segment_].members;
    // Deletions that no longer fit beside the adds stay pending for a later
    // summary (only reachable after repeated flush failures let them pile up).
    ndels = dels.size();
    while (ndels > 0 && SummaryBytes(ndels, adds.size()) > kFsBlockSize) {
      --ndels;
    }
    CC_ASSERT(SummaryBytes(ndels, adds.size()) <= kFsBlockSize);
    std::vector<uint8_t> payload;
    wire::PutU64(payload, seq_ + 1);
    wire::PutU32(payload, static_cast<uint32_t>(ndels));
    wire::PutU32(payload, static_cast<uint32_t>(adds.size()));
    for (size_t i = 0; i < ndels; ++i) {
      wire::PutU32(payload, dels[i].segment);
      wire::PutU32(payload, dels[i].page);
    }
    for (const auto& [offset, key] : adds) {
      const Location& loc = locations_.at(key);
      wire::PutU32(payload, key.segment);
      wire::PutU32(payload, key.page);
      wire::PutU32(payload, loc.offset);
      loc.image.Encode(payload);
    }
    const std::vector<uint8_t> frame = EncodeFrame(kSummaryMagic, payload);
    CC_ASSERT(frame.size() == SummaryBytes(ndels, adds.size()));
    std::fill(open_buffer_.begin() + DataBytes(), open_buffer_.end(), uint8_t{0});
    std::memcpy(open_buffer_.data() + DataBytes(), frame.data(), frame.size());
    length = SegmentBytes();
  }
  const uint64_t disk_offset = static_cast<uint64_t>(open_segment_) * SegmentBytes();
  const IoStatus status =
      fs_->Write(file_, disk_offset, std::span<const uint8_t>(open_buffer_.data(), length));
  if (status != IoStatus::kOk) {
    // Keep the open segment as it is: its pages remain readable from the
    // buffer, and the next append retries the flush.
    return status;
  }
  ++stats_.segments_written;
  segments_[open_segment_].state = SegmentState::kClosed;
  OpenFirstFreeSegment();
  if (options_.durable) {
    ++seq_;
    pending_dels_.clear();
    pending_dels_.insert(dels.begin() + ndels, dels.end());  // the ones that did not fit
    if (++flushes_since_checkpoint_ >= kCheckpointInterval) {
      (void)WriteCheckpoint();  // the open buffer is empty right now
    }
  }
  return IoStatus::kOk;
}

bool LfsSwapLayout::WriteCheckpoint() {
  CC_EXPECTS(options_.durable);
  CC_EXPECTS(open_fill_ == 0);  // the captured map must reference only flushed segments
  std::vector<uint8_t> payload;
  wire::PutU64(payload, seq_ + 1);
  wire::PutU32(payload, static_cast<uint32_t>(locations_.size()));
  // Iterate the segment table (segment-major, offset-minor) for deterministic
  // bytes.
  for (const Segment& seg : segments_) {
    for (const auto& [offset, key] : seg.members) {
      const Location& loc = locations_.at(key);
      wire::PutU32(payload, key.segment);
      wire::PutU32(payload, key.page);
      wire::PutU32(payload, loc.segment);
      wire::PutU32(payload, loc.offset);
      loc.image.Encode(payload);
    }
  }
  if (fs_->Write(ckpt_files_[ckpt_slot_], 0, EncodeFrame(kCkptMagic, payload)) !=
      IoStatus::kOk) {
    return false;  // retried at the next checkpoint opportunity
  }
  ++seq_;
  ckpt_slot_ ^= 1u;
  flushes_since_checkpoint_ = 0;
  ++stats_.checkpoints_written;
  // The captured map is durable, so the stale summaries of cleaned victims are
  // now superseded: the segments may be overwritten.
  for (Segment& seg : segments_) {
    if (seg.state == SegmentState::kPendingFree) {
      seg.state = SegmentState::kFree;
    }
  }
  return true;
}

IoStatus LfsSwapLayout::AppendImage(const SwapPageImage& img, bool count_as_write) {
  CC_EXPECTS(!img.bytes.empty());
  CC_EXPECTS(img.bytes.size() <= DataBytes());
  bool need_flush = open_fill_ + img.bytes.size() > DataBytes();
  if (!need_flush && options_.durable) {
    // The summary must hold one more add record beside the pending deletions.
    need_flush =
        SummaryBytes(pending_dels_.size(), segments_[open_segment_].members.size() + 1) >
        kFsBlockSize;
  }
  if (need_flush) {
    if (FlushOpenSegment() != IoStatus::kOk) {
      return IoStatus::kFailed;  // no room and no flush: the old copy stays valid
    }
  }
  ReleaseLocation(img.key);  // the old copy (if any) becomes segment garbage

  const Location loc{open_segment_, open_fill_, StoredImage::Of(img)};
  std::memcpy(open_buffer_.data() + open_fill_, img.bytes.data(), img.bytes.size());
  open_fill_ += static_cast<uint32_t>(img.bytes.size());
  Segment& seg = segments_[loc.segment];
  seg.live_bytes += loc.image.byte_size;
  seg.members.emplace(loc.offset, img.key);
  locations_[img.key] = loc;
  if (count_as_write) {
    ++stats_.pages_written;
  }
  if (open_fill_ == DataBytes()) {
    // Exactly full: write it out now. A failure here is not the append's
    // problem — the image is safely in the buffer and the flush is retried.
    (void)FlushOpenSegment();
  }
  return IoStatus::kOk;
}

uint32_t LfsSwapLayout::PickVictimSegment() const {
  // Pick the closed segment with the least live data (greedy, as LFS does).
  uint32_t victim = UINT32_MAX;
  uint64_t victim_live = UINT64_MAX;
  for (uint32_t s = 0; s < options_.log_segments; ++s) {
    if (segments_[s].state == SegmentState::kClosed && segments_[s].live_bytes < victim_live) {
      victim_live = segments_[s].live_bytes;
      victim = s;
    }
  }
  return victim;
}

bool LfsSwapLayout::CleanOneSegment() {
  const uint32_t victim = PickVictimSegment();
  CC_ASSERT(victim != UINT32_MAX && "LFS log full of live data");
  if (segments_[victim].live_bytes > 0) {
    // Read the whole victim segment and re-append its live pages — the copying
    // cost the paper warns swap data inflicts on LFS cleaning.
    std::vector<uint8_t> segment(SegmentBytes());
    if (fs_->Read(file_, static_cast<uint64_t>(victim) * SegmentBytes(), segment) !=
        IoStatus::kOk) {
      return false;  // victim untouched; try again on the next write
    }
    // Members mutate as we re-append; snapshot first.
    std::vector<std::pair<uint32_t, PageKey>> live(segments_[victim].members.begin(),
                                                   segments_[victim].members.end());
    for (const auto& [offset, key] : live) {
      const StoredImage image = locations_.at(key).image;
      const SwapPageImage img = image.ImageOf(
          key, std::span<const uint8_t>(segment).subspan(offset, image.byte_size));
      if (AppendImage(img, /*count_as_write=*/false) != IoStatus::kOk) {
        // The copy stalled mid-segment; pages already moved are fine, the rest
        // stay live in the victim, which therefore cannot be freed yet.
        return false;
      }
      ++stats_.live_pages_copied;
    }
  }
  Segment& seg = segments_[victim];
  CC_ASSERT(seg.live_bytes == 0 && seg.members.empty());
  seg.state = options_.durable ? SegmentState::kPendingFree : SegmentState::kFree;
  ++stats_.segments_cleaned;
  return true;
}

void LfsSwapLayout::MaybeClean() {
  if (cleaning_) {
    return;  // re-appends during cleaning must not recurse
  }
  cleaning_ = true;
  while (CountSegments(SegmentState::kFree) + CountSegments(SegmentState::kPendingFree) <
         options_.clean_threshold) {
    if (!CleanOneSegment()) {
      break;  // device trouble: postpone cleaning rather than wedge
    }
    if (options_.durable && CountSegments(SegmentState::kFree) <= 1) {
      // Down to the last free segment: free the cleaned ones now (flush +
      // checkpoint) so the cleaner's own re-appends cannot strand the log
      // without a free segment.
      if (FlushOpenSegment() != IoStatus::kOk || !WriteCheckpoint()) {
        break;
      }
    }
  }
  cleaning_ = false;
  if (options_.durable && CountSegments(SegmentState::kPendingFree) > 0 &&
      CountSegments(SegmentState::kFree) < options_.clean_threshold) {
    // Cleaned segments only become reusable once a checkpoint captures their
    // re-appended pages; flush to reach an open-buffer-empty point, then
    // checkpoint to free them.
    if (FlushOpenSegment() == IoStatus::kOk &&
        CountSegments(SegmentState::kPendingFree) > 0) {
      (void)WriteCheckpoint();
    }
  }
}

IoStatus LfsSwapLayout::WriteBatch(std::span<const SwapPageImage> pages) {
  IoStatus status = IoStatus::kOk;
  for (const SwapPageImage& img : pages) {
    if (AppendImage(img, /*count_as_write=*/true) != IoStatus::kOk) {
      status = IoStatus::kFailed;  // this image kept its old copy (if any)
    }
  }
  MaybeClean();
  return status;
}

CompressedSwapBackend::ReadResult LfsSwapLayout::ReadPage(PageKey key,
                                                          bool collect_coresidents) {
  const auto it = locations_.find(key);
  CC_EXPECTS(it != locations_.end());
  const Location loc = it->second;
  ReadResult result;
  ++stats_.pages_read;

  if (loc.segment == open_segment_) {
    // Still in the write buffer: no I/O at all.
    ++stats_.reads_from_buffer;
    TakeImage(loc.image, open_buffer_, loc.offset, result);
    return result;
  }

  // Block-aligned read of the covering blocks, like the other layouts.
  const uint64_t seg_base = static_cast<uint64_t>(loc.segment) * SegmentBytes();
  const uint64_t first_block = loc.offset / kFsBlockSize;
  const uint64_t last_block = (loc.offset + loc.image.byte_size - 1) / kFsBlockSize;
  const std::span<uint8_t> staging = ReadBuffer((last_block - first_block + 1) * kFsBlockSize);
  if (fs_->Read(file_, seg_base + first_block * kFsBlockSize, staging) != IoStatus::kOk) {
    result.status = IoStatus::kFailed;
    return result;
  }
  result.blocks_read = last_block - first_block + 1;
  TakeImage(loc.image, staging, loc.offset - first_block * kFsBlockSize, result);

  if (collect_coresidents) {
    const uint64_t range_start = first_block * kFsBlockSize;
    const uint64_t range_end = (last_block + 1) * kFsBlockSize;
    const auto& members = segments_[loc.segment].members;
    for (auto pos = members.lower_bound(static_cast<uint32_t>(range_start));
         pos != members.end() && pos->first < range_end; ++pos) {
      if (pos->second == key) {
        continue;
      }
      const Location& other = locations_.at(pos->second);
      if (other.offset + other.image.byte_size > range_end) {
        continue;
      }
      const StoredImage::Slice slice =
          other.image.SliceFrom(staging, other.offset - range_start);
      if (!slice.verified) {
        ++coresidents_dropped_;  // never seed the ccache with a bad image
        continue;
      }
      result.coresidents.push_back(other.image.ImageOf(pos->second, slice.bytes));
    }
  }
  return result;
}

void LfsSwapLayout::Invalidate(PageKey key) {
  const bool present = locations_.contains(key);
  ReleaseLocation(key);
  if (options_.durable && present) {
    pending_dels_.insert(key);
    if (SummaryBytes(pending_dels_.size(), segments_[open_segment_].members.size()) >
        kFsBlockSize) {
      (void)FlushOpenSegment();  // make room; on failure the del stays pending
    }
  }
}

CompressedSwapBackend::MountStats LfsSwapLayout::Mount() {
  MountStats mount;
  if (!options_.durable) {
    return mount;
  }
  CC_EXPECTS(locations_.empty() && open_fill_ == 0);

  // 1. Newest valid checkpoint wins; the other slot is the next write target.
  uint64_t best_seq = 0;
  int best_slot = -1;
  std::unordered_map<PageKey, Location, PageKeyHash> best_map;
  for (int slot = 0; slot < 2; ++slot) {
    const uint64_t size = fs_->FileSize(ckpt_files_[slot]);
    if (size < kFrameOverhead) {
      continue;  // never written
    }
    std::vector<uint8_t> raw(size);
    std::span<const uint8_t> payload;
    if (fs_->Read(ckpt_files_[slot], 0, raw) != IoStatus::kOk ||
        DecodeFrame(kCkptMagic, raw, &payload) != FrameCheck::kOk) {
      ++mount.torn_writes_detected;
      continue;
    }
    wire::Reader p(payload);
    const uint64_t seq = p.U64();
    const uint32_t count = p.U32();
    std::unordered_map<PageKey, Location, PageKeyHash> map;
    map.reserve(count);
    for (uint32_t i = 0; i < count && p.ok(); ++i) {
      PageKey key;
      key.segment = p.U32();
      key.page = p.U32();
      Location loc;
      loc.segment = p.U32();
      loc.offset = p.U32();
      loc.image = StoredImage::Decode(p);
      map[key] = loc;
    }
    if (!p.ok()) {
      ++mount.torn_writes_detected;
      continue;
    }
    if (seq > best_seq) {
      best_seq = seq;
      best_slot = slot;
      best_map = std::move(map);
    }
  }
  if (best_slot >= 0) {
    locations_ = std::move(best_map);
    ckpt_slot_ = static_cast<uint32_t>(best_slot) ^ 1u;
    ++mount.checkpoint_loads;
  }
  seq_ = best_seq;

  // 2. Roll forward: parse every segment summary newer than the checkpoint and
  // apply them in sequence order, deletions before additions (so an
  // invalidate-then-rewrite inside one flush window resolves to the rewrite).
  struct AddRec {
    PageKey key;
    Location loc;
  };
  struct Summary {
    uint64_t seq = 0;
    std::vector<PageKey> dels;
    std::vector<AddRec> adds;
  };
  std::vector<Summary> newer;
  const uint64_t fsize = fs_->FileSize(file_);
  for (uint32_t s = 0; s < options_.log_segments; ++s) {
    const uint64_t off = static_cast<uint64_t>(s) * SegmentBytes() + DataBytes();
    if (off + kFsBlockSize > fsize) {
      continue;  // segment never flushed
    }
    std::vector<uint8_t> block(kFsBlockSize);
    if (fs_->Read(file_, off, block) != IoStatus::kOk) {
      ++mount.torn_writes_detected;
      continue;
    }
    std::span<const uint8_t> payload;
    const FrameCheck check = DecodeFrame(kSummaryMagic, block, &payload);
    if (check == FrameCheck::kAbsent) {
      continue;  // never flushed, or the crash tore the segment before its summary
    }
    if (check == FrameCheck::kTorn) {
      ++mount.torn_writes_detected;
      continue;
    }
    wire::Reader p(payload);
    Summary sum;
    sum.seq = p.U64();
    const uint32_t ndels = p.U32();
    const uint32_t nadds = p.U32();
    for (uint32_t i = 0; i < ndels && p.ok(); ++i) {
      PageKey key;
      key.segment = p.U32();
      key.page = p.U32();
      sum.dels.push_back(key);
    }
    for (uint32_t i = 0; i < nadds && p.ok(); ++i) {
      AddRec rec;
      rec.key.segment = p.U32();
      rec.key.page = p.U32();
      rec.loc.segment = s;  // adds always describe the summary's own segment
      rec.loc.offset = p.U32();
      rec.loc.image = StoredImage::Decode(p);
      sum.adds.push_back(rec);
    }
    if (!p.ok()) {
      ++mount.torn_writes_detected;
      continue;
    }
    if (sum.seq <= best_seq) {
      continue;  // already captured by the checkpoint
    }
    newer.push_back(std::move(sum));
  }
  std::sort(newer.begin(), newer.end(),
            [](const Summary& a, const Summary& b) { return a.seq < b.seq; });
  for (const Summary& sum : newer) {
    for (const PageKey& key : sum.dels) {
      locations_.erase(key);
    }
    for (const AddRec& rec : sum.adds) {
      locations_[rec.key] = rec.loc;  // newest add wins
    }
    seq_ = std::max(seq_, sum.seq);
    ++mount.journal_replays;
  }

  // 3. Verify every survivor's image; bad ones degrade through the pager's
  // lost ladder instead of faulting in corrupt data later.
  std::vector<uint8_t> buf;
  for (auto it = locations_.begin(); it != locations_.end();) {
    const Location& loc = it->second;
    const uint32_t size = loc.image.byte_size;
    bool ok = loc.segment < options_.log_segments && size > 0 && size <= kPageSize &&
              static_cast<uint64_t>(loc.offset) + size <= DataBytes();
    if (ok) {
      buf.assign(size, 0);
      ok = fs_->Read(file_,
                     static_cast<uint64_t>(loc.segment) * SegmentBytes() + loc.offset,
                     buf) == IoStatus::kOk &&
           loc.image.SliceFrom(buf, 0).verified;
    }
    if (ok) {
      ++it;
    } else {
      ++mount.pages_dropped;
      ++mount.torn_writes_detected;
      it = locations_.erase(it);
    }
  }

  // 4. Rebuild the segment table from the recovered map: a segment holding a
  // live page is closed, every other one is free.
  segments_.assign(options_.log_segments, Segment{});
  pending_dels_.clear();
  for (const auto& [key, loc] : locations_) {
    Segment& seg = segments_[loc.segment];
    seg.state = SegmentState::kClosed;
    seg.live_bytes += loc.image.byte_size;
    seg.members.emplace(loc.offset, key);
  }
  OpenFirstFreeSegment();
  flushes_since_checkpoint_ = 0;

  mount.pages_recovered = locations_.size();
  return mount;
}

void LfsSwapLayout::ForEachPage(const std::function<void(PageKey)>& fn) const {
  for (const auto& [key, loc] : locations_) {
    fn(key);
  }
}

void LfsSwapLayout::RegisterAuditChecks(InvariantAuditor* auditor) {
  CC_EXPECTS(auditor != nullptr);
  // A free or pending-free segment that still holds a page was freed with live
  // data; an open segment other than open_segment_ was leaked by a flush.
  auditor->Register("swap.lfs", "free-list-coherent", [this]() -> std::optional<std::string> {
    for (uint32_t s = 0; s < options_.log_segments; ++s) {
      const Segment& seg = segments_[s];
      if ((seg.state == SegmentState::kOpen) != (s == open_segment_)) {
        return "segment " + std::to_string(s) +
               (s == open_segment_ ? " is the open segment but not open"
                                   : " is open but is not the open segment");
      }
      if ((seg.state == SegmentState::kFree || seg.state == SegmentState::kPendingFree) &&
          (seg.live_bytes != 0 || !seg.members.empty())) {
        return "free segment " + std::to_string(s) + " still has " +
               std::to_string(seg.live_bytes) + " live bytes / " +
               std::to_string(seg.members.size()) + " members";
      }
    }
    return std::nullopt;
  });
  // Each segment's live bytes and members are incremental caches over
  // locations_; recompute them from scratch and compare. A stuck live-byte
  // count is how a leaked location (e.g. from a partially failed batch) shows
  // up.
  auditor->Register("swap.lfs", "live-bytes-conserved", [this]() -> std::optional<std::string> {
    std::vector<uint64_t> recount(options_.log_segments, 0);
    uint64_t total_members = 0;
    for (const auto& [key, loc] : locations_) {
      if (loc.segment >= options_.log_segments) {
        return "location points at segment " + std::to_string(loc.segment) +
               " beyond the log";
      }
      if (loc.image.byte_size == 0) {
        return "location in segment " + std::to_string(loc.segment) + " has zero size";
      }
      recount[loc.segment] += loc.image.byte_size;
      const auto& mem = segments_[loc.segment].members;
      const auto it = mem.find(loc.offset);
      if (it == mem.end() || !(it->second == key)) {
        return "location at segment " + std::to_string(loc.segment) + " offset " +
               std::to_string(loc.offset) + " is missing from the member table";
      }
      ++total_members;
    }
    uint64_t member_entries = 0;
    for (const Segment& seg : segments_) {
      member_entries += seg.members.size();
    }
    if (member_entries != total_members) {
      return "member tables hold " + std::to_string(member_entries) +
             " entries, location map holds " + std::to_string(total_members) +
             " (leaked member entries)";
    }
    for (uint32_t s = 0; s < options_.log_segments; ++s) {
      if (recount[s] != segments_[s].live_bytes) {
        return "segment " + std::to_string(s) + " live_bytes " +
               std::to_string(segments_[s].live_bytes) + " != recomputed " +
               std::to_string(recount[s]);
      }
    }
    return std::nullopt;
  });
}

void LfsSwapLayout::BindMetrics(MetricRegistry* registry) {
  CC_EXPECTS(registry != nullptr);
  registry->RegisterCounter("swap.lfs.pages_written", &stats_.pages_written);
  registry->RegisterCounter("swap.lfs.pages_read", &stats_.pages_read);
  registry->RegisterCounter("swap.lfs.segments_written", &stats_.segments_written);
  registry->RegisterCounter("swap.lfs.segments_cleaned", &stats_.segments_cleaned);
  registry->RegisterCounter("swap.lfs.live_pages_copied", &stats_.live_pages_copied);
  registry->RegisterCounter("swap.lfs.reads_from_buffer", &stats_.reads_from_buffer);
  registry->RegisterCounter("swap.lfs.checkpoints_written", &stats_.checkpoints_written);
  // Base-class counter, same drop path as the clustered layout's.
  registry->RegisterCounter("swap.lfs.coresidents_dropped", &coresidents_dropped_);
  registry->RegisterGauge("swap.lfs.free_segments",
                          [this] { return static_cast<double>(free_segments()); });
}

}  // namespace compcache
