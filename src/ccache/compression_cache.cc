#include "ccache/compression_cache.h"

#include <algorithm>
#include <cstring>

#include <string>

#include "util/assert.h"
#include "util/audit.h"
#include "util/checksum.h"
#include "util/units.h"

namespace compcache {

CompressionCache::CompressionCache(Clock* clock, const CostModel* costs, FrameSource* frames,
                                   Codec* codec, CompressedSwapBackend* swap, CcacheEvents* events,
                                   CcacheOptions options)
    : clock_(clock),
      costs_(costs),
      frames_(frames),
      codec_(codec),
      swap_(swap),
      events_(events),
      options_(options) {
  CC_EXPECTS(clock_ != nullptr && costs_ != nullptr && frames_ != nullptr);
  CC_EXPECTS(codec_ != nullptr && swap_ != nullptr && events_ != nullptr);
  // The ring reserves one page of slack so that the head and tail regions can
  // never alias the same physical slot (see AppendEntry).
  CC_EXPECTS(options_.max_slots >= 4);
  slots_.assign(options_.max_slots, FrameId{});
  live_bytes_.assign(options_.max_slots, 0);
}

CompressionCache::~CompressionCache() {
  for (FrameId& frame : slots_) {
    if (frame.valid()) {
      frames_->FreeFrame(frame);
      frame = FrameId{};
    }
  }
}

void CompressionCache::CopyIn(uint64_t linear_off, std::span<const uint8_t> data) {
  size_t done = 0;
  while (done < data.size()) {
    const size_t slot = SlotOf(linear_off + done);
    const uint64_t within = (linear_off + done) % kPageSize;
    const size_t n =
        static_cast<size_t>(std::min<uint64_t>(kPageSize - within, data.size() - done));
    CC_ASSERT(slots_[slot].valid());
    std::memcpy(frames_->FrameData(slots_[slot]).data() + within, data.data() + done, n);
    done += n;
  }
}

void CompressionCache::CopyOut(uint64_t linear_off, std::span<uint8_t> out) const {
  size_t done = 0;
  while (done < out.size()) {
    const size_t slot = SlotOf(linear_off + done);
    const uint64_t within = (linear_off + done) % kPageSize;
    const size_t n =
        static_cast<size_t>(std::min<uint64_t>(kPageSize - within, out.size() - done));
    CC_ASSERT(slots_[slot].valid());
    // frames_ is logically const here; FrameData lacks a const overload on the
    // interface, so go through the non-const pointer.
    auto* self = const_cast<CompressionCache*>(this);
    std::memcpy(out.data() + done, self->frames_->FrameData(slots_[slot]).data() + within, n);
    done += n;
  }
}

void CompressionCache::AddLiveBytes(uint64_t header_off, uint64_t end_off, int64_t sign) {
  CC_EXPECTS(end_off > header_off);
  for (uint64_t ls = header_off / kPageSize; ls <= (end_off - 1) / kPageSize; ++ls) {
    const uint64_t lo = std::max(header_off, ls * kPageSize);
    const uint64_t hi = std::min(end_off, (ls + 1) * kPageSize);
    const size_t slot = static_cast<size_t>(ls % options_.max_slots);
    if (sign > 0) {
      if (live_bytes_[slot] == 0) {
        dead_slots_.erase(slot);
      }
      live_bytes_[slot] += hi - lo;
    } else {
      CC_ASSERT(live_bytes_[slot] >= hi - lo);
      live_bytes_[slot] -= hi - lo;
      if (live_bytes_[slot] == 0 && slots_[slot].valid()) {
        dead_slots_.insert(slot);
      }
    }
  }
}

bool CompressionCache::FreeOneDeadSlot() {
  // Never free the slots the next append will write into (the tail area); a
  // recursive reclaim freeing them would just force an immediate remap.
  size_t excluded[3];
  for (int k = 0; k < 3; ++k) {
    excluded[k] = SlotOf(tail_off_ + static_cast<uint64_t>(k) * kPageSize);
  }
  for (const size_t slot : dead_slots_) {
    if (slot == excluded[0] || slot == excluded[1] || slot == excluded[2]) {
      continue;
    }
    CC_ASSERT(slots_[slot].valid());
    CC_ASSERT(live_bytes_[slot] == 0);
    frames_->FreeFrame(slots_[slot]);
    slots_[slot] = FrameId{};
    --mapped_count_;
    dead_slots_.erase(slot);
    return true;
  }
  return false;
}

void CompressionCache::EnsureMappedForAppend(uint64_t need) {
  // Map every slot covering [tail_off_, tail_off_ + need). Allocating a frame can
  // recurse into this cache (frame allocation -> arbiter -> VM eviction -> nested
  // insert), which can move the tail and even map or free the very slots we are
  // working on. Three defenses:
  //   * the slot range is recomputed from the live tail on every pass, so a stale
  //     range never fights the dead-slot reclaimer over obsolete slots;
  //   * after AllocateFrame returns, the slot is re-checked: if a nested call
  //     mapped it meanwhile, the spare frame goes back instead of clobbering the
  //     live mapping;
  //   * the function only returns after a full pass that performed no allocation
  //     with the tail unmoved — i.e., a provably stable mapping.
  while (true) {
    const uint64_t tail_snapshot = tail_off_;
    const uint64_t first = tail_snapshot / kPageSize;
    const uint64_t last = (tail_snapshot + need - 1) / kPageSize;
    bool stable = true;
    for (uint64_t ls = first; ls <= last && tail_off_ == tail_snapshot; ++ls) {
      const size_t slot = static_cast<size_t>(ls % options_.max_slots);
      if (!slots_[slot].valid()) {
        stable = false;
        const FrameId frame = frames_->AllocateFrame();
        if (slots_[slot].valid()) {
          frames_->FreeFrame(frame);  // a recursive append mapped it; keep theirs
        } else {
          slots_[slot] = frame;
          ++mapped_count_;
          stats_.frames_mapped_peak =
              std::max<uint64_t>(stats_.frames_mapped_peak, mapped_count_);
          if (live_bytes_[slot] == 0) {
            dead_slots_.insert(slot);  // no entry bytes yet; the tail guard
                                       // protects the current append range
          }
        }
      }
    }
    if (stable && tail_off_ == tail_snapshot) {
      return;
    }
    if (tail_off_ != tail_snapshot) {
      // Nested appends moved the tail; AppendEntry's retry loop re-validates
      // space, then we re-map against the fresh range.
      return;
    }
  }
}

void CompressionCache::AppendEntry(PageKey key, std::span<const uint8_t> payload,
                                   uint32_t checksum, uint32_t original_size, bool dirty,
                                   bool zero_page) {
  CC_EXPECTS(!Contains(key));
  CC_EXPECTS(!zero_page || payload.empty());
  const uint64_t need = kEntryHeaderBytes + payload.size();
  const uint64_t capacity = static_cast<uint64_t>(options_.max_slots) * kPageSize;
  const uint64_t effective_capacity = capacity - kPageSize;  // head/tail anti-alias slack
  CC_EXPECTS(need <= effective_capacity);

  // Reserving space and mapping frames can both recurse into this cache (see
  // EnsureMappedForAppend), moving head_off_ and tail_off_ underneath us. Loop
  // until a pass completes with the tail unmoved and the space still reserved.
  int append_spins = 0;
  while (true) {
    CC_ASSERT(++append_spins < 1'000'000 && "AppendEntry livelock");
    while (tail_off_ + need - head_off_ > effective_capacity) {
      ReclaimHeadFrame();
    }
    const uint64_t tail_snapshot = tail_off_;
    EnsureMappedForAppend(need);
    if (tail_off_ == tail_snapshot &&
        tail_off_ + need - head_off_ <= effective_capacity) {
      break;
    }
  }

  Entry e;
  e.key = key;
  e.header_off = tail_off_;
  e.payload_size = static_cast<uint32_t>(payload.size());
  e.original_size = original_size;
  e.zero_page = zero_page;
  e.dirty = dirty;
  e.valid = true;
  e.age_ns = static_cast<uint64_t>(clock_->Now().nanos());

  if (!payload.empty()) {
    // The paper's 36-byte per-page header carries the payload CRC-32C in its
    // first word; the Entry keeps a copy so verification needs no header read.
    e.checksum = checksum;
    const uint8_t hdr[4] = {static_cast<uint8_t>(e.checksum),
                            static_cast<uint8_t>(e.checksum >> 8),
                            static_cast<uint8_t>(e.checksum >> 16),
                            static_cast<uint8_t>(e.checksum >> 24)};
    CopyIn(e.header_off, hdr);
  }
  CopyIn(e.payload_off(), payload);
  entries_.push_back(e);
  index_[key] = base_seq_ + entries_.size() - 1;
  AddLiveBytes(e.header_off, e.end_off(), +1);
  tail_off_ = e.end_off();
}

void CompressionCache::BindMetrics(MetricRegistry* registry) {
  CC_EXPECTS(registry != nullptr);
  registry->RegisterCounter("ccache.pages_compressed", &stats_.pages_compressed);
  registry->RegisterCounter("ccache.pages_kept", &stats_.pages_kept);
  registry->RegisterCounter("ccache.pages_rejected", &stats_.pages_rejected);
  registry->RegisterCounter("ccache.fault_hits", &stats_.fault_hits);
  registry->RegisterCounter("ccache.inserted_from_swap", &stats_.inserted_from_swap);
  registry->RegisterCounter("ccache.entries_cleaned", &stats_.entries_cleaned);
  registry->RegisterCounter("ccache.entries_dropped", &stats_.entries_dropped);
  registry->RegisterCounter("ccache.invalidations", &stats_.invalidations);
  // The peak is a state gauge, not an event counter: RestartPeak re-baselines
  // it to the current mapping, which may read lower than the previous peak.
  registry->RegisterGauge("ccache.frames_mapped_peak", [this] {
    return static_cast<double>(stats_.frames_mapped_peak);
  });
  registry->RegisterCounter("ccache.adaptive_skips", &stats_.adaptive_skips);
  registry->RegisterCounter("ccache.adaptive_probes", &stats_.adaptive_probes);
  registry->RegisterCounter("ccache.adaptive_disables", &stats_.adaptive_disables);
  registry->RegisterCounter("ccache.adaptive_reenables", &stats_.adaptive_reenables);
  registry->RegisterCounter("ccache.zero_pages", &stats_.zero_pages);
  registry->RegisterCounter("ccache.zero_fault_hits", &stats_.zero_fault_hits);
  registry->RegisterCounter("ccache.original_bytes_kept", &stats_.original_bytes_kept);
  registry->RegisterCounter("ccache.compressed_bytes_kept", &stats_.compressed_bytes_kept);
  registry->RegisterCounter("ccache.checksum_mismatches", &stats_.checksum_mismatches);
  registry->RegisterCounter("ccache.entries_lost", &stats_.entries_lost);
  registry->RegisterCounter("ccache.write_batch_failures", &stats_.write_batch_failures);
  registry->RegisterGauge("ccache.frames_mapped",
                          [this] { return static_cast<double>(mapped_count_); });
  registry->RegisterGauge("ccache.live_entries",
                          [this] { return static_cast<double>(index_.size()); });
  registry->RegisterGauge("ccache.used_bytes",
                          [this] { return static_cast<double>(used_bytes()); });
  kept_ratio_hist_ = registry->BindHistogram("ccache.kept_ratio_pct");
}

CompressionCache::Entry* CompressionCache::Find(PageKey key) {
  const auto it = index_.find(key);
  if (it == index_.end()) {
    return nullptr;
  }
  CC_ASSERT(it->second >= base_seq_);
  Entry& e = entries_[static_cast<size_t>(it->second - base_seq_)];
  CC_ASSERT(e.key == key);
  CC_ASSERT(e.valid);
  return &e;
}

const CompressionCache::Entry* CompressionCache::Find(PageKey key) const {
  return const_cast<CompressionCache*>(this)->Find(key);
}

CompressionCache::CompressOutcome CompressionCache::CompressPage(
    std::span<const uint8_t> page) {
  CC_EXPECTS(page.size() == kPageSize);
  CompressOutcome outcome;

  // Zero-page fast path (after Pekhimenko/ZipCache: same-value pages dominate
  // real compressed-memory traffic): a word-wise scan is an order of magnitude
  // cheaper than any codec, and an all-zero page needs no codec, no CRC, and no
  // ring payload — just a marker entry. Runs even while compression is
  // adaptively disabled, since the scan costs almost nothing.
  clock_->Advance(costs_->ZeroScanCost(page.size()), TimeCategory::kCompression);
  if (IsZeroPage(page)) {
    // The kCompressKept trace event is recorded at insertion, as usual.
    ++stats_.zero_pages;
    outcome.keep = true;
    outcome.zero = true;
    return outcome;
  }

  // Adaptive disable (paper section 6): when recent pages have been almost all
  // uncompressible, skip the attempt entirely — no effort wasted — probing one in
  // every probe_interval evictions to notice a change of workload.
  const AdaptiveCompressionOptions& adaptive = options_.adaptive;
  if (adaptive.enabled && compression_disabled_) {
    if (++skips_since_probe_ < adaptive.probe_interval) {
      ++stats_.adaptive_skips;
      return outcome;
    }
    skips_since_probe_ = 0;
    ++stats_.adaptive_probes;
  }

  // Compression time is charged unconditionally: for pages that fail the
  // threshold it is the paper's "wasted effort". The buffer comes from the
  // caller's open arena Scope: insertion can recurse into another compression
  // via frame reclamation, and the arena's stack discipline keeps this buffer
  // valid across any nested scope — with zero heap traffic in steady state.
  std::span<uint8_t> buf = arena_->Alloc(codec_->MaxCompressedSize(page.size()));
  clock_->Advance(costs_->CompressCost(page.size()), TimeCategory::kCompression);
  const size_t compressed_size = codec_->Compress(page, buf);
  ++stats_.pages_compressed;

  const bool keep = options_.threshold.KeepCompressed(page.size(), compressed_size);
  if (adaptive.enabled) {
    if (compression_disabled_ && keep) {
      // The probe compressed well: the workload changed, so resume.
      compression_disabled_ = false;
      window_attempts_ = 0;
      window_rejects_ = 0;
      ++stats_.adaptive_reenables;
    } else if (!compression_disabled_) {
      ++window_attempts_;
      if (!keep) {
        ++window_rejects_;
      }
      if (window_attempts_ >= adaptive.window) {
        const double rate = static_cast<double>(window_rejects_) /
                            static_cast<double>(window_attempts_);
        if (rate >= adaptive.disable_at_reject_rate) {
          compression_disabled_ = true;
          skips_since_probe_ = 0;
          ++stats_.adaptive_disables;
        }
        window_attempts_ = 0;
        window_rejects_ = 0;
      }
    }
  }

  if (!keep) {
    ++stats_.pages_rejected;
    if (tracer_ != nullptr) {
      tracer_->Record(TraceEventKind::kCompressRejected, clock_->Now(), page.size(),
                      compressed_size);
    }
    return outcome;
  }
  outcome.keep = true;
  outcome.bytes = buf.first(compressed_size);
  return outcome;
}

void CompressionCache::InsertCompressed(PageKey key, std::span<const uint8_t> compressed,
                                        uint32_t original_size, bool dirty, bool zero_page) {
  AppendEntry(key, compressed, zero_page ? 0 : Crc32(compressed), original_size, dirty,
              zero_page);
  ++stats_.pages_kept;
  stats_.original_bytes_kept += original_size;
  stats_.compressed_bytes_kept += compressed.size();
  if (kept_ratio_hist_ != nullptr) {
    kept_ratio_hist_->Observe(100.0 * static_cast<double>(compressed.size()) /
                              static_cast<double>(original_size));
  }
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventKind::kCompressKept, clock_->Now(), key, original_size,
                    compressed.size());
  }
}

bool CompressionCache::CompressAndInsert(PageKey key, std::span<const uint8_t> page,
                                         bool dirty) {
  CC_EXPECTS(!Contains(key));
  ScratchArena::Scope scope(*arena_);
  CompressOutcome outcome = CompressPage(page);
  if (!outcome.keep) {
    return false;
  }
  InsertCompressed(key, outcome.bytes, static_cast<uint32_t>(page.size()), dirty,
                   outcome.zero);
  return true;
}

void CompressionCache::InsertCompressedClean(PageKey key, std::span<const uint8_t> compressed,
                                             uint32_t original_size, uint32_t checksum,
                                             bool zero_page) {
  CC_EXPECTS(!Contains(key));
  // Staging the bits into the cache region is a copy, not a compression.
  clock_->Advance(costs_->CopyCost(compressed.size()), TimeCategory::kCopy);
  // A zero-page marker read back from the backing store normalizes into the
  // same payload-free entry the eviction fast path creates.
  if (zero_page || IsZeroPageMarker(compressed)) {
    AppendEntry(key, {}, 0, original_size, /*dirty=*/false, /*zero_page=*/true);
  } else {
    AppendEntry(key, compressed, checksum, original_size, /*dirty=*/false, /*zero_page=*/false);
  }
  ++stats_.inserted_from_swap;
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventKind::kCcacheInsertClean, clock_->Now(), key, original_size,
                    compressed.size());
  }
}

CcacheFaultResult CompressionCache::FaultIn(PageKey key, std::span<uint8_t> out) {
  Entry* e = Find(key);
  if (e == nullptr) {
    return CcacheFaultResult::kMiss;
  }
  CC_EXPECTS(out.size() == e->original_size);
  if (e->zero_page) {
    // Zero-fill fast path: no ring read, no checksum, no codec.
    std::memset(out.data(), 0, out.size());
    clock_->Advance(costs_->ZeroScanCost(out.size()), TimeCategory::kDecompression);
    e->age_ns = static_cast<uint64_t>(clock_->Now().nanos());
    ++stats_.fault_hits;
    ++stats_.zero_fault_hits;
    return CcacheFaultResult::kHit;
  }
  ScratchArena::Scope scope(*arena_);
  std::span<uint8_t> buf = arena_->Alloc(e->payload_size);
  CopyOut(e->payload_off(), buf);
  if (injector_ != nullptr && !buf.empty() &&
      injector_->ShouldFault(FaultSite::kCodecCorruption)) {
    // Corrupt the transient decode buffer, not the ring: this models a bad DMA
    // or bus flip on the read path, and leaves the stored copy intact.
    const uint64_t bit = injector_->Draw(FaultSite::kCodecCorruption, buf.size() * 8);
    buf[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  }
  const uint32_t computed = Crc32(buf);
  if (computed != e->checksum) {
    ++stats_.checksum_mismatches;
    if (tracer_ != nullptr) {
      tracer_->Record(TraceEventKind::kChecksumMismatch, clock_->Now(), key, e->checksum,
                      computed);
    }
    return CcacheFaultResult::kCorrupt;
  }
  if (!codec_->TryDecompress(buf, out)) {
    // Malformed stream that still passed the checksum.
    ++stats_.checksum_mismatches;
    if (tracer_ != nullptr) {
      tracer_->Record(TraceEventKind::kChecksumMismatch, clock_->Now(), key, e->checksum, 0);
    }
    return CcacheFaultResult::kCorrupt;
  }
  clock_->Advance(costs_->DecompressCost(out.size()), TimeCategory::kDecompression);
  // A hit refreshes the entry's age: the arbiter compares last-access times, and
  // a compressed page that keeps servicing faults is earning its memory.
  // (Position in the ring stays FIFO; only the age the arbiter sees changes.)
  e->age_ns = static_cast<uint64_t>(clock_->Now().nanos());
  ++stats_.fault_hits;
  return CcacheFaultResult::kHit;
}

bool CompressionCache::DecompressImage(std::span<const uint8_t> compressed,
                                       std::span<uint8_t> out) {
  if (IsZeroPageMarker(compressed)) {
    std::memset(out.data(), 0, out.size());
    clock_->Advance(costs_->ZeroScanCost(out.size()), TimeCategory::kDecompression);
    return true;
  }
  if (!codec_->TryDecompress(compressed, out)) {
    return false;
  }
  clock_->Advance(costs_->DecompressCost(out.size()), TimeCategory::kDecompression);
  return true;
}

std::optional<uint32_t> CompressionCache::PrefetchIn(PageKey key, std::span<uint8_t> frame,
                                                    SimDuration* cost) {
  CC_EXPECTS(cost != nullptr);
  const Entry* e = Find(key);
  if (e == nullptr) {
    return std::nullopt;
  }
  CC_EXPECTS(frame.size() == e->original_size);
  if (e->zero_page) {
    *cost += costs_->ZeroScanCost(frame.size());
    return 0;
  }
  // The keep threshold's ratio is at least 1, so a kept image fits its page.
  CC_ASSERT(e->payload_size > 0 && e->payload_size <= frame.size());
  const std::span<uint8_t> image = frame.first(e->payload_size);
  CopyOut(e->payload_off(), image);
  if (Crc32(image) != e->checksum) {
    return std::nullopt;
  }
  *cost += costs_->DecompressCost(frame.size());
  return e->payload_size;
}

void CompressionCache::Touch(PageKey key) {
  Entry* e = Find(key);
  if (e != nullptr) {
    e->age_ns = static_cast<uint64_t>(clock_->Now().nanos());
  }
}

void CompressionCache::Invalidate(PageKey key) {
  Entry* e = Find(key);
  if (e == nullptr) {
    return;
  }
  e->valid = false;
  index_.erase(key);
  AddLiveBytes(e->header_off, e->end_off(), -1);
  ++stats_.invalidations;
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventKind::kCcacheInvalidate, clock_->Now(), key);
  }
}

uint64_t CompressionCache::OldestAge() const {
  return entries_.empty() ? UINT64_MAX : entries_.front().age_ns;
}

void CompressionCache::UnmapSlotsBelow(uint64_t old_head, uint64_t new_head) {
  // Frees every slot wholly below the new head. Safe because the ring keeps one
  // page of slack (effective capacity = capacity - page), so a slot with only
  // dead bytes can never simultaneously host live tail bytes. Slots already
  // released as middle "free" slots are skipped.
  for (uint64_t ls = old_head / kPageSize; ls < new_head / kPageSize; ++ls) {
    const size_t slot = static_cast<size_t>(ls % options_.max_slots);
    if (!slots_[slot].valid()) {
      continue;
    }
    CC_ASSERT(live_bytes_[slot] == 0);
    frames_->FreeFrame(slots_[slot]);
    slots_[slot] = FrameId{};
    --mapped_count_;
    dead_slots_.erase(slot);
  }
}

void CompressionCache::ReclaimHeadFrame() {
  if (entries_.empty()) {
    // Only pre-mapped, unused slots remain; release one.
    for (size_t slot = 0; slot < slots_.size(); ++slot) {
      if (slots_[slot].valid()) {
        frames_->FreeFrame(slots_[slot]);
        slots_[slot] = FrameId{};
        --mapped_count_;
        dead_slots_.erase(slot);
        return;
      }
    }
    CC_ASSERT(false && "ReclaimHeadFrame called with nothing mapped");
  }

  const uint64_t old_head = head_off_;
  const uint64_t slot_end = (head_off_ / kPageSize + 1) * kPageSize;

  // First pass: write out, in one clustered batch, every dirty entry that overlaps
  // the head slot (they must reach the backing store before their frame dies).
  // A failed write leaves them dirty, and the drop pass below reports them lost
  // — reclamation must still make progress.
  std::vector<SwapPageImage> batch;
  for (const Entry& e : entries_) {
    if (e.header_off >= slot_end) {
      break;
    }
    if (e.valid && e.dirty) {
      batch.push_back(ImageOf(e));
    }
  }
  if (!batch.empty()) {
    SubmitBatch(batch);
  }

  // Second pass: drop every entry overlapping the head slot. Entries are laid out
  // contiguously, so the head lands exactly on the next entry's header (or the
  // tail when the ring empties).
  while (!entries_.empty() && entries_.front().header_off < slot_end) {
    const Entry e = entries_.front();
    entries_.pop_front();
    ++base_seq_;
    head_off_ = e.end_off();
    if (e.valid) {
      index_.erase(e.key);
      AddLiveBytes(e.header_off, e.end_off(), -1);
      if (e.dirty) {
        // Still dirty here means the write-out above failed: no valid copy of
        // this page survives the drop. Tell the VM layer, which accounts the
        // loss against the owning segment — never the whole machine.
        ++stats_.entries_lost;
        if (tracer_ != nullptr) {
          tracer_->Record(TraceEventKind::kPageLost, clock_->Now(), e.key);
        }
        events_->OnEntryLost(e.key);
      } else {
        ++stats_.entries_dropped;
        if (tracer_ != nullptr) {
          tracer_->Record(TraceEventKind::kCcacheEntryDropped, clock_->Now(), e.key);
        }
        events_->OnEntryDropped(e.key);
      }
    }
  }

  if (entries_.empty()) {
    CC_ASSERT(head_off_ == tail_off_);
    for (size_t slot = 0; slot < slots_.size(); ++slot) {
      if (slots_[slot].valid()) {
        frames_->FreeFrame(slots_[slot]);
        slots_[slot] = FrameId{};
        --mapped_count_;
      }
    }
    dead_slots_.clear();
    return;
  }
  CC_ASSERT(head_off_ >= slot_end);
  UnmapSlotsBelow(old_head, head_off_);
}

bool CompressionCache::ReleaseOldest() {
  if (mapped_count_ == 0) {
    return false;
  }
  // Cheapest first: a middle slot whose entries were all invalidated costs
  // nothing to release (the paper's "free" slots in Figure 2).
  if (FreeOneDeadSlot()) {
    return true;
  }
  // Head reclamation may find that the slots below the advancing head were
  // already released as middle free slots; keep going until a frame actually
  // comes back (each pass advances the head at least one slot, or drains the
  // ring entirely, so this terminates).
  const size_t before = mapped_count_;
  while (mapped_count_ >= before && mapped_count_ > 0) {
    ReclaimHeadFrame();
  }
  CC_ENSURES(mapped_count_ < before);
  return true;
}

SwapPageImage CompressionCache::ImageOf(const Entry& e) const {
  SwapPageImage img;
  img.key = e.key;
  img.is_compressed = true;
  img.original_size = e.original_size;
  if (e.zero_page) {
    img.bytes.assign(1, kContainerZeroPage);
    img.checksum = Crc32(img.bytes);
  } else {
    img.checksum = e.checksum;
    img.bytes.resize(e.payload_size);
    CopyOut(e.payload_off(), img.bytes);
  }
  return img;
}

bool CompressionCache::SubmitBatch(std::span<const SwapPageImage> batch) {
  CC_EXPECTS(!batch.empty());
  uint64_t staged = 0;
  for (const SwapPageImage& img : batch) {
    staged += img.bytes.size();
  }
  clock_->Advance(costs_->CopyCost(staged), TimeCategory::kCopy);
  const IoStatus write_status = swap_->WriteBatch(batch);
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventKind::kCcacheWriteBatch, clock_->Now(), staged, batch.size());
  }
  if (write_status != IoStatus::kOk) {
    // Retries were already exhausted below; which images persisted is backend-
    // dependent, so conservatively keep every entry dirty. The backend may have
    // persisted a prefix of the batch, though: those partial locations must be
    // discarded, or the backend claims pages the page tables disclaim (and, for
    // the clustered/LFS layouts, holds their blocks forever — a leak the
    // auditor's orphan check turns into a hard failure).
    for (const SwapPageImage& img : batch) {
      swap_->Invalidate(img.key);
    }
    ++stats_.write_batch_failures;
    return false;
  }
  for (const SwapPageImage& img : batch) {
    Entry* e = Find(img.key);
    CC_ASSERT(e != nullptr);
    e->dirty = false;
    ++stats_.entries_cleaned;
    if (tracer_ != nullptr) {
      tracer_->Record(TraceEventKind::kCcacheEntryCleaned, clock_->Now(), img.key);
    }
    events_->OnEntryCleaned(img.key);
  }
  return true;
}

bool CompressionCache::WriteOldestDirtyBatch() {
  std::vector<SwapPageImage> batch;
  uint64_t payload = 0;
  for (size_t i = FirstDirtyIndex(); i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (!e.valid || !e.dirty) {
      continue;
    }
    batch.push_back(ImageOf(e));
    payload += batch.back().bytes.size();
    if (payload >= options_.write_batch_bytes) {
      break;
    }
  }
  // A failed write leaves the entries dirty; the cleaner (and FlushDirty) then
  // stop rather than spin, and ReclaimHeadFrame handles the terminal case.
  return !batch.empty() && SubmitBatch(batch);
}

size_t CompressionCache::FirstDirtyIndex() const {
  // Head reclamation may have dropped the entries up to and past the cursor.
  first_dirty_seq_ = std::max(first_dirty_seq_, base_seq_);
  auto i = static_cast<size_t>(first_dirty_seq_ - base_seq_);
  while (i < entries_.size() && !(entries_[i].valid && entries_[i].dirty)) {
    ++i;
  }
  first_dirty_seq_ = base_seq_ + i;
  return i;
}

size_t CompressionCache::CleanPrefixFrames() const {
  uint64_t prefix_end = tail_off_;
  for (const Entry& e : entries_) {
    if (e.valid && e.dirty) {
      prefix_end = e.header_off;
      break;
    }
  }
  return static_cast<size_t>(prefix_end / kPageSize - head_off_ / kPageSize);
}

bool CompressionCache::CleanPrefixReaches(size_t target) const {
  const size_t i = FirstDirtyIndex();
  const uint64_t prefix_end = i < entries_.size() ? entries_[i].header_off : tail_off_;
  return static_cast<size_t>(prefix_end / kPageSize - head_off_ / kPageSize) >= target;
}

size_t CompressionCache::CleanTarget() const {
  return std::max(kCleanFramesTarget, mapped_count_ / 8);
}

void CompressionCache::RunCleaner(size_t pool_free_frames) {
  // Paper: the cleaning rate is a function of the number of completely free pages,
  // the number of clean reclaimable pages, and the size of the cache. Rendered as:
  // while memory is tight and the head of the ring lacks clean frames, push one
  // write batch per invocation.
  if (pool_free_frames >= options_.pool_free_target) {
    return;
  }
  if (CleanPrefixReaches(CleanTarget())) {
    return;
  }
  WriteOldestDirtyBatch();
}

void CompressionCache::FlushDirty() {
  while (WriteOldestDirtyBatch()) {
  }
}

std::optional<CompressionCache::EntryInfo> CompressionCache::EntryInfoFor(PageKey key) const {
  const Entry* e = Find(key);
  if (e == nullptr) {
    return std::nullopt;
  }
  return EntryInfo{e->header_off, e->payload_size, e->dirty};
}

void CompressionCache::CorruptPayloadBitForTest(PageKey key, size_t bit) {
  Entry* e = Find(key);
  CC_EXPECTS(e != nullptr);
  CC_EXPECTS(bit < static_cast<size_t>(e->payload_size) * 8);
  uint8_t byte = 0;
  CopyOut(e->payload_off() + bit / 8, std::span<uint8_t>(&byte, 1));
  byte ^= static_cast<uint8_t>(1u << (bit % 8));
  CopyIn(e->payload_off() + bit / 8, std::span<const uint8_t>(&byte, 1));
}

void CompressionCache::CorruptLiveBytesForTest(size_t slot, int64_t delta) {
  CC_EXPECTS(slot < live_bytes_.size());
  live_bytes_[slot] = static_cast<uint64_t>(static_cast<int64_t>(live_bytes_[slot]) + delta);
}

void CompressionCache::AliasIndexKeyForTest(PageKey existing, PageKey alias) {
  const auto it = index_.find(existing);
  CC_EXPECTS(it != index_.end());
  CC_EXPECTS(!index_.contains(alias));
  index_[alias] = it->second;  // two keys now map to one entry
}

void CompressionCache::RegisterAuditChecks(InvariantAuditor* auditor) const {
  CC_EXPECTS(auditor != nullptr);
  // Ring occupancy: [head, tail] fits the ring less its anti-alias page, the
  // entry chain is contiguous from head to tail (so the sum of entry
  // footprints equals the used-bytes gauge by construction), and the per-slot
  // live-byte accounting matches a recount over valid entries.
  auditor->Register("ccache", "occupancy", [this]() -> std::optional<std::string> {
    const uint64_t capacity = static_cast<uint64_t>(options_.max_slots) * kPageSize;
    if (tail_off_ < head_off_ || tail_off_ - head_off_ > capacity - kPageSize) {
      return "ring spans [" + std::to_string(head_off_) + ", " + std::to_string(tail_off_) +
             "), beyond its " + std::to_string(capacity - kPageSize) + "-byte capacity";
    }
    uint64_t expected_off = head_off_;
    for (const Entry& e : entries_) {
      if (e.header_off != expected_off) {
        return "entry chain has a gap: expected offset " + std::to_string(expected_off) +
               ", entry starts at " + std::to_string(e.header_off);
      }
      expected_off = e.end_off();
    }
    if (expected_off != tail_off_) {
      return "entry footprints sum to offset " + std::to_string(expected_off) +
             " but the tail gauge reads " + std::to_string(tail_off_);
    }
    std::vector<uint64_t> recount(options_.max_slots, 0);
    for (const Entry& e : entries_) {
      if (!e.valid) {
        continue;
      }
      for (uint64_t ls = e.header_off / kPageSize; ls <= (e.end_off() - 1) / kPageSize;
           ++ls) {
        const uint64_t lo = std::max(e.header_off, ls * kPageSize);
        const uint64_t hi = std::min(e.end_off(), (ls + 1) * kPageSize);
        recount[static_cast<size_t>(ls % options_.max_slots)] += hi - lo;
      }
    }
    size_t mapped = 0;
    for (size_t slot = 0; slot < slots_.size(); ++slot) {
      if (live_bytes_[slot] != recount[slot]) {
        return "slot " + std::to_string(slot) + " accounts " +
               std::to_string(live_bytes_[slot]) + " live bytes but a recount finds " +
               std::to_string(recount[slot]);
      }
      if (live_bytes_[slot] > 0 && !slots_[slot].valid()) {
        return "slot " + std::to_string(slot) + " holds live bytes but no frame";
      }
      if (slots_[slot].valid()) {
        ++mapped;
        if ((live_bytes_[slot] == 0) != dead_slots_.contains(slot)) {
          return "slot " + std::to_string(slot) + " dead-slot membership disagrees with " +
                 std::to_string(live_bytes_[slot]) + " live bytes";
        }
      } else if (dead_slots_.contains(slot)) {
        return "unmapped slot " + std::to_string(slot) + " is in the dead-slot set";
      }
    }
    if (mapped != mapped_count_) {
      return std::to_string(mapped) + " slots hold frames but the gauge reads " +
             std::to_string(mapped_count_);
    }
    return std::nullopt;
  });
  // Cleaner verdict: the first-dirty cursor RunCleaner answers from points at
  // the entry a full scan finds, and its verdict agrees with a full
  // CleanPrefixFrames() scan at the live clean target, and at the targets on
  // either side of the prefix's true length.
  auditor->Register("ccache", "cleaner-verdict", [this]() -> std::optional<std::string> {
    const auto dirty = std::find_if(entries_.begin(), entries_.end(),
                                    [](const Entry& e) { return e.valid && e.dirty; });
    const auto scanned = static_cast<size_t>(dirty - entries_.begin());
    if (const size_t cursor = FirstDirtyIndex(); cursor != scanned) {
      return "first-dirty cursor at entry " + std::to_string(cursor) + " of " +
             std::to_string(entries_.size()) + " but a full scan finds entry " +
             std::to_string(scanned);
    }
    const size_t frames = CleanPrefixFrames();
    for (const size_t target : {CleanTarget(), frames, frames + 1}) {
      if (CleanPrefixReaches(target) != (frames >= target)) {
        return "cursor cleaner verdict disagrees with a full scan: clean prefix of " +
               std::to_string(frames) + " frames against a target of " + std::to_string(target);
      }
    }
    return std::nullopt;
  });
  // Index coherence: every index key resolves to exactly the valid entry bearing
  // that key — an alias (two keys -> one entry) or a dangling mapping both fail —
  // and the valid-entry count equals the index size.
  auditor->Register("ccache", "index-coherent", [this]() -> std::optional<std::string> {
    size_t valid_count = 0;
    for (const Entry& e : entries_) {
      if (e.valid) {
        ++valid_count;
      }
    }
    for (const auto& [key, seq] : index_) {
      if (seq < base_seq_ || seq - base_seq_ >= entries_.size()) {
        return "index maps a key to dropped sequence " + std::to_string(seq);
      }
      const Entry& e = entries_[static_cast<size_t>(seq - base_seq_)];
      if (!e.valid) {
        return "index maps a key to an invalidated entry";
      }
      if (!(e.key == key)) {
        return "key double-maps: index entry for segment " + std::to_string(key.segment) +
               " page " + std::to_string(key.page) + " resolves to the entry of segment " +
               std::to_string(e.key.segment) + " page " + std::to_string(e.key.page);
      }
    }
    if (valid_count != index_.size()) {
      return std::to_string(valid_count) + " valid entries but the index holds " +
             std::to_string(index_.size()) + " keys";
    }
    return std::nullopt;
  });
}

void CompressionCache::CheckInvariants() const {
  InvariantAuditor auditor;
  RegisterAuditChecks(&auditor);
  auditor.RunAll();
}

}  // namespace compcache
