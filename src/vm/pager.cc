#include "vm/pager.h"

#include <cstring>
#include <string>
#include <unordered_set>

#include "util/assert.h"
#include "util/audit.h"
#include "util/checksum.h"
#include "util/units.h"
#include "vm/pipeline.h"

namespace compcache {

namespace {

// Safety valve on recursive eviction cascades (insert -> frame alloc -> arbiter
// -> evict -> insert ...); beyond this depth the pager refuses and the arbiter
// falls back to another memory consumer.
constexpr int kMaxEvictionDepth = 8;

}  // namespace

Pager::Pager(Clock* clock, const CostModel* costs, FrameSource* frames, VmOptions options)
    : clock_(clock), costs_(costs), frames_(frames), options_(options) {
  CC_EXPECTS(clock_ != nullptr && costs_ != nullptr && frames_ != nullptr);
}

void Pager::Attach(CompressedSwapBackend* swap, CompressionCache* ccache) {
  CC_EXPECTS(swap != nullptr && swap_ == nullptr);
  swap_ = swap;
  ccache_ = ccache;
}

Segment* Pager::CreateSegment(size_t num_pages) {
  CC_EXPECTS(num_pages > 0);
  CC_EXPECTS(swap_ != nullptr);
  segments_.push_back(
      std::make_unique<Segment>(static_cast<uint32_t>(segments_.size()), num_pages));
  segments_.back()->set_owner_pid(current_pid_);
  return segments_.back().get();
}

Segment* Pager::GetSegment(uint32_t id) {
  CC_EXPECTS(id < segments_.size());
  return segments_[id].get();
}

PageEntry& Pager::EntryFor(PageKey key) {
  CC_EXPECTS(key.segment < segments_.size());
  return segments_[key.segment]->page(key.page);
}

const PageEntry* Pager::PeekEntry(PageKey key) const {
  if (key.segment >= segments_.size()) {
    return nullptr;
  }
  const Segment& segment = *segments_[key.segment];
  if (segment.torn_down() || key.page >= segment.num_pages()) {
    return nullptr;
  }
  return &segment.page(key.page);
}

void Pager::DropStaleCopies(PageEntry& entry) {
  if (pipeline_ != nullptr) {
    // Any speculative decompressed copy mirrors the copies dropped here.
    pipeline_->Invalidate(entry.key);
  }
  if (entry.has_ccache_copy) {
    CC_ASSERT(ccache_ != nullptr);
    ccache_->Invalidate(entry.key);
    entry.has_ccache_copy = false;
  }
  if (entry.has_backing_copy) {
    swap_->Invalidate(entry.key);
    entry.has_backing_copy = false;
  }
}

std::span<uint8_t> Pager::Access(Segment& segment, uint32_t page, bool write) {
  CC_EXPECTS(!segment.torn_down());
  ++stats_.accesses;
  PageEntry& entry = segment.page(page);

  if (entry.state != PageState::kResident) {
    ServiceFault(segment, entry, write);
  }

  CC_ASSERT(entry.state == PageState::kResident);
  entry.age_ns = static_cast<uint64_t>(clock_->Now().nanos());
  lru_.Touch(entry);
  if (write && !entry.dirty) {
    entry.dirty = true;
    DropStaleCopies(entry);
  }
  return frames_->FrameData(entry.frame);
}

void Pager::BindMetrics(MetricRegistry* registry) {
  CC_EXPECTS(registry != nullptr);
  registry->RegisterCounter("vm.accesses", &stats_.accesses);
  registry->RegisterCounter("vm.faults", &stats_.faults);
  registry->RegisterCounter("vm.faults_zero_fill", &stats_.faults_zero_fill);
  registry->RegisterCounter("vm.faults_from_ccache", &stats_.faults_from_ccache);
  registry->RegisterCounter("vm.faults_from_swap", &stats_.faults_from_swap);
  registry->RegisterCounter("vm.faults_prefetch_hit", &stats_.faults_prefetch_hit);
  registry->RegisterCounter("vm.coresidents_inserted", &stats_.coresidents_inserted);
  registry->RegisterCounter("vm.evictions", &stats_.evictions);
  registry->RegisterCounter("vm.evictions_clean_drop", &stats_.evictions_clean_drop);
  registry->RegisterCounter("vm.evictions_compressed", &stats_.evictions_compressed);
  registry->RegisterCounter("vm.evictions_raw_swap", &stats_.evictions_raw_swap);
  registry->RegisterCounter("vm.evictions_std_write", &stats_.evictions_std_write);
  registry->RegisterCounter("vm.evictions_failed", &stats_.evictions_failed);
  registry->RegisterCounter("vm.pages_recovered", &stats_.pages_recovered);
  registry->RegisterCounter("vm.pages_lost", &stats_.pages_lost);
  registry->RegisterCounter("vm.segments_aborted", &stats_.segments_aborted);
  registry->RegisterCounter("vm.segments_torn_down", &stats_.segments_torn_down);
  registry->RegisterGauge("vm.resident_pages",
                          [this] { return static_cast<double>(lru_.size()); });
  fault_latency_ = registry->BindHistogram("vm.fault_ns");
}

void Pager::ServiceFault(Segment& segment, PageEntry& entry, bool write) {
  ++stats_.faults;
  const SimTime fault_start = clock_->Now();
  clock_->Advance(costs_->fault_overhead);

  // Pin across the fault: frame allocation below may trigger eviction, which must
  // never pick the page being faulted.
  entry.pinned = true;
  const FrameId frame = frames_->AllocateFrame();
  auto frame_data = frames_->FrameData(frame);

  // Allocation can have reclaimed this page's own compressed copy (clean entries
  // at the ring head are fair game), so re-read the state now. The ladder below
  // walks the copies from fastest to slowest: ccache, then backing store; when a
  // rung turns out corrupt or unreadable it drops to the next, and only when no
  // valid copy survives anywhere is the page declared lost.
  TraceEventKind fault_kind = TraceEventKind::kFaultZeroFill;
  PageState source = entry.state;
  bool lost = false;
  bool prefetched = false;
  CC_ASSERT(source != PageState::kResident && "fault on resident page");

  // Decompress-ahead short-circuit: a buffered speculative copy services the
  // fault, skipping the ring read and the backing store. The compressed/backing
  // copies stay where they are, exactly as on the rung that originally
  // produced the buffered image. A copy that fails to decode is a buffer miss
  // and the fault walks the ladder below.
  if (pipeline_ != nullptr &&
      (source == PageState::kCompressed || source == PageState::kSwapped)) {
    if (pipeline_->TryFill(entry.key, frame_data)) {
      prefetched = true;
      ++stats_.faults_prefetch_hit;
      fault_kind = TraceEventKind::kFaultPrefetchHit;
      entry.dirty = false;
    }
  }

  if (source == PageState::kUntouched) {
    // Zero-fill. No copy exists anywhere, so the page is born dirty: eviction
    // must preserve it. The frame still holds its last owner's bytes.
    std::memset(frame_data.data(), 0, frame_data.size());
    ++stats_.faults_zero_fill;
    entry.dirty = true;
  }

  if (source == PageState::kCompressed && !prefetched) {
    CC_ASSERT(ccache_ != nullptr);
    const CcacheFaultResult hit = ccache_->FaultIn(entry.key, frame_data);
    CC_ASSERT(hit != CcacheFaultResult::kMiss);  // events keep state coherent
    if (hit == CcacheFaultResult::kHit) {
      ++stats_.faults_from_ccache;
      fault_kind = TraceEventKind::kFaultFromCcache;
      // The compressed copy stays in the cache ("retained ... in the expectation
      // that they will be accessed again soon"); it dies on the first write.
      entry.dirty = false;
    } else {
      // Corrupt in-memory copy: discard it and drop to the backing store.
      ccache_->Invalidate(entry.key);
      entry.has_ccache_copy = false;
      if (entry.has_backing_copy) {
        ++stats_.pages_recovered;
        if (tracer_ != nullptr) {
          tracer_->Record(TraceEventKind::kPageRecovered, clock_->Now(), entry.key);
        }
        source = PageState::kSwapped;
      } else {
        lost = true;
      }
    }
  }

  if (source == PageState::kSwapped && !lost && !prefetched) {
    auto result = swap_->ReadPage(entry.key, options_.insert_coresidents);
    if (result.status != IoStatus::kOk) {
      // Unreadable (retries exhausted) or failed its stored checksum; there
      // is no rung left below the backing store.
      lost = true;
    } else if (result.is_compressed) {
      // Store the compressed image in the cache first (paper 4.1), then
      // decompress for the faulting process. Only a ccache writes compressed
      // images, so one exists here.
      if (!ccache_->Contains(entry.key)) {
        ccache_->InsertCompressedClean(entry.key, result.bytes, result.original_size,
                                       result.checksum);
        entry.has_ccache_copy = ccache_->Contains(entry.key);
      }
      if (!ccache_->DecompressImage(result.bytes, frame_data)) {
        // Undecodable despite a matching checksum; never keep a cache entry
        // seeded from a bad image.
        if (entry.has_ccache_copy) {
          ccache_->Invalidate(entry.key);
          entry.has_ccache_copy = false;
        }
        lost = true;
      }
    } else {
      CC_ASSERT(result.bytes.size() == frame_data.size());
      std::memcpy(frame_data.data(), result.bytes.data(), result.bytes.size());
      if (ccache_ != nullptr) {
        // The unmodified machine reads straight into the frame; the ccache
        // machine stages the image and pays for the copy.
        clock_->Advance(costs_->CopyCost(result.bytes.size()), TimeCategory::kCopy);
      }
    }
    if (!lost) {
      // Pages that came along for free in the same blocks join the cache too
      // (backends have already dropped any coresident that failed its CRC).
      for (const SwapPageImage& co : result.coresidents) {
        PageEntry& other = EntryFor(co.key);
        if (other.state == PageState::kSwapped && co.is_compressed &&
            !ccache_->Contains(co.key)) {
          ccache_->InsertCompressedClean(co.key, co.bytes, co.original_size, co.checksum);
          other.has_ccache_copy = true;
          other.state = PageState::kCompressed;
          ++stats_.coresidents_inserted;
        }
      }
      ++stats_.faults_from_swap;
      fault_kind = TraceEventKind::kFaultFromSwap;
      entry.has_backing_copy = true;
      entry.dirty = false;
    }
  }

  if (lost) {
    MarkPageLost(entry, frame_data);
  }

  entry.state = PageState::kResident;
  entry.frame = frame;
  entry.age_ns = static_cast<uint64_t>(clock_->Now().nanos());
  lru_.PushMru(entry);

  const auto latency_ns = static_cast<uint64_t>((clock_->Now() - fault_start).nanos());
  if (fault_latency_ != nullptr) {
    fault_latency_->Observe(static_cast<double>(latency_ns));
  }
  if (tracer_ != nullptr) {
    tracer_->Record(fault_kind, clock_->Now(), entry.key, latency_ns);
  }

  (void)segment;
  (void)write;  // dirtying is handled by the caller after the fault completes

  // Feed the stride detector and let the engine issue speculative work for the
  // pages it expects next. The entry stays pinned across this: speculative
  // frames come from the arbiter, and the reclamation cascade they trigger
  // must never evict the very page being handed back to the app.
  if (pipeline_ != nullptr && !IsFileKey(entry.key)) {
    pipeline_->OnFault(entry.key, fault_kind == TraceEventKind::kFaultFromSwap);
  }
  entry.pinned = false;

  if (post_fault_hook_) {
    post_fault_hook_();
  }
}

void Pager::MarkPageLost(PageEntry& entry, std::span<uint8_t> frame_data) {
  // Surface deterministic zeros, never garbage, and drop every dead copy so the
  // bookkeeping matches reality. The page is "born again" dirty so eviction
  // preserves the zeros. Only the owning segment is poisoned; the machine and
  // every other segment keep running.
  std::memset(frame_data.data(), 0, frame_data.size());
  DropStaleCopies(entry);
  entry.dirty = true;
  CountLostPage(*segments_[entry.key.segment]);
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventKind::kPageLost, clock_->Now(), entry.key);
  }
}

void Pager::CountLostPage(Segment& segment) {
  ++stats_.pages_lost;
  if (!segment.aborted()) {
    segment.MarkAborted();
    ++stats_.segments_aborted;
  }
}

bool Pager::EvictResident(PageEntry& entry) {
  CC_ASSERT(entry.state == PageState::kResident);
  CC_ASSERT(!entry.pinned);
  ++stats_.evictions;

  // Take the page out of circulation before any nested reclamation can run.
  lru_.Remove(entry);
  entry.pinned = true;

  const auto frame_data = frames_->FrameData(entry.frame);

  if (!entry.dirty && (entry.has_ccache_copy || entry.has_backing_copy)) {
    // A consistent copy already exists; the frame can simply be dropped.
    entry.state = entry.has_ccache_copy ? PageState::kCompressed : PageState::kSwapped;
    ++stats_.evictions_clean_drop;
    if (tracer_ != nullptr) {
      tracer_->Record(TraceEventKind::kEvictCleanDrop, clock_->Now(), entry.key);
    }
  } else {
    // Dirty (or never-stored) page: stale copies were invalidated when it was
    // dirtied. With a ccache, compress it now; the scratch scope keeps
    // outcome.bytes alive until the insertion completes (including any nested
    // reclaim).
    CC_ASSERT(!entry.has_ccache_copy && !entry.has_backing_copy);
    if (ccache_ != nullptr) {
      ScratchArena::Scope scratch(ccache_->arena());
      auto outcome = ccache_->CompressPage(frame_data);
      if (outcome.keep) {
        // Free the victim's frame *before* inserting: the ring may need a frame
        // to grow, and this page's own frame is the natural donor. (Inserting
        // first would create a frame-allocation cycle under memory exhaustion.)
        frames_->FreeFrame(entry.frame);
        entry.frame = FrameId{};
        ccache_->InsertCompressed(entry.key, outcome.bytes,
                                  static_cast<uint32_t>(frame_data.size()),
                                  /*dirty=*/true, outcome.zero);
        entry.has_ccache_copy = true;
        entry.state = PageState::kCompressed;
        ++stats_.evictions_compressed;
        if (tracer_ != nullptr) {
          tracer_->Record(TraceEventKind::kEvictCompressed, clock_->Now(), entry.key,
                          outcome.bytes.size());
        }
        entry.dirty = false;
        entry.pinned = false;
        return true;  // frame already freed
      }
    }
    if (!PageOutRaw(entry, frame_data)) {
      return false;
    }
  }

  entry.dirty = false;
  frames_->FreeFrame(entry.frame);
  entry.frame = FrameId{};
  entry.pinned = false;
  return true;
}

bool Pager::PageOutRaw(PageEntry& entry, std::span<const uint8_t> frame_data) {
  SwapPageImage img;
  img.key = entry.key;
  img.is_compressed = false;
  img.original_size = static_cast<uint32_t>(frame_data.size());
  img.bytes.assign(frame_data.begin(), frame_data.end());
  img.checksum = Crc32(img.bytes);
  if (ccache_ != nullptr) {
    // The unmodified machine writes straight from the frame; the ccache
    // machine stages the page and pays for the copy.
    clock_->Advance(costs_->CopyCost(img.bytes.size()), TimeCategory::kCopy);
  }
  if (swap_->WriteBatch(std::span<const SwapPageImage>(&img, 1)) != IoStatus::kOk) {
    // Pageout failed after retries: the only valid copy is the resident one,
    // so the page cannot leave memory. Re-admit it and let the arbiter pick a
    // different victim. Re-stamp the age to match the MRU position — keeping
    // the ancient stamp would let an old age drift back to the LRU front and
    // make vm's published age regress.
    ++stats_.evictions_failed;
    entry.age_ns = static_cast<uint64_t>(clock_->Now().nanos());
    lru_.PushMru(entry);
    entry.pinned = false;
    return false;
  }
  entry.has_backing_copy = true;
  entry.state = PageState::kSwapped;
  // The same write is the unmodified system's synchronous pageout, or a page
  // that failed the ccache's 4:3 threshold.
  ++(ccache_ != nullptr ? stats_.evictions_raw_swap : stats_.evictions_std_write);
  if (tracer_ != nullptr) {
    tracer_->Record(ccache_ != nullptr ? TraceEventKind::kEvictRawSwap
                                       : TraceEventKind::kEvictStdWrite,
                    clock_->Now(), entry.key);
  }
  return true;
}

void Pager::TeardownSegment(Segment& segment) {
  CC_EXPECTS(!segment.torn_down());
  for (uint32_t p = 0; p < segment.num_pages(); ++p) {
    PageEntry& e = segment.page(p);
    CC_EXPECTS(!e.pinned);  // teardown mid-fault would orphan the frame
    if (pipeline_ != nullptr) {
      pipeline_->Invalidate(e.key);
    }
    if (e.state == PageState::kResident) {
      lru_.Remove(e);
      frames_->FreeFrame(e.frame);
    }
    if (e.has_ccache_copy) {
      CC_ASSERT(ccache_ != nullptr);
      ccache_->Invalidate(e.key);
    }
    // Invalidate the backing copy unconditionally, not just when the flag says
    // one exists: a partially persisted write batch can leave the backend
    // holding a copy the page table never learned about, and teardown is the
    // last chance to release those blocks.
    swap_->Invalidate(e.key);
    const PageKey key = e.key;
    e = PageEntry{};
    e.key = key;
  }
  segment.MarkTornDown();
  ++stats_.segments_torn_down;
}

void Pager::RestoreSwappedPage(Segment& segment, uint32_t page) {
  CC_EXPECTS(!segment.torn_down());
  PageEntry& entry = segment.page(page);
  CC_EXPECTS(entry.state == PageState::kUntouched);
  entry.state = PageState::kSwapped;
  entry.has_backing_copy = true;
  entry.dirty = false;
}

void Pager::RestoreLostPage(Segment& segment, uint32_t page) {
  CC_EXPECTS(!segment.torn_down());
  PageEntry& entry = segment.page(page);
  CC_EXPECTS(entry.state == PageState::kUntouched);
  // The page's only copies died with the machine: it stays untouched (zero-fill
  // on the next fault) and the segment takes the abort ladder.
  CountLostPage(segment);
}

void Pager::Advise(Segment& segment, uint32_t first_page, uint32_t page_count, bool pin) {
  CC_EXPECTS(static_cast<uint64_t>(first_page) + page_count <= segment.num_pages());
  for (uint32_t p = first_page; p < first_page + page_count; ++p) {
    segment.page(p).advise_pinned = pin;
  }
}

uint64_t Pager::OldestAge() const {
  const PageEntry* lru = lru_.Lru();
  return lru == nullptr ? UINT64_MAX : lru->age_ns;
}

bool Pager::ReleaseOldest() {
  if (eviction_depth_ >= kMaxEvictionDepth) {
    return false;
  }
  // Find the oldest un-pinned resident page (LRU-to-MRU scan; pinned pages are
  // rare and transient, so the first hit is almost always the true LRU). Pages
  // pinned by application advisory are passed over while any other victim
  // exists; they remain fair game as a last resort — the advisory is a hint —
  // so only then does a second scan take the oldest of them.
  PageEntry* victim =
      lru_.FindFirst([](const PageEntry& e) { return !e.pinned && !e.advise_pinned; });
  if (victim == nullptr) {
    victim = lru_.FindFirst([](const PageEntry& e) { return !e.pinned; });
  }
  if (victim == nullptr) {
    return false;
  }
  ++eviction_depth_;
  const bool evicted = EvictResident(*victim);
  --eviction_depth_;
  return evicted;
}

// File-block entries (compress_file_cache) belong to the buffer cache, which
// re-checks Contains() at miss time; they are inserted clean, so they are never
// cleaned or lost, and a dropped one needs no VM bookkeeping.
void Pager::OnEntryCleaned(PageKey key) {
  if (IsFileKey(key)) {
    return;
  }
  PageEntry& entry = EntryFor(key);
  CC_ASSERT(entry.has_ccache_copy);
  entry.has_backing_copy = true;
}

void Pager::OnEntryDropped(PageKey key) {
  if (IsFileKey(key)) {
    return;
  }
  PageEntry& entry = EntryFor(key);
  CC_ASSERT(entry.has_ccache_copy);
  entry.has_ccache_copy = false;
  if (entry.state == PageState::kCompressed) {
    CC_ASSERT(entry.has_backing_copy);
    entry.state = PageState::kSwapped;
  }
}

void Pager::OnEntryLost(PageKey key) {
  // A dirty compressed copy was reclaimed after its write-out failed; no valid
  // copy exists outside memory (the stale backing copy died when the page was
  // dirtied). The ccache already traced the loss.
  if (IsFileKey(key)) {
    return;
  }
  PageEntry& entry = EntryFor(key);
  CC_ASSERT(entry.has_ccache_copy);
  CC_ASSERT(!entry.has_backing_copy);
  entry.has_ccache_copy = false;
  if (pipeline_ != nullptr) {
    // A buffered speculative copy would let the fault path serve a "clean"
    // resident page with no copy anywhere behind it; drop it with the entry.
    pipeline_->Invalidate(key);
  }
  if (entry.state == PageState::kResident) {
    // The resident copy is intact and now the only one; keep it evictable but
    // make sure eviction preserves it.
    entry.dirty = true;
    return;
  }
  CC_ASSERT(entry.state == PageState::kCompressed);
  entry.state = PageState::kUntouched;
  entry.dirty = false;
  CountLostPage(*segments_[key.segment]);
}

void Pager::RegisterAuditChecks(InvariantAuditor* auditor) const {
  CC_EXPECTS(auditor != nullptr);
  // Per-state flag rules plus the resident-count / LRU-size balance.
  auditor->Register("vm", "page-states", [this]() -> std::optional<std::string> {
    size_t resident = 0;
    for (const auto& segment : segments_) {
      for (uint32_t p = 0; p < segment->num_pages(); ++p) {
        const PageEntry& e = segment->page(p);
        const std::string where = "segment " + std::to_string(segment->id()) + " page " +
                                  std::to_string(p) + " ";
        switch (e.state) {
          case PageState::kUntouched:
            if (e.frame.valid() || e.dirty || e.has_ccache_copy || e.has_backing_copy) {
              return where + "is untouched but holds a frame, dirty bit, or copy flag";
            }
            break;
          case PageState::kResident:
            if (!e.frame.valid()) {
              return where + "is resident without a frame";
            }
            ++resident;
            if (e.dirty && (e.has_ccache_copy || e.has_backing_copy)) {
              return where + "is dirty yet claims a (stale) compressed or backing copy";
            }
            break;
          case PageState::kCompressed:
            if (e.frame.valid() || !e.has_ccache_copy) {
              return where + "is compressed but holds a frame or lacks the ccache flag";
            }
            if (ccache_ == nullptr || !ccache_->Contains(e.key)) {
              return where + "claims a ccache copy the cache does not hold";
            }
            break;
          case PageState::kSwapped:
            if (e.frame.valid() || e.has_ccache_copy || !e.has_backing_copy) {
              return where + "is swapped but holds a frame/ccache flag or lacks the "
                             "backing flag";
            }
            break;
        }
        if (e.has_ccache_copy && (ccache_ == nullptr || !ccache_->Contains(e.key))) {
          return where + "claims a ccache copy the cache does not hold";
        }
        if (!e.has_ccache_copy && ccache_ != nullptr && e.state != PageState::kResident &&
            ccache_->Contains(e.key)) {
          return where + "disclaims a ccache copy the cache still holds";
        }
      }
    }
    if (resident != lru_.size()) {
      return std::to_string(resident) + " resident pages but the LRU holds " +
             std::to_string(lru_.size());
    }
    return std::nullopt;
  });
  // Two-way coherence with the backing store. Forward: a claimed backing copy
  // must exist. Reverse: every backend page must be claimed by a page-table
  // entry — an orphan is a leaked location (and, for the clustered/LFS
  // layouts, leaked blocks).
  auditor->Register("vm", "swap-coherent", [this]() -> std::optional<std::string> {
    for (const auto& segment : segments_) {
      for (uint32_t p = 0; p < segment->num_pages(); ++p) {
        const PageEntry& e = segment->page(p);
        if (e.has_backing_copy && !swap_->Contains(e.key)) {
          return "segment " + std::to_string(segment->id()) + " page " + std::to_string(p) +
                 " claims a backing copy the backend does not hold";
        }
      }
    }
    std::optional<std::string> orphan;
    swap_->ForEachPage([&](PageKey key) {
      if (orphan.has_value() || IsFileKey(key)) {
        return;
      }
      if (key.segment >= segments_.size()) {
        orphan = "backend holds a page for unknown segment " + std::to_string(key.segment);
        return;
      }
      const PageEntry& e = segments_[key.segment]->page(key.page);
      if (!e.has_backing_copy) {
        orphan = "backend holds an orphaned copy of segment " + std::to_string(key.segment) +
                 " page " + std::to_string(key.page) + " (leaked location)";
      }
    });
    return orphan;
  });
}

void Pager::CheckInvariants() const {
  InvariantAuditor auditor;
  RegisterAuditChecks(&auditor);
  auditor.RunAll();
}

}  // namespace compcache
