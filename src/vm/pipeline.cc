#include "vm/pipeline.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>

#include "util/assert.h"
#include "util/units.h"
#include "vm/pager.h"

namespace compcache {

PipelineEngine::PipelineEngine(Clock* clock, const CostModel* costs,
                               FrameSource* frames, CompressionCache* ccache,
                               const Pager* pager, const PipelineOptions& options)
    : clock_(clock),
      costs_(costs),
      frames_(frames),
      ccache_(ccache),
      pager_(pager),
      options_(options) {
  CC_EXPECTS(clock_ != nullptr);
  CC_EXPECTS(costs_ != nullptr);
  CC_EXPECTS(frames_ != nullptr);
  CC_EXPECTS(ccache_ != nullptr);
  CC_EXPECTS(pager_ != nullptr);
  CC_EXPECTS(options_.prefetch_buffer_pages >= 1);
}

PipelineEngine::~PipelineEngine() {
  // Frames go home; the final audit already ran with the buffer accounted for.
  for (const Entry& entry : buffer_) {
    frames_->FreeFrame(entry.frame);
  }
}

std::vector<PipelineEngine::Entry>::const_iterator PipelineEngine::Find(PageKey key) const {
  return std::find_if(buffer_.begin(), buffer_.end(),
                      [key](const Entry& entry) { return entry.key == key; });
}

void PipelineEngine::Drop(PageKey key, bool count_miss) {
  const auto it = Find(key);
  if (it == buffer_.end()) {
    return;
  }
  frames_->FreeFrame(it->frame);
  buffer_.erase(it);
  if (count_miss) {
    ++stats_.misses;
  }
}

void PipelineEngine::EvictOldest() {
  CC_EXPECTS(!buffer_.empty());
  Drop(buffer_.front().key, /*count_miss=*/true);
}

uint64_t PipelineEngine::OldestAge() const {
  if (buffer_.empty()) {
    return UINT64_MAX;
  }
  return buffer_.front().age_ns;
}

bool PipelineEngine::ReleaseOldest() {
  if (buffer_.empty()) {
    return false;
  }
  EvictOldest();
  return true;
}

void PipelineEngine::Flush() {
  while (!buffer_.empty()) {
    EvictOldest();
  }
}

void PipelineEngine::Invalidate(PageKey key) { Drop(key, /*count_miss=*/true); }

bool PipelineEngine::TryFill(PageKey key, std::span<uint8_t> out) {
  const auto it = Find(key);
  if (it == buffer_.end()) {
    return false;
  }
  const Entry entry = *it;
  // The speculation may still be "running" on the background timeline; a
  // demand hit waits out the remainder (still far cheaper than redoing the
  // whole rung).
  if (entry.ready_at > clock_->Now()) {
    const SimDuration wait = entry.ready_at - clock_->Now();
    clock_->Advance(wait, TimeCategory::kDecompression);
    stats_.wait_ready_time += wait;
  }
  // Decode on the hit: the buffer frame holds the verified compressed image
  // (none for a zero page), and this is the only fault that needs its bytes.
  const auto image = frames_->FrameData(entry.frame).first(entry.image_size);
  if (entry.image_size == 0) {
    std::memset(out.data(), 0, out.size());
  } else if (!ccache_->codec()->TryDecompress(image, out)) {
    // Undecodable despite the issue-time CRC check (a damaged image whose CRC
    // still matched): a miss, and the demand fault takes the ladder.
    Drop(key, /*count_miss=*/true);
    return false;
  }
  clock_->Advance(costs_->CopyCost(out.size()), TimeCategory::kCopy);
  // The retained compressed copy just serviced a demand reference.
  ccache_->Touch(key);
  Drop(key, /*count_miss=*/false);
  ++stats_.hits;
  return true;
}

bool PipelineEngine::IssueOne(PageKey key, bool batched) {
  if (IsFileKey(key) || buffered(key)) {
    return false;
  }
  // Only pages living in the compression cache are worth decompressing
  // ahead. Swapped-out pages are deliberately NOT read speculatively: on this
  // disk every operation pays a seek and rotation, so a stride-initiated
  // single-page swap read costs more queueing delay than the fault it might
  // save — adjacent swapped pages instead coalesce into the demand read
  // itself (the clustered layout's widened reads), arrive as coresidents,
  // and become decompress-ahead targets here once they are in the ccache.
  const PageEntry* page = pager_->PeekEntry(key);
  if (page == nullptr || page->state != PageState::kCompressed) {
    return false;
  }
  if (buffer_.size() >= options_.prefetch_buffer_pages) {
    EvictOldest();
  }

  // Prefer a frame that is free right now (speculation on idle memory); when
  // the pool is saturated, front-run the demand fault this prediction stands
  // in for — the arbiter picks the globally oldest victim, and on a hit the
  // freed buffer frame satisfies the demand fault's own allocation, so the
  // steady-state eviction rate matches the synchronous machine.
  std::optional<FrameId> frame = frames_->TryAllocateFrame();
  if (!frame.has_value()) {
    frame = frames_->AllocateFrame();
    // Forced allocation can reclaim — from this buffer or from the ccache
    // (possibly the very entry being prefetched) — so re-read the page's
    // state before touching the source copy.
    if (page->state != PageState::kCompressed) {
      frames_->FreeFrame(*frame);
      return false;
    }
  }
  SimDuration work;  // decompress time, background timeline
  const std::optional<uint32_t> image_size =
      ccache_->PrefetchIn(key, frames_->FrameData(*frame), &work);
  if (!image_size.has_value()) {
    // Corrupt source: leave it for the demand fault's ladder (which meters and
    // recovers); speculation stays invisible.
    frames_->FreeFrame(*frame);
    return false;
  }

  // Decompression serializes on the background track.
  const SimTime start = std::max(background_busy_until_, clock_->Now());
  Entry entry;
  entry.key = key;
  entry.frame = *frame;
  entry.image_size = *image_size;
  entry.ready_at = start + work;
  entry.age_ns = static_cast<uint64_t>(clock_->Now().nanos());
  background_busy_until_ = entry.ready_at;
  stats_.background_time += work;

  buffer_.push_back(entry);
  ++stats_.issued;
  if (batched) {
    ++stats_.batched;
  }
  return true;
}

void PipelineEngine::RecordFault(PageKey key) {
  Stream& stream = streams_[key.segment];
  if (stream.has_last) {
    const int64_t delta = static_cast<int64_t>(key.page) - static_cast<int64_t>(stream.last_page);
    if (delta != 0 && delta == stream.delta) {
      stream.confirmed = true;
    } else {
      stream.delta = delta;
      stream.confirmed = false;
    }
  }
  stream.last_page = key.page;
  stream.has_last = true;
}

void PipelineEngine::IssueNeighbors(PageKey key) {
  // The demand swap read just widened across adjacent blocks and deposited
  // their coresident pages in the ccache; decompress them ahead, nearest
  // first. When the fault stream has a confirmed direction, only the leading
  // side — trailing neighbors of a directional walk are guaranteed-dead
  // guesses. Undirected streams probe both sides.
  const int64_t stride = ConfirmedStride(key.segment);
  for (uint32_t d = 1; d <= options_.fault_batch_window; ++d) {
    if (stride >= 0) {
      IssueOne(PageKey{key.segment, key.page + d}, /*batched=*/true);
    }
    if (stride <= 0 && key.page >= d) {
      IssueOne(PageKey{key.segment, key.page - d}, /*batched=*/true);
    }
  }
}

void PipelineEngine::OnFault(PageKey key, bool from_swap) {
  RecordFault(key);
  if (!options_.prefetch) {
    return;
  }
  if (from_swap && options_.fault_batch_window > 0) {
    IssueNeighbors(key);
  }
  // Extrapolate a confirmed stride. Some candidates are already resident or
  // buffered and are skipped, so up to twice prefetch_per_fault are tried.
  const int64_t stride = ConfirmedStride(key.segment);
  if (stride == 0) {
    return;
  }
  const uint64_t candidates = uint64_t{options_.prefetch_per_fault} * 2;
  int64_t page = key.page;
  uint32_t issued = 0;
  for (uint64_t i = 0; i < candidates && issued < options_.prefetch_per_fault; ++i) {
    page += stride;
    if (page < 0 || page > static_cast<int64_t>(UINT32_MAX)) {
      break;
    }
    if (IssueOne(PageKey{key.segment, static_cast<uint32_t>(page)}, /*batched=*/false)) {
      ++issued;
    }
  }
}

void PipelineEngine::BindMetrics(MetricRegistry* registry) {
  CC_EXPECTS(registry != nullptr);
  registry->RegisterCounter("prefetch.issued", &stats_.issued);
  registry->RegisterCounter("prefetch.hits", &stats_.hits);
  registry->RegisterCounter("prefetch.misses", &stats_.misses);
  registry->RegisterCounter("prefetch.batched", &stats_.batched);
  registry->RegisterCounter("prefetch.wait_ready_ns", &stats_.wait_ready_time);
  registry->RegisterCounter("prefetch.background_ns", &stats_.background_time);
  registry->RegisterGauge("prefetch.buffered", [this] {
    return static_cast<double>(buffer_.size());
  });
}

void PipelineEngine::RegisterAuditChecks(InvariantAuditor* auditor) {
  CC_EXPECTS(auditor != nullptr);
  auditor->Register("prefetch", "buffer-conservation",
                    [this]() -> std::optional<std::string> {
                      if (stats_.issued != stats_.hits + stats_.misses + buffer_.size()) {
                        return "issued " + std::to_string(stats_.issued) +
                               " != hits " + std::to_string(stats_.hits) +
                               " + misses " + std::to_string(stats_.misses) +
                               " + buffered " + std::to_string(buffer_.size());
                      }
                      if (buffer_.size() > options_.prefetch_buffer_pages) {
                        return "buffer exceeds its bound";
                      }
                      return std::nullopt;
                    });
}

}  // namespace compcache
