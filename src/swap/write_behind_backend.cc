#include "swap/write_behind_backend.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "util/assert.h"
#include "util/audit.h"

namespace compcache {

WriteBehindBackend::WriteBehindBackend(
    std::unique_ptr<CompressedSwapBackend> inner, Clock* clock, uint32_t depth)
    : inner_(std::move(inner)), clock_(clock), depth_(depth) {
  CC_EXPECTS(inner_ != nullptr);
  CC_EXPECTS(clock_ != nullptr);
  CC_EXPECTS(depth_ >= 1);
}

std::vector<WriteBehindBackend::Batch>::iterator WriteBehindBackend::NextToComplete() {
  const auto by_completion = [](const Batch& a, const Batch& b) {
    return a.complete_at < b.complete_at;
  };
  // min_element keeps the first of equal minima: inflight_ is in submit order.
  return std::min_element(inflight_.begin(), inflight_.end(), by_completion);
}

void WriteBehindBackend::Poll() {
  auto next = NextToComplete();
  while (next != inflight_.end() && next->complete_at <= clock_->Now()) {
    Retire(next);
    next = NextToComplete();
  }
}

void WriteBehindBackend::StallUntil(SimTime t) {
  if (t > clock_->Now()) {
    stats_.stall_time += t - clock_->Now();
    clock_->Advance(t - clock_->Now(), TimeCategory::kIo);
  }
  Poll();
}

void WriteBehindBackend::Retire(std::vector<Batch>::iterator batch) {
  for (const PageKey& key : batch->keys) {
    // A newer in-flight batch may have overwritten the page; only drop the
    // index entry if it still points at this batch.
    const auto kit = inflight_keys_.find(key);
    if (kit != inflight_keys_.end() && kit->second == batch->seq) {
      inflight_keys_.erase(kit);
    }
  }
  inflight_.erase(batch);
  ++stats_.batches_completed;
}

IoStatus WriteBehindBackend::WriteBatch(std::span<const SwapPageImage> pages) {
  Poll();
  // The batch happens physically now — stored bytes, metadata, status, and
  // fault ordinals are exactly the synchronous ones; only the time is deferred.
  Clock::BackgroundWindow window(clock_);
  const IoStatus status = inner_->WriteBatch(pages);
  const Clock::BackgroundIo io = window.Close();
  const uint64_t seq = next_seq_++;
  Batch batch;
  batch.seq = seq;
  batch.complete_at = io.complete_at;
  if (status == IoStatus::kOk) {
    batch.keys.reserve(pages.size());
    for (const SwapPageImage& image : pages) {
      batch.keys.push_back(image.key);
      inflight_keys_[image.key] = seq;
    }
  }
  inflight_.push_back(std::move(batch));
  ++stats_.batches_submitted;
  stats_.pages_submitted += pages.size();
  stats_.deferred_io_time += io.device_time;

  // Backpressure: the queue holds at most `depth` batches counting this one,
  // so depth 1 waits out its own disk time (the synchronous machine).
  bool stalled = false;
  while (inflight_.size() >= depth_) {
    const SimTime target = NextToComplete()->complete_at;
    if (target > clock_->Now()) {
      stalled = true;
    }
    StallUntil(target);
  }
  if (stalled) {
    ++stats_.backpressure_stalls;
  }
  return status;
}

CompressedSwapBackend::ReadResult WriteBehindBackend::ReadPage(
    PageKey key, bool collect_coresidents) {
  Poll();
  const auto it = inflight_keys_.find(key);
  if (it != inflight_keys_.end()) {
    // Barrier: the data is physically readable, but a real disk queue would
    // not let this read overtake the still-queued write of the same page.
    const uint64_t seq = it->second;
    SimTime target = clock_->Now();
    for (const Batch& batch : inflight_) {
      if (batch.seq == seq) {
        target = batch.complete_at;
        break;
      }
    }
    if (target > clock_->Now()) {
      ++stats_.barrier_stalls;
      StallUntil(target);
    }
  }
  return inner_->ReadPage(key, collect_coresidents);
}

void WriteBehindBackend::Drain(bool advance_clock) {
  while (!inflight_.empty()) {
    const auto next = NextToComplete();
    if (advance_clock) {
      StallUntil(next->complete_at);
    } else {
      Retire(next);
    }
  }
}

void WriteBehindBackend::RegisterAuditChecks(InvariantAuditor* auditor) {
  inner_->RegisterAuditChecks(auditor);
  auditor->Register("pipeline", "inflight-conservation",
                    [this]() -> std::optional<std::string> {
                      if (stats_.batches_submitted != stats_.batches_completed + inflight_.size()) {
                        return "submitted " + std::to_string(stats_.batches_submitted) +
                               " != completed " + std::to_string(stats_.batches_completed) +
                               " + inflight " + std::to_string(inflight_.size());
                      }
                      return std::nullopt;
                    });
  auditor->Register("pipeline", "inflight-index-coherent",
                    [this]() -> std::optional<std::string> {
                      for (const auto& [key, seq] : inflight_keys_) {
                        bool live = false;
                        for (const Batch& batch : inflight_) {
                          live |= batch.seq == seq;
                        }
                        if (!live) {
                          return "in-flight key maps to retired batch " +
                                 std::to_string(seq);
                        }
                      }
                      return std::nullopt;
                    });
}

void WriteBehindBackend::BindMetrics(MetricRegistry* registry) {
  CC_EXPECTS(registry != nullptr);
  inner_->BindMetrics(registry);
  registry->RegisterCounter("pipeline.batches_submitted", &stats_.batches_submitted);
  registry->RegisterCounter("pipeline.batches_completed", &stats_.batches_completed);
  registry->RegisterCounter("pipeline.pages_submitted", &stats_.pages_submitted);
  registry->RegisterCounter("pipeline.barrier_stalls", &stats_.barrier_stalls);
  registry->RegisterCounter("pipeline.backpressure_stalls", &stats_.backpressure_stalls);
  registry->RegisterCounter("pipeline.stall_ns", &stats_.stall_time);
  registry->RegisterCounter("pipeline.deferred_io_ns", &stats_.deferred_io_time);
  registry->RegisterGauge("pipeline.inflight",
                          [this] { return static_cast<double>(inflight_.size()); });
}

}  // namespace compcache
