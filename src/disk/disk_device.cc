#include "disk/disk_device.h"

#include <algorithm>
#include <cstring>

#include "util/assert.h"

namespace compcache {

DiskDevice::DiskDevice(Clock* clock, std::unique_ptr<BackingTimingModel> timing,
                       SimDuration setup_overhead)
    : clock_(clock), timing_(std::move(timing)), setup_overhead_(setup_overhead) {
  CC_EXPECTS(clock_ != nullptr);
  CC_EXPECTS(timing_ != nullptr);
}

void DiskDevice::SetRetryPolicy(const RetryPolicy& policy) {
  CC_EXPECTS(policy.max_attempts >= 1);
  CC_EXPECTS(policy.backoff_multiplier >= 1.0);
  retry_policy_ = policy;
}

void DiskDevice::Charge(uint64_t offset, uint64_t length) {
  SimDuration device_cost;
  if (clock_->in_background_window()) {
    // Background request: stamp it at its actual issue time — behind whatever
    // is already queued, but no earlier than now — and accumulate its service
    // time on the background timeline instead of the caller's clock. Using the
    // issue time (not the submit time) for the timing model keeps the head
    // position honest and makes disk.access_ns reflect real issue order.
    const SimTime issue = std::max(background_busy_until_, clock_->Now()) + setup_overhead_;
    device_cost = timing_->Access(issue, offset, length);
    background_busy_until_ = issue + device_cost;
    clock_->ReportBackgroundIo(background_busy_until_, setup_overhead_ + device_cost);
  } else {
    // Foreground request: the device is one FIFO queue, so first wait out any
    // background work still in flight (charged to the caller — this is the
    // price of write-behind showing up on the fault path).
    if (background_busy_until_ > clock_->Now()) {
      const SimDuration wait = background_busy_until_ - clock_->Now();
      clock_->Advance(wait, TimeCategory::kIo);
      stats_.queue_wait_time += wait;
    }
    // The setup overhead elapses before the device starts working on the request.
    clock_->Advance(setup_overhead_, TimeCategory::kIo);
    device_cost = timing_->Access(clock_->Now(), offset, length);
    clock_->Advance(device_cost, TimeCategory::kIo);
  }
  stats_.busy_time += setup_overhead_ + device_cost;
  if (access_latency_ != nullptr) {
    access_latency_->Observe(static_cast<double>((setup_overhead_ + device_cost).nanos()));
  }
}

void DiskDevice::ChargeBackoff(uint32_t attempt) {
  double scale = 1.0;
  for (uint32_t i = 1; i < attempt; ++i) {
    scale *= retry_policy_.backoff_multiplier;
  }
  const auto backoff = SimDuration::Nanos(static_cast<int64_t>(
      static_cast<double>(retry_policy_.initial_backoff.nanos()) * scale));
  stats_.retry_backoff_time += backoff;
  SimTime retry_at;
  if (clock_->in_background_window()) {
    // The retry waits on the background timeline, after the failed attempt.
    background_busy_until_ = std::max(background_busy_until_, clock_->Now()) + backoff;
    clock_->ReportBackgroundIo(background_busy_until_, backoff);
    retry_at = background_busy_until_;
  } else {
    clock_->Advance(backoff, TimeCategory::kIo);
    retry_at = clock_->Now();
  }
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventKind::kDiskRetry, retry_at, attempt,
                    static_cast<uint64_t>(backoff.nanos()));
  }
}

void DiskDevice::BindMetrics(MetricRegistry* registry) {
  CC_EXPECTS(registry != nullptr);
  registry->RegisterCounter("disk.read_ops", &stats_.read_ops);
  registry->RegisterCounter("disk.write_ops", &stats_.write_ops);
  registry->RegisterCounter("disk.bytes_read", &stats_.bytes_read);
  registry->RegisterCounter("disk.bytes_written", &stats_.bytes_written);
  registry->RegisterCounter("disk.busy_ns", &stats_.busy_time);
  registry->RegisterCounter("disk.queue_wait_ns", &stats_.queue_wait_time);
  registry->RegisterCounter("retry.read_retries", &stats_.read_retries);
  registry->RegisterCounter("retry.write_retries", &stats_.write_retries);
  registry->RegisterCounter("retry.reads_exhausted", &stats_.reads_exhausted);
  registry->RegisterCounter("retry.writes_exhausted", &stats_.writes_exhausted);
  registry->RegisterCounter("retry.backoff_ns", &stats_.retry_backoff_time);
  registry->RegisterCounter("fault.crashes", &stats_.power_failures);
  access_latency_ = registry->BindHistogram("disk.access_ns");
}

DiskDevice::Chunk& DiskDevice::ChunkFor(uint64_t index) {
  auto& slot = chunks_[index];
  if (slot == nullptr) {
    slot = std::make_unique<Chunk>();
    slot->fill(0);
  }
  return *slot;
}

IoStatus DiskDevice::Read(uint64_t offset, std::span<uint8_t> out) {
  CC_EXPECTS(offset + out.size() <= capacity());
  if (power_failed_) {
    return IoStatus::kFailed;  // dead device: no time, no fault ordinals
  }
  // One logical operation regardless of how many attempts it takes.
  ++stats_.read_ops;
  stats_.bytes_read += out.size();
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventKind::kDiskRead, clock_->Now(), offset, out.size());
  }

  for (uint32_t attempt = 1;; ++attempt) {
    Charge(offset, out.size());
    if (!AttemptFaults(FaultSite::kDiskRead, out.size())) {
      break;  // the transfer succeeded
    }
    if (attempt >= retry_policy_.max_attempts) {
      ++stats_.reads_exhausted;
      if (tracer_ != nullptr) {
        tracer_->Record(TraceEventKind::kDiskRetryExhausted, clock_->Now(), attempt, 0);
      }
      return IoStatus::kFailed;
    }
    ++stats_.read_retries;
    ChargeBackoff(attempt);
  }

  uint64_t pos = offset;
  size_t done = 0;
  while (done < out.size()) {
    const uint64_t chunk_index = pos / kChunkSize;
    const uint64_t within = pos % kChunkSize;
    const size_t n = static_cast<size_t>(
        std::min<uint64_t>(kChunkSize - within, out.size() - done));
    const auto it = chunks_.find(chunk_index);
    if (it == chunks_.end()) {
      std::memset(out.data() + done, 0, n);
    } else {
      std::memcpy(out.data() + done, it->second->data() + within, n);
    }
    pos += n;
    done += n;
  }
  return IoStatus::kOk;
}

IoStatus DiskDevice::Write(uint64_t offset, std::span<const uint8_t> data) {
  CC_EXPECTS(offset + data.size() <= capacity());
  if (power_failed_) {
    return IoStatus::kFailed;  // dead device: no time, no fault ordinals
  }
  ++stats_.write_ops;
  stats_.bytes_written += data.size();
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventKind::kDiskWrite, clock_->Now(), offset, data.size());
  }

  for (uint32_t attempt = 1;; ++attempt) {
    Charge(offset, data.size());
    if (!AttemptFaults(FaultSite::kDiskWrite, data.size())) {
      break;
    }
    if (attempt >= retry_policy_.max_attempts) {
      ++stats_.writes_exhausted;
      if (tracer_ != nullptr) {
        tracer_->Record(TraceEventKind::kDiskRetryExhausted, clock_->Now(), attempt, 0);
      }
      return IoStatus::kFailed;
    }
    ++stats_.write_retries;
    ChargeBackoff(attempt);
  }

  // Power-fail crash points sit *inside* the transfer: one per 512-byte
  // sector, checked in the order the sectors reach the platter. A trigger at
  // sector s persists sectors [0, s) whole plus a drawn prefix of sector s
  // (the torn sector), marks the device dead, and throws.
  if (injector_ != nullptr && !data.empty()) {
    const uint64_t sectors = (data.size() + kSectorSize - 1) / kSectorSize;
    for (uint64_t s = 0; s < sectors; ++s) {
      if (!injector_->ShouldFault(FaultSite::kPowerFail)) {
        continue;
      }
      const uint64_t torn = injector_->Draw(FaultSite::kPowerFail, kSectorSize);
      const size_t kept = static_cast<size_t>(
          std::min<uint64_t>(s * kSectorSize + torn, data.size()));
      StoreBytes(offset, data.subspan(0, kept));
      ++stats_.power_failures;
      power_failed_ = true;
      if (tracer_ != nullptr) {
        tracer_->Record(TraceEventKind::kPowerFail, clock_->Now(), offset + kept,
                        data.size() - kept);
      }
      throw PowerFailure();
    }
  }

  StoreBytes(offset, data);

  // Latent corruption: after an otherwise-successful write, one stored bit per
  // triggered block may flip. Silent here — the device has no checksums; the
  // layers above do.
  if (injector_ != nullptr && !data.empty()) {
    const uint64_t units = (data.size() + kChunkSize - 1) / kChunkSize;
    for (uint64_t u = 0; u < units; ++u) {
      if (!injector_->ShouldFault(FaultSite::kSectorCorruption)) {
        continue;
      }
      const uint64_t unit_bytes =
          std::min<uint64_t>(kChunkSize, data.size() - u * kChunkSize);
      const uint64_t bit = injector_->Draw(FaultSite::kSectorCorruption, unit_bytes * 8);
      const uint64_t victim = offset + u * kChunkSize + bit / 8;
      ChunkFor(victim / kChunkSize)[victim % kChunkSize] ^=
          static_cast<uint8_t>(1u << (bit % 8));
    }
  }
  return IoStatus::kOk;
}

// Evaluates the transient-fault schedule once per kChunkSize block of the
// request (minimum one), so nth-op schedules can target individual blocks of
// a clustered batch. Every block's ordinal is consumed even after a trigger,
// keeping the fault history independent of which block faults first.
bool DiskDevice::AttemptFaults(FaultSite site, size_t bytes) {
  if (injector_ == nullptr) {
    return false;
  }
  const uint64_t units = bytes == 0 ? 1 : (bytes + kChunkSize - 1) / kChunkSize;
  bool fault = false;
  for (uint64_t u = 0; u < units; ++u) {
    fault |= injector_->ShouldFault(site);
  }
  return fault;
}

void DiskDevice::StoreBytes(uint64_t offset, std::span<const uint8_t> data) {
  uint64_t pos = offset;
  size_t done = 0;
  while (done < data.size()) {
    const uint64_t chunk_index = pos / kChunkSize;
    const uint64_t within = pos % kChunkSize;
    const size_t n = static_cast<size_t>(
        std::min<uint64_t>(kChunkSize - within, data.size() - done));
    std::memcpy(ChunkFor(chunk_index).data() + within, data.data() + done, n);
    pos += n;
    done += n;
  }
}

void DiskDevice::CopyContentsFrom(const DiskDevice& other) {
  chunks_.clear();
  for (const auto& [index, chunk] : other.chunks_) {
    chunks_[index] = std::make_unique<Chunk>(*chunk);
  }
}

}  // namespace compcache
