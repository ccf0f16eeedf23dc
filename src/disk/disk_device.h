// A backing-store device: real byte storage plus modelled timing.
//
// The device stores data for real (sparsely, in 4 KB chunks) so that everything the
// simulator pages out and back in is verified end-to-end — a bug that corrupted a
// compressed page in the swap path would surface as wrong application results, not
// just wrong timings.
//
// The device can also fail. When a FaultInjector is attached, transient read and
// write errors follow its schedule and are absorbed by a bounded
// retry-with-backoff policy whose latency is charged through the timing model;
// only when the policy is exhausted does the error surface as IoStatus::kFailed.
// Latent sector corruption (a stored bit flipping after an otherwise successful
// write) is injected silently — the device has no checksums, by design; the swap
// backends and the compression cache detect it at read time.
//
// While the clock's background-I/O window is open (a write-behind batch), a
// request moves bytes and draws fault ordinals as usual, but is queued on this
// device's background timeline at its actual issue time — the later of now and
// the end of the queued background work — and reported to the clock instead of
// advancing it. A foreground request first waits out queued background work
// (the device is one FIFO queue), charged as kIo and counted in queue_wait_time.
#ifndef COMPCACHE_DISK_DISK_DEVICE_H_
#define COMPCACHE_DISK_DISK_DEVICE_H_

#include <array>
#include <cstdint>
#include <exception>
#include <memory>
#include <span>
#include <unordered_map>

#include "disk/disk_model.h"
#include "sim/clock.h"
#include "util/fault.h"
#include "util/io_status.h"
#include "util/metrics.h"
#include "util/time_types.h"
#include "util/trace.h"

namespace compcache {

struct DiskStats {
  uint64_t read_ops = 0;
  uint64_t write_ops = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  SimDuration busy_time;
  // Foreground time spent waiting for background (write-behind) requests
  // already queued at the device — the FIFO ordering cost of background I/O.
  SimDuration queue_wait_time;
  // Retry-policy outcomes under fault injection (all zero without an injector).
  uint64_t read_retries = 0;
  uint64_t write_retries = 0;
  uint64_t reads_exhausted = 0;
  uint64_t writes_exhausted = 0;
  SimDuration retry_backoff_time;
  // Simulated power losses that fired mid-write (see PowerFailure).
  uint64_t power_failures = 0;
};

// Thrown by DiskDevice::Write when the injector's kPowerFail schedule fires
// mid-transfer. The machine owning the device is dead from that instant: the
// stored image keeps only the sectors persisted before the cut, every later
// request returns kFailed without advancing time, and recovery happens by
// building a fresh machine over the surviving image (Machine::Recover).
class PowerFailure : public std::exception {
 public:
  const char* what() const noexcept override { return "simulated power failure"; }
};

// Bounded exponential backoff for transient device errors. An operation is
// attempted up to max_attempts times; between attempts the caller waits
// initial_backoff * backoff_multiplier^(attempt-1) of virtual time, charged as
// I/O. Defaults follow the classic SCSI-driver shape: a handful of quick
// retries, then give up and let the layer above recover.
struct RetryPolicy {
  uint32_t max_attempts = 4;
  SimDuration initial_backoff = SimDuration::Micros(500);
  double backoff_multiplier = 2.0;
};

class DiskDevice {
 public:
  // setup_overhead is charged once per request (driver + command issue).
  DiskDevice(Clock* clock, std::unique_ptr<BackingTimingModel> timing,
             SimDuration setup_overhead);

  // Reads `out.size()` bytes at `offset`; unwritten areas read as zero.
  // Returns kFailed when injected transient errors outlast the retry policy
  // (out is untouched past the failed attempt's zero guarantee: nothing is
  // copied on failure).
  [[nodiscard]] IoStatus Read(uint64_t offset, std::span<uint8_t> out);

  // Writes `data` at `offset`. Returns kFailed when retries are exhausted; the
  // stored bytes are unchanged in that case. Throws PowerFailure when the
  // injector's kPowerFail schedule fires mid-transfer: the prefix of `data`
  // persisted before the cut (whole 512-byte sectors plus part of the torn
  // one) is kept, the rest of the request is lost, and the device is dead
  // (power_failed()) from then on.
  [[nodiscard]] IoStatus Write(uint64_t offset, std::span<const uint8_t> data);

  // True once a PowerFailure has fired. A dead device fails every subsequent
  // Read/Write immediately (no time charged, no fault ordinals consumed), so
  // destructor-time writeback of a crashed machine can never re-throw.
  bool power_failed() const { return power_failed_; }

  // Replaces this device's stored bytes with a snapshot of `other`'s — the
  // "surviving image" a recovered machine boots from. Timing/fault state is
  // not copied; only the persisted data survives a power cut.
  void CopyContentsFrom(const DiskDevice& other);

  uint64_t capacity() const { return timing_->capacity(); }
  const DiskStats& stats() const { return stats_; }
  Clock* clock() const { return clock_; }

  void SetRetryPolicy(const RetryPolicy& policy);
  // Attaches fault injection; nullptr (the default) restores the perfect
  // device.
  void SetFaultInjector(FaultInjector* injector) { injector_ = injector; }

  // --- observability ---
  // Publishes counters as "disk.*" / "retry.*" gauges and creates the
  // "disk.access_ns" per-request latency histogram.
  void BindMetrics(MetricRegistry* registry);
  void SetTracer(EventTracer* tracer) { tracer_ = tracer; }

 private:
  static constexpr uint64_t kChunkSize = 4096;
  // Granularity at which a power cut can tear an in-flight write.
  static constexpr uint64_t kSectorSize = 512;
  using Chunk = std::array<uint8_t, kChunkSize>;

  void Charge(uint64_t offset, uint64_t length);
  // Charges one backoff interval for `attempt` (1-based) and records it.
  void ChargeBackoff(uint32_t attempt);
  // Evaluates `site`'s schedule once per kChunkSize block of a `bytes`-sized
  // request; true when any block faulted.
  bool AttemptFaults(FaultSite site, size_t bytes);
  void StoreBytes(uint64_t offset, std::span<const uint8_t> data);
  Chunk& ChunkFor(uint64_t index);

  Clock* clock_;
  std::unique_ptr<BackingTimingModel> timing_;
  SimDuration setup_overhead_;
  RetryPolicy retry_policy_;
  std::unordered_map<uint64_t, std::unique_ptr<Chunk>> chunks_;
  DiskStats stats_;
  // End of the last queued background request; requests (background or not)
  // issue no earlier than this.
  SimTime background_busy_until_;
  bool power_failed_ = false;
  FaultInjector* injector_ = nullptr;
  LatencyHistogram* access_latency_ = nullptr;  // owned by the bound registry
  EventTracer* tracer_ = nullptr;
};

}  // namespace compcache

#endif  // COMPCACHE_DISK_DISK_DEVICE_H_
