// Write-behind decorator over a compressed swap backend.
//
// The paper's clustered 32 KB write-out amortizes seek cost but is still fully
// synchronous in the baseline machine: the faulting app stalls until the whole
// batch reaches the platter. This decorator turns each WriteBatch into a
// *submitted* background request: the wrapped layout performs the batch
// physically at the submit instant (bytes, metadata, IoStatus, and fault
// ordinals are identical to the synchronous path — outcomes never depend on
// queue depth), inside the clock's background-I/O window, so the device time
// of every device the batch touches (the disk, and any SSD tier below a tier
// stack) accrues on that device's background timeline.
// Batches whose completion time the app clock has passed retire at the next
// submit, read or drain, in (completion time, submit order) order: with a
// tier stack below, a later batch can finish before an earlier one.
// Subsequent app CPU (compression of the next batch, page touches) overlaps
// the disk.
//
// Three rules keep the model honest:
//   * Backpressure — at most `depth` batches may be outstanding; a submit that
//     would exceed the bound stalls (kIo) until the first batch to finish
//     completes.
//     Depth 1 therefore degenerates to the synchronous machine: every submit
//     waits out its own disk time before returning.
//   * Barrier — faulting in a page whose batch is still in flight waits for
//     that batch's completion first, and for no other batch (the data is
//     physically readable, but a real disk queue would not let the read
//     overtake the write).
//   * FIFO device — foreground I/O issued while background work is pending
//     queues behind it (charged by DiskDevice as disk.queue_wait_ns).
#ifndef COMPCACHE_SWAP_WRITE_BEHIND_BACKEND_H_
#define COMPCACHE_SWAP_WRITE_BEHIND_BACKEND_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/clock.h"
#include "swap/compressed_swap_backend.h"
#include "vm/page_key.h"

namespace compcache {

struct WriteBehindStats {
  uint64_t batches_submitted = 0;
  uint64_t batches_completed = 0;
  uint64_t pages_submitted = 0;
  uint64_t barrier_stalls = 0;       // fault-in hit an in-flight batch
  uint64_t backpressure_stalls = 0;  // submit found the queue full
  SimDuration stall_time;            // clock advanced waiting on completions
  SimDuration deferred_io_time;      // device time accrued off the app clock
};

class WriteBehindBackend : public CompressedSwapBackend {
 public:
  // `depth` >= 1 bounds outstanding batches (1 = effectively synchronous).
  WriteBehindBackend(std::unique_ptr<CompressedSwapBackend> inner, Clock* clock,
                     uint32_t depth);

  // Writes the batch through the inner layout inside a background-I/O window
  // on the clock, puts it in flight, then applies backpressure. Returns the
  // batch's IoStatus (known at submit: outcomes are depth-independent).
  IoStatus WriteBatch(std::span<const SwapPageImage> pages) override;

  // Barrier: if `key` belongs to an in-flight batch, stalls to that batch's
  // completion before reading through.
  ReadResult ReadPage(PageKey key, bool collect_coresidents) override;

  // Metadata is committed at submit, so these forward without stalling.
  bool Contains(PageKey key) const override { return inner_->Contains(key); }
  void Invalidate(PageKey key) override { inner_->Invalidate(key); }
  MountStats Mount() override { return inner_->Mount(); }
  void ForEachPage(const std::function<void(PageKey)>& fn) const override {
    inner_->ForEachPage(fn);
  }
  void RegisterAuditChecks(InvariantAuditor* auditor) override;
  uint64_t checksum_mismatches() const override { return inner_->checksum_mismatches(); }
  void BindMetrics(MetricRegistry* registry) override;
  void SetTracer(EventTracer* tracer) override { inner_->SetTracer(tracer); }

  // Waits out every in-flight batch: advances the clock (kIo, counted in
  // stall_time) to each completion in order. With `advance_clock` false the
  // batches are retired without moving time (post-crash teardown).
  void Drain(bool advance_clock);
  // True while the batch that last wrote `key` is still in flight.
  bool InFlight(PageKey key) const { return inflight_keys_.contains(key); }

  CompressedSwapBackend* inner() { return inner_.get(); }
  const WriteBehindStats& stats() const { return stats_; }
  size_t inflight_batches() const { return inflight_.size(); }

 private:
  struct Batch {
    uint64_t seq = 0;
    SimTime complete_at;
    std::vector<PageKey> keys;  // successfully written pages (empty on kFailed)
  };

  // The in-flight batch that completes first: earliest complete_at, ties to
  // the earliest submitted. end() when nothing is in flight.
  std::vector<Batch>::iterator NextToComplete();
  // Retires the batches whose completion the clock has already passed (never
  // advances it).
  void Poll();
  // Advances the clock to `t` (kIo) if it is in the future, then polls.
  void StallUntil(SimTime t);
  // Removes `batch` from flight, with its key-index entries.
  void Retire(std::vector<Batch>::iterator batch);

  std::unique_ptr<CompressedSwapBackend> inner_;
  Clock* clock_;
  uint32_t depth_;
  std::vector<Batch> inflight_;  // submit order; at most `depth_` batches
  // key -> seq of the latest in-flight batch holding it.
  std::unordered_map<PageKey, uint64_t, PageKeyHash> inflight_keys_;
  uint64_t next_seq_ = 0;
  WriteBehindStats stats_;
};

}  // namespace compcache

#endif  // COMPCACHE_SWAP_WRITE_BEHIND_BACKEND_H_
